"""Compute the four behaviour/environment characterisations of a controller.

Replays a controller for a few trials in the normal operating environment
and prints its hand-coded (3-d), feature-statistics (10-d), and policy
profile (64 x 16) descriptors, then shows how environments map to the 6-d
environment descriptor.
"""

import numpy as np

from qdswarm import (
    NORMAL_ENV,
    describe,
    env_from_index,
    env_index,
    generate_environment,
    random_genome,
    run_trial,
)

rng = np.random.default_rng(5)
genome = random_genome(rng)
logs = [run_trial(NORMAL_ENV, genome, seed=s, duration=100.0) for s in range(3)]

hbd = describe("hbd", logs)
print("hand-coded descriptor (uniformity, centre distance, coverage):")
print(f"  {hbd.round(4)}")

sdbc = describe("sdbc", logs)
print("feature-statistics descriptor (5 means then 5 SDs):")
print(f"  {sdbc.round(4)}")

spirit = describe("spirit", logs)
visited = int((spirit != 1.0 / 16.0).any(axis=1).sum())
print(f"policy profile: {spirit.shape[0]} states x {spirit.shape[1]} actions, "
      f"{visited} states visited (rest uniform)")
assert np.allclose(spirit.sum(axis=1), 1.0)

print("\nenvironment descriptors (attribute indices in their perturbation sets):")
print(f"  normal environment -> {env_index(NORMAL_ENV)}")
for _ in range(3):
    env = generate_environment(rng)
    idx = env_index(env)
    assert env_from_index(idx) == env
    print(f"  {idx} <- speed={env.max_linear_speed} robots={env.n_robots} "
          f"side={env.arena_side} obstacles={env.n_obstacles} "
          f"rab={env.rab_range} prox={env.proximity_range}")
