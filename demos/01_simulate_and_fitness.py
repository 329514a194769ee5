"""Simulate a swarm trial and score it on the five tasks.

Runs one 400 s trial of a random recurrent controller in the normal
operating environment (10 robots, 4 x 4 m arena) and prints the fitness of
the same trajectory under each task definition. To inspect a trajectory as
CSV, `qdswarm export --what triallog` writes one row per (cycle, robot) for
an evolved elite.
"""

import numpy as np

from qdswarm import (
    NORMAL_ENV,
    TaskKind,
    fitness,
    random_genome,
    run_trial,
)

rng = np.random.default_rng(2)
genome = random_genome(rng)
print(f"controller: {genome.hidden} hidden neurons, {len(genome.connections)} connections")

log = run_trial(NORMAL_ENV, genome, seed=7, duration=400.0)
print(f"simulated {log.n_cycles} control cycles for {log.n_robots} robots")

for task in TaskKind:
    print(f"  {task.value:>18}: {fitness(task, log):.4f}")

# determinism: the same seed reproduces the trial bit for bit
replay = run_trial(NORMAL_ENV, genome, seed=7, duration=400.0)
assert np.array_equal(log.poses, replay.poses)
print("replay with the same seed is bit-identical")
