"""Inject combined faults into a swarm and recover from the archive.

Evolves a small environment-diversity archive, samples combined faults (one
of 8 fault types per robot), and for each fault compares the impact of
transferring the previously-best controller against the resilience achieved
by searching the archive for the best controller under that fault.
"""

import numpy as np

from qdswarm import (
    EvolutionConfig,
    evaluate_archive,
    evolve,
    fault_recovery_records,
    sample_combined_fault,
)

config = EvolutionConfig(
    task="aggregation",
    algorithm="qed",
    initial_population=40,
    generations=80,
    evals_per_generation=1,
    trials=1,
    seed=4,
    trial_duration=10.0,
)
archive = evolve(config).archive
print(f"archive: {archive.coverage} elites")

rng = np.random.default_rng(10)
faults = [sample_combined_fault(rng, 10) for _ in range(10)]
# the fault-free scores that each fault is compared against, on the same trial seeds
normal = evaluate_archive(archive, "aggregation", trials=2, seed=1, duration=10.0, n_jobs=2)
records = fault_recovery_records(
    archive, "aggregation", normal, faults, trials=2, seed=1, duration=10.0, n_jobs=2
)

print(f"{'fault':>5} {'impact':>8} {'recovered':>9} {'resilience':>10} {'distance':>8}")
for r in records:
    print(
        f"{r.fault_id:>5} {r.impact:8.4f} {r.recovered:9.4f} {r.resilience:10.4f} {r.distance:8.4f}"
    )
    assert r.resilience >= r.impact  # searching the archive can only help

impacts = np.array([r.impact for r in records])
resiliences = np.array([r.resilience for r in records])
print(f"\nmedian impact     {np.median(impacts):.4f}")
print(f"median resilience {np.median(resiliences):.4f}")
print("archive search reduces the median performance loss"
      if np.median(resiliences) > np.median(impacts)
      else "no median reduction at this tiny scale (rerun with a larger archive)")
