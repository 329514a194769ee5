"""Evolve behaviour-performance archives with two descriptor choices.

Runs a short environment-diversity evolution (candidates evaluated in
randomly perturbed environments, binned by the environment index) and a
hand-coded-descriptor baseline (always evaluated in the normal environment),
then prints their coverage/performance curves. Both archives are
`qdswarm.Archive` instances: `Archive.qed()` indexes the 4^6 environment
grid, `Archive.hbd()` the 16^3 hand-coded descriptor grid. Scaled far below
the full-scale preset so it finishes in about a minute; raise the numbers
for real runs.
"""

from qdswarm import EvolutionConfig, evolve

for algorithm in ("qed", "hbd"):
    config = EvolutionConfig(
        task="aggregation",
        algorithm=algorithm,
        initial_population=30,
        generations=60,
        evals_per_generation=2,
        trials=1,
        seed=3,
        trial_duration=20.0,
    )
    result = evolve(config)
    print(f"\n{algorithm}: {result.archive.coverage}/{result.archive.capacity} cells filled")
    for row in result.stats[:: max(1, len(result.stats) // 6)]:
        print(
            f"  gen {row.generation:3d}  evals {row.evaluations:4d}  "
            f"coverage {row.coverage:3d}  best {row.best:.4f}  mean {row.mean:.4f}"
        )
    best = max(result.archive.cells.values(), key=lambda elite: elite.performance)
    print(f"  best elite: performance {best.performance:.4f} "
          f"({best.genome.hidden} hidden, {len(best.genome.connections)} connections)")
    # elitism: replacements only ever improve a cell, and an equal score
    # never displaces the incumbent
    for event in result.events:
        assert event.previous is None or event.performance > event.previous
    key = result.archive.key_of(best.descriptor)
    assert result.archive.cells[key] is best and not result.archive.try_insert(key, best)
print("\nper-cell performance traces are non-decreasing (elitism verified)")
