"""Archive evolution loops: MAP-Elites over behaviour descriptors, and the
environment-diversity variant that evaluates each candidate in a freshly
drawn environment and bins it by that environment's index.

Every evaluation gets its own RNG streams derived from (master seed, label,
evaluation counter), and archive insertions happen in counter order, so runs
are bit-reproducible regardless of evaluation parallelism.
"""

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .archive import CVT_ALGORITHMS, Elite, make_archive
from .environment import NORMAL_ENV, env_index, generate_environment
from .genome import Genome, MutationParams, mutate, random_genome
from .seeding import derive_rng, trial_seeds
from .tasks import TaskKind, evaluator

DESCRIPTOR_DIMS = {"hbd": 3, "sdbc": 10, "spirit": 1024, "qed": 6}
ALGORITHMS = tuple(DESCRIPTOR_DIMS)


@dataclass
class EvolutionConfig:
    task: str = TaskKind.AGGREGATION.value
    algorithm: str = "qed"
    initial_population: int = 200
    generations: int = 1000
    evals_per_generation: int = 20
    trials: int = 5
    seed: int = 0
    trial_duration: float = 400.0
    mutation: MutationParams = field(default_factory=MutationParams)
    centroids: Optional[np.ndarray] = None
    n_jobs: int = 1

    def validate(self) -> None:
        if self.algorithm not in ALGORITHMS:
            raise ValueError(f"unknown algorithm {self.algorithm!r}")
        TaskKind(self.task)
        for name in ("initial_population", "generations", "evals_per_generation", "trials"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1")
        if self.algorithm in CVT_ALGORITHMS and self.centroids is None:
            raise ValueError(f"{self.algorithm} needs CVT centroids")


@dataclass(frozen=True)
class GenerationStats:
    generation: int
    evaluations: int
    coverage: int
    best: float
    mean: float


@dataclass(frozen=True)
class InsertionEvent:
    evaluation: int
    key: int
    previous: Optional[float]
    performance: float


@dataclass
class EvolveResult:
    archive: object
    stats: list[GenerationStats]
    events: list[InsertionEvent]


def _run_batch(jobs, config: EvolutionConfig, run):
    """(performance, descriptor) of each (counter, genome, env, seeds) job,
    in job order."""
    kind = None if config.algorithm == "qed" else config.algorithm
    return run(
        [(config.task, env, genome, None, seeds, config.trial_duration, kind)
         for _, genome, env, seeds in jobs]
    )


def evolve(config: EvolutionConfig) -> EvolveResult:
    """Run the configured quality-diversity loop and return the archive."""
    config.validate()
    archive = make_archive(config.algorithm, config.centroids)
    events: list[InsertionEvent] = []
    stats: list[GenerationStats] = []
    counter = 0

    def enqueue(jobs, genome):
        """Queue `genome` as the next evaluation, in its own environment draw."""
        nonlocal counter
        env = NORMAL_ENV
        if config.algorithm == "qed":
            env = generate_environment(derive_rng(config.seed, "env", counter))
        jobs.append((counter, genome, env, trial_seeds(config.trials, config.seed, "trial", counter)))
        counter += 1

    def consume(jobs, results):
        for (res_counter, genome, env, _), (perf, descriptor) in zip(jobs, results):
            if config.algorithm == "qed":
                descriptor = env_index(env)
            key = archive.key_of(descriptor)
            incumbent = archive.cells.get(key)
            elite = Elite(genome=genome, performance=perf, descriptor=descriptor, env=env)
            if archive.try_insert(key, elite):
                events.append(
                    InsertionEvent(
                        evaluation=res_counter,
                        key=key,
                        previous=None if incumbent is None else incumbent.performance,
                        performance=perf,
                    )
                )

    def snapshot(generation: int):
        scores = [elite.performance for elite in archive.cells.values()] or [0.0]
        stats.append(
            GenerationStats(
                generation=generation,
                evaluations=counter,
                coverage=archive.coverage,
                best=max(scores),
                mean=float(np.mean(scores)),
            )
        )

    with evaluator(config.n_jobs) as run:
        # generation 0 is the random initial population
        for generation in range(config.generations + 1):
            jobs = []
            if generation == 0:
                for i in range(config.initial_population):
                    enqueue(jobs, random_genome(derive_rng(config.seed, "init", i)))
            else:
                keys = sorted(archive.cells)
                selector = derive_rng(config.seed, "select", generation)
                for _ in range(config.evals_per_generation):
                    parent = archive.cells[keys[int(selector.integers(0, len(keys)))]]
                    child = mutate(parent.genome, config.mutation, derive_rng(config.seed, "mutate", counter))
                    enqueue(jobs, child)
            consume(jobs, _run_batch(jobs, config, run))
            snapshot(generation)

    return EvolveResult(archive=archive, stats=stats, events=events)
