"""Archive evolution loops: MAP-Elites over behaviour descriptors, and the
environment-diversity variant that evaluates each candidate in a freshly
drawn environment and bins it by that environment's index.

Every evaluation gets its own RNG streams derived from (master seed, label,
evaluation counter), and archive insertions happen in counter order, so runs
are bit-reproducible regardless of evaluation parallelism.
"""

import logging
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .archive import Archive, Elite, archive_best, archive_mean
from .descriptors import compute_hbd, compute_sdbc, compute_spirit, env_descriptor
from .environment import NORMAL_ENV, generate_environment
from .genome import Genome, MutationParams, mutate, random_genome
from .seeding import derive_rng, trial_seeds
from .sim import PlacementError, run_trial
from .tasks import TaskKind, mean_fitness

log = logging.getLogger(__name__)

ALGORITHMS = ("hbd", "sdbc", "spirit", "qed")
DESCRIPTOR_DIMS = {"hbd": 3, "sdbc": 10, "spirit": 1024, "qed": 6}


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
        if self.algorithm in ("sdbc", "spirit") and self.centroids is None:
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


def make_archive(config: EvolutionConfig):
    if config.algorithm == "qed":
        return Archive.qed()
    if config.algorithm == "hbd":
        return Archive.hbd()
    return Archive.cvt(config.centroids)


def _descriptor_from_logs(algorithm: str, logs):
    if algorithm == "hbd":
        return compute_hbd(logs)
    if algorithm == "sdbc":
        return compute_sdbc(logs)
    if algorithm == "spirit":
        return compute_spirit(logs)
    return None


def _evaluate_job(args):
    counter, genome, env, task, seeds, duration, algorithm = args
    try:
        logs = [run_trial(env, genome, faults=None, seed=s, duration=duration) for s in seeds]
    except PlacementError as exc:
        return counter, 0.0, None, str(exc)
    return counter, mean_fitness(task, logs), _descriptor_from_logs(algorithm, logs), None


def _run_batch(jobs, config: EvolutionConfig, evaluate, executor):
    if evaluate is not None:
        results = []
        for counter, genome, env, seeds in jobs:
            perf, logs = evaluate(genome, env, config.task, seeds, config.trial_duration)
            if config.algorithm == "qed":
                descriptor = None
            else:
                if logs is None:
                    raise ValueError("custom evaluator must return logs for behaviour descriptors")
                descriptor = _descriptor_from_logs(config.algorithm, logs)
            results.append((counter, float(perf), descriptor, None))
        return results
    args = [
        (counter, genome, env, config.task, seeds, config.trial_duration, config.algorithm)
        for counter, genome, env, seeds in jobs
    ]
    if executor is None:
        return [_evaluate_job(a) for a in args]
    return list(executor.map(_evaluate_job, args, chunksize=max(1, len(args) // 64)))


def evolve(config: EvolutionConfig, evaluate: Optional[Callable] = None) -> EvolveResult:
    """Run the configured quality-diversity loop and return the archive.

    `evaluate(genome, env, task, seeds, duration) -> (performance, logs)` can
    replace the built-in simulation-backed evaluator (logs may be None for
    the environment-descriptor algorithm, which never inspects behaviour).
    """
    config.validate()
    archive = make_archive(config)
    genomes_by_counter = {}
    envs_by_counter = {}
    events: list[InsertionEvent] = []
    stats: list[GenerationStats] = []
    counter = 0

    executor = None
    if config.n_jobs > 1 and evaluate is None:
        executor = ProcessPoolExecutor(max_workers=config.n_jobs)

    def enqueue(jobs, genome):
        """Queue `genome` as the next evaluation, in its own environment draw."""
        nonlocal counter
        env = NORMAL_ENV
        if config.algorithm == "qed":
            env = generate_environment(derive_rng(config.seed, "env", counter))
        genomes_by_counter[counter] = genome
        envs_by_counter[counter] = env
        jobs.append((counter, genome, env, trial_seeds(config.trials, config.seed, "trial", counter)))
        counter += 1

    def consume(results):
        for res_counter, perf, descriptor, error in sorted(results):
            env = envs_by_counter.pop(res_counter)
            genome = genomes_by_counter.pop(res_counter)
            if config.algorithm == "qed":
                descriptor = env_descriptor(env)
            if error is not None:
                log.warning("evaluation %d failed placement: %s", res_counter, error)
                if descriptor is None:
                    continue
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
        best = archive_best(archive).performance if archive.cells else 0.0
        mean = archive_mean(archive) if archive.cells else 0.0
        stats.append(
            GenerationStats(
                generation=generation,
                evaluations=counter,
                coverage=archive.coverage,
                best=best,
                mean=mean,
            )
        )

    try:
        jobs = []
        for i in range(config.initial_population):
            enqueue(jobs, random_genome(derive_rng(config.seed, "init", i)))
        consume(_run_batch(jobs, config, evaluate, executor))
        snapshot(0)

        for generation in range(1, config.generations + 1):
            keys = sorted(archive.cells)
            if not keys:
                raise RuntimeError("archive is empty after initialisation")
            selector = derive_rng(config.seed, "select", generation)
            jobs = []
            for _ in range(config.evals_per_generation):
                parent = archive.cells[keys[int(selector.integers(0, len(keys)))]]
                child = mutate(parent.genome, config.mutation, derive_rng(config.seed, "mutate", counter))
                enqueue(jobs, child)
            consume(_run_batch(jobs, config, evaluate, executor))
            snapshot(generation)
    finally:
        if executor is not None:
            executor.shutdown()

    return EvolveResult(archive=archive, stats=stats, events=events)
