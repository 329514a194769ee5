"""Combined-fault sampling, archive-based fault recovery, and the derived
impact / recovered-performance / resilience metrics.

A combined fault assigns one fault type to every robot of the swarm. Recovery
re-evaluates every elite of an archive in the normal operating environment
with the fault applied, using trial seeds shared across elites and with the
fault-free re-evaluation, so the all-NONE fault reproduces the normal scores
exactly and the resilience >= impact inequality holds without tolerance.
"""

from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from functools import partial

import numpy as np

from .archive import nearest_centroid
from .descriptors import compute_spirit
from .environment import NORMAL_ENV
from .seeding import trial_seeds
from .sim import FaultType, run_trial
from .tasks import mean_fitness, performance

N_FAULT_TYPES = len(FaultType)


def sample_combined_fault(rng: np.random.Generator, n_robots: int) -> np.ndarray:
    """Each robot's fault i.i.d. uniform over the 8 fault types."""
    if n_robots < 1:
        raise ValueError("need at least one robot")
    draws = rng.integers(0, N_FAULT_TYPES, size=n_robots)
    return np.array([FaultType(int(d)) for d in draws], dtype=object)


def evaluate_archive(
    archive,
    task,
    fault=None,
    trials: int = 10,
    seed: int = 0,
    duration: float = 400.0,
    env=NORMAL_ENV,
    n_jobs: int = 1,
) -> dict[int, float]:
    """Re-score every elite under the given fault (None = fault free).

    The same trial seeds are used for every elite and every fault under the
    same `seed`, which keeps comparisons paired. Results are independent of
    `n_jobs`.
    """
    if not archive.cells:
        raise ValueError("archive is empty")
    score = partial(
        performance,
        task,
        env,
        faults=fault,
        seeds=trial_seeds(trials, seed, "recovery-trial"),
        duration=duration,
    )
    keys = sorted(archive.cells)
    genomes = [archive.cells[k].genome for k in keys]
    if n_jobs > 1 and len(keys) > 1:
        with ProcessPoolExecutor(max_workers=n_jobs) as pool:
            chunk = max(1, len(genomes) // (8 * n_jobs))
            values = list(pool.map(score, genomes, chunksize=chunk))
    else:
        values = [score(genome) for genome in genomes]
    return dict(zip(keys, values))


def _argbest(scores: dict[int, float]) -> tuple[int, float]:
    """Highest score; ties broken by the lowest cell key."""
    best_key = None
    best = -np.inf
    for key in sorted(scores):
        if scores[key] > best:
            best = scores[key]
            best_key = key
    return best_key, best


def recover(archive, task, fault, trials: int = 10, seed: int = 0, duration: float = 400.0):
    """Search the archive for the best controller under `fault`.

    Returns (cell key, genome, mean performance over the shared trials).
    """
    scores = evaluate_archive(archive, task, fault, trials, seed, duration)
    key, best = _argbest(scores)
    return key, archive.cells[key].genome, best


def proportional_change(after: float, before: float) -> float:
    """(after - before) / before; undefined for a zero baseline."""
    if before == 0:
        raise ZeroDivisionError("proportional change undefined for zero baseline")
    return (after - before) / before


def impact(
    archive,
    task,
    fault,
    trials: int = 10,
    seed: int = 0,
    duration: float = 400.0,
    normal_scores: dict | None = None,
) -> float:
    """Proportional performance change of the normal-best elite under `fault`."""
    if normal_scores is None:
        normal_scores = evaluate_archive(archive, task, None, trials, seed, duration)
    best_key, best_normal = _argbest(normal_scores)
    seeds = trial_seeds(trials, seed, "recovery-trial")
    faulty = performance(task, NORMAL_ENV, archive.cells[best_key].genome, fault, seeds, duration)
    return proportional_change(faulty, best_normal)


def resilience(
    archive,
    task,
    fault,
    trials: int = 10,
    seed: int = 0,
    duration: float = 400.0,
    normal_scores: dict | None = None,
    faulty_scores: dict | None = None,
) -> float:
    """Proportional change between the archive's faulty-environment best and
    its normal-environment best."""
    if normal_scores is None:
        normal_scores = evaluate_archive(archive, task, None, trials, seed, duration)
    if faulty_scores is None:
        faulty_scores = evaluate_archive(archive, task, fault, trials, seed, duration)
    _, best_normal = _argbest(normal_scores)
    _, best_faulty = _argbest(faulty_scores)
    return proportional_change(best_faulty, best_normal)


# ---------------------------------------------------------------------------
# Behaviour space distances and projection


def spirit_distance(p1, p2) -> float:
    """Average total variation distance between two (64, 16) policy profiles."""
    a = np.asarray(p1, dtype=float)
    b = np.asarray(p2, dtype=float)
    if a.shape != b.shape:
        raise ValueError("descriptor shapes differ")
    return float(np.abs(a - b).sum() / (2.0 * 64.0))


@dataclass
class ProjectedMap:
    """Archive projected into the common 1024-d policy-profile space."""

    cells: dict  # centroid id -> (source key, performance, descriptor)
    diversity: float

    @property
    def coverage(self) -> int:
        return len(self.cells)


def project_archive(
    archive,
    centroids,
    task,
    env=NORMAL_ENV,
    trials: int = 10,
    seed: int = 0,
    duration: float = 400.0,
) -> ProjectedMap:
    """Replay every elite in `env`, bin by nearest policy-profile centroid,
    and keep the best performer per centroid.

    Diversity is the mean pairwise behaviour distance over the representative
    descriptors of the filled centroids (0 for fewer than two).
    """
    if not archive.cells:
        raise ValueError("archive is empty")
    seeds = trial_seeds(trials, seed, "recovery-trial")
    cells: dict[int, tuple] = {}
    for key in sorted(archive.cells):
        genome = archive.cells[key].genome
        logs = [run_trial(env, genome, faults=None, seed=s, duration=duration) for s in seeds]
        perf = mean_fitness(task, logs)
        descriptor = compute_spirit(logs)
        cid = nearest_centroid(descriptor.ravel(), centroids)
        if cid not in cells or perf > cells[cid][1]:
            cells[cid] = (key, perf, descriptor)
    reps = [cells[cid][2] for cid in sorted(cells)]
    if len(reps) < 2:
        diversity = 0.0
    else:
        total = 0.0
        pairs = 0
        for i in range(len(reps)):
            for j in range(i + 1, len(reps)):
                total += spirit_distance(reps[i], reps[j])
                pairs += 1
        diversity = total / pairs
    return ProjectedMap(cells=cells, diversity=diversity)


# ---------------------------------------------------------------------------
# Recovery records


@dataclass
class RecoveryRecord:
    """Outcome of one combined fault against one archive."""

    fault_id: str
    task: str
    faults: tuple[str, ...]
    impact: float
    recovered: float
    recovered_norm: float
    resilience: float
    distance: float
    best_key: int


def fault_recovery_records(
    archive,
    task,
    faults: list,
    trials: int = 10,
    seed: int = 0,
    duration: float = 400.0,
    fault_ids: list[str] | None = None,
    n_jobs: int = 1,
) -> list[RecoveryRecord]:
    """Run the full recovery analysis for a batch of combined faults.

    The behavioural distance of each record compares the recovery solution
    with the normal-best solution, both replayed fault free in the normal
    operating environment. Recovered performance is also reported normalised
    by the empirical maximum performance observed across this batch.
    """
    task = str(getattr(task, "value", task))
    normal_scores = evaluate_archive(archive, task, None, trials, seed, duration, n_jobs=n_jobs)
    best_key, best_normal = _argbest(normal_scores)
    if best_normal == 0:
        raise ValueError(
            f"task {task}: every elite scores 0 fault free, so impact and "
            "resilience (changes relative to the normal-best score) are undefined"
        )
    seeds = trial_seeds(trials, seed, "recovery-trial")

    descriptor_cache: dict[int, np.ndarray] = {}

    def replay_descriptor(key: int) -> np.ndarray:
        if key not in descriptor_cache:
            genome = archive.cells[key].genome
            logs = [
                run_trial(NORMAL_ENV, genome, faults=None, seed=s, duration=duration)
                for s in seeds
            ]
            descriptor_cache[key] = compute_spirit(logs)
        return descriptor_cache[key]

    normal_descriptor = replay_descriptor(best_key)
    empirical_max = max(normal_scores.values())

    raw = []
    for idx, fault in enumerate(faults):
        faulty_scores = evaluate_archive(archive, task, fault, trials, seed, duration, n_jobs=n_jobs)
        rec_key, rec_perf = _argbest(faulty_scores)
        rec_impact = proportional_change(faulty_scores[best_key], best_normal)
        rec_resilience = proportional_change(rec_perf, best_normal)
        distance = spirit_distance(replay_descriptor(rec_key), normal_descriptor)
        empirical_max = max(empirical_max, rec_perf)
        fid = fault_ids[idx] if fault_ids else str(idx)
        raw.append((fid, fault, rec_impact, rec_perf, rec_resilience, distance, rec_key))

    records = []
    for fid, fault, rec_impact, rec_perf, rec_resilience, distance, rec_key in raw:
        records.append(
            RecoveryRecord(
                fault_id=fid,
                task=task,
                faults=tuple(FaultType(int(f)).name for f in fault),
                impact=rec_impact,
                recovered=rec_perf,
                recovered_norm=rec_perf / empirical_max if empirical_max > 0 else 0.0,
                resilience=rec_resilience,
                distance=distance,
                best_key=rec_key,
            )
        )
    return records
