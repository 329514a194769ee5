"""Combined-fault sampling, archive-based fault recovery, and the derived
impact / recovered-performance / resilience metrics.

A combined fault assigns one fault type to every robot of the swarm. Recovery
re-evaluates every elite of an archive in the normal operating environment
with the fault applied, using trial seeds shared across elites and with the
fault-free re-evaluation, so the all-NONE fault reproduces the normal scores
exactly and the resilience >= impact inequality holds without tolerance.
"""

from dataclasses import dataclass

import numpy as np

from .archive import nearest_centroid
from .environment import NORMAL_ENV
from .seeding import trial_seeds
from .sim import FaultType, PlacementError
from .tasks import evaluator, performance

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
    with evaluator(min(n_jobs, len(archive.cells))) as run:
        scores, _ = _run_elites(run, archive, task, env, fault, trials, seed, duration)
    return scores


def _run_elites(run, archive, task, env, fault, trials, seed, duration, kind=None):
    """({key: performance}, {key: descriptor}) of every elite over the shared
    trial seeds; `kind` names the descriptor, as in `tasks.evaluate_jobs`."""
    if not archive.cells:
        raise ValueError("archive is empty")
    keys = sorted(archive.cells)
    seeds = trial_seeds(trials, seed, "recovery-trial")
    results = run(
        [(task, env, archive.cells[k].genome, fault, seeds, duration, kind) for k in keys]
    )
    for _, _, error in results:
        if error is not None:
            raise PlacementError(error)
    return (
        {key: perf for key, (perf, _, _) in zip(keys, results)},
        {key: descriptor for key, (_, descriptor, _) in zip(keys, results)},
    )


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
    with evaluator(1) as run:
        scores, descriptors = _run_elites(
            run, archive, task, env, None, trials, seed, duration, "spirit"
        )
    cells: dict[int, tuple] = {}
    for key, perf in scores.items():
        cid = nearest_centroid(descriptors[key].ravel(), centroids)
        if cid not in cells or perf > cells[cid][1]:
            cells[cid] = (key, perf, descriptors[key])
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
    with the normal-best solution by the policy profiles of the fault-free
    pass in the normal operating environment. Recovered performance is also reported normalised
    by the empirical maximum performance observed across this batch.
    """
    task = str(getattr(task, "value", task))
    with evaluator(min(n_jobs, len(archive.cells))) as run:
        normal_scores, descriptors = _run_elites(
            run, archive, task, NORMAL_ENV, None, trials, seed, duration, "spirit"
        )
        best_key, best_normal = _argbest(normal_scores)
        if best_normal == 0:
            raise ValueError(
                f"task {task}: every elite scores 0 fault free, so impact and "
                "resilience (changes relative to the normal-best score) are undefined"
            )
        empirical_max = max(normal_scores.values())

        raw = []
        for idx, fault in enumerate(faults):
            faulty_scores, _ = _run_elites(
                run, archive, task, NORMAL_ENV, fault, trials, seed, duration
            )
            rec_key, rec_perf = _argbest(faulty_scores)
            rec_impact = proportional_change(faulty_scores[best_key], best_normal)
            rec_resilience = proportional_change(rec_perf, best_normal)
            distance = spirit_distance(descriptors[rec_key], descriptors[best_key])
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
