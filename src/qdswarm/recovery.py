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
from .descriptors import SPIRIT_STATES
from .environment import NORMAL_ENV
from .seeding import trial_seeds
from .sim import FaultType
from .tasks import evaluator

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
    n_jobs: int = 1,
) -> dict[int, float]:
    """Re-score every elite in the normal operating environment under the
    given fault (None = fault free).

    The same trial seeds are used for every elite and every fault under the
    same `seed`, which keeps comparisons paired. Results are independent of
    `n_jobs`.
    """
    with evaluator(min(n_jobs, len(archive.cells))) as run:
        scores, _ = _run_elites(run, archive, task, fault, trials, seed, duration)
    return scores


def _run_elites(run, archive, task, fault, trials, seed, duration, kind=None):
    """({key: performance}, {key: descriptor}) of every elite in the normal
    operating environment over the shared trial seeds; `kind` names the
    descriptor, as in `tasks.evaluate_jobs`."""
    if not archive.cells:
        raise ValueError("archive is empty")
    keys = sorted(archive.cells)
    seeds = trial_seeds(trials, seed, "recovery-trial")
    results = run(
        [(task, NORMAL_ENV, archive.cells[k].genome, fault, seeds, duration, kind) for k in keys]
    )
    return (
        {key: perf for key, (perf, _) in zip(keys, results)},
        {key: descriptor for key, (_, descriptor) in zip(keys, results)},
    )


def _argbest(scores: dict[int, float]) -> tuple[int, float]:
    """Highest score; ties broken by the lowest cell key."""
    best_key = max(sorted(scores), key=scores.__getitem__)
    return best_key, scores[best_key]


def proportional_change(after: float, before: float) -> float:
    """(after - before) / before; undefined for a zero baseline."""
    if before == 0:
        raise ZeroDivisionError("proportional change undefined for zero baseline")
    return (after - before) / before


# ---------------------------------------------------------------------------
# Behaviour space distances and projection


def spirit_distance(p1, p2) -> float:
    """Average total variation distance between two (64, 16) policy profiles."""
    a = np.asarray(p1, dtype=float)
    b = np.asarray(p2, dtype=float)
    if a.shape != b.shape:
        raise ValueError("descriptor shapes differ")
    return float(np.abs(a - b).sum() / (2.0 * SPIRIT_STATES))


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
    trials: int = 10,
    seed: int = 0,
    duration: float = 400.0,
) -> ProjectedMap:
    """Replay every elite in the normal operating environment, bin by nearest
    policy-profile centroid, and keep the best performer per centroid.

    Diversity is the mean pairwise behaviour distance over the representative
    descriptors of the filled centroids (0 for fewer than two).
    """
    with evaluator(1) as run:
        scores, descriptors = _run_elites(
            run, archive, task, None, trials, seed, duration, "spirit"
        )
    cells: dict[int, tuple] = {}
    for key, perf in scores.items():
        cid = nearest_centroid(descriptors[key].ravel(), centroids)
        if cid not in cells or perf > cells[cid][1]:
            cells[cid] = (key, perf, descriptors[key])
    # Mean pairwise spirit_distance in O(n log n): per dimension, the k-th
    # smallest of n values is the larger one of k pairs and the smaller one
    # of n - 1 - k, so its pairwise |a - b| sum to sum_k (2k - n + 1) x_(k).
    ranked = np.sort([cells[cid][2].ravel() for cid in cells], axis=0)
    n = len(ranked)
    total = float(((2.0 * np.arange(n) - n + 1.0) @ ranked).sum()) / (2.0 * SPIRIT_STATES)
    diversity = total / (n * (n - 1) / 2.0) if n >= 2 else 0.0
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
            run, archive, task, None, trials, seed, duration, "spirit"
        )
        best_key, best_normal = _argbest(normal_scores)
        if best_normal == 0:
            raise ValueError(
                f"task {task}: every elite scores 0 fault free, so impact and "
                "resilience (changes relative to the normal-best score) are undefined"
            )
        empirical_max = max(normal_scores.values())

        records = []
        for idx, fault in enumerate(faults):
            faulty_scores, _ = _run_elites(run, archive, task, fault, trials, seed, duration)
            rec_key, rec_perf = _argbest(faulty_scores)
            empirical_max = max(empirical_max, rec_perf)
            records.append(
                RecoveryRecord(
                    fault_id=fault_ids[idx] if fault_ids else str(idx),
                    task=task,
                    faults=tuple(FaultType(int(f)).name for f in fault),
                    impact=proportional_change(faulty_scores[best_key], best_normal),
                    recovered=rec_perf,
                    recovered_norm=rec_perf,  # normalised once every fault has run
                    resilience=proportional_change(rec_perf, best_normal),
                    distance=spirit_distance(descriptors[rec_key], descriptors[best_key]),
                    best_key=rec_key,
                )
            )
    for record in records:
        record.recovered_norm = record.recovered / empirical_max if empirical_max > 0 else 0.0
    return records
