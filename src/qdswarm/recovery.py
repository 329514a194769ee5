"""Combined-fault sampling, archive-based fault recovery, and the derived
impact / recovered-performance / resilience metrics.

A combined fault assigns one fault type to every robot of the swarm. Recovery
re-evaluates every elite of an archive in the normal operating environment
with the fault applied, on trial seeds shared across elites, against the
fault-free scores and policy profiles the caller passes in. One fault-free
pass, `evaluate_archive`, yields both (the pipeline stores them as
`reevaluation.csv` and `reevaluation_profiles.npy`); the recovery records and
the policy-profile projection read them and simulate no elite fault free.
Scored with the same trials and seed, they make the all-NONE fault exactly
neutral. The resilience >= impact inequality holds without tolerance.
"""

from dataclasses import dataclass

import numpy as np

from .archive import Archive
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
) -> dict[int, tuple[float, np.ndarray]]:
    """{key: (performance, (64, 16) policy profile)} of every elite in the
    normal operating environment under the given fault (None = fault free).

    The same trial seeds are used for every elite and every fault under the
    same `seed`, which keeps comparisons paired. Results are independent of
    `n_jobs`.
    """
    keys = sorted(archive.cells)
    with evaluator(min(n_jobs, len(keys))) as run:
        return _run_elites(run, archive, keys, task, fault, trials, seed, duration, "spirit")


def _run_elites(run, archive, keys, task, fault, trials, seed, duration, kind=None):
    """{key: (performance, descriptor)} of the elites at `keys` in the normal
    operating environment over the shared trial seeds; `kind` names the
    descriptor, as in `tasks.evaluate_jobs`."""
    if not archive.cells:
        raise ValueError("archive is empty")
    seeds = trial_seeds(trials, seed, "recovery-trial")
    jobs = [(task, NORMAL_ENV, archive.cells[k].genome, fault, seeds, duration, kind) for k in keys]
    return dict(zip(keys, run(jobs)))


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


def project_archive(normal, centroids) -> ProjectedMap:
    """Bin every elite by the nearest centroid to its fault-free policy
    profile and keep the best performer per centroid; `normal` is
    `evaluate_archive`'s fault-free {key: (performance, profile)}.

    Diversity is the mean pairwise behaviour distance over the representative
    descriptors of the filled centroids (0 for fewer than two).
    """
    lookup = Archive.cvt(centroids)
    cells: dict[int, tuple] = {}
    for key in sorted(normal):
        perf, descriptor = normal[key]
        cid = lookup.key_of(descriptor)
        if cid not in cells or perf > cells[cid][1]:
            cells[cid] = (key, perf, descriptor)
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
    normal: dict[int, tuple[float, np.ndarray]],
    faults: list,
    trials: int = 10,
    seed: int = 0,
    duration: float = 400.0,
    fault_ids: list[str] | None = None,
    n_jobs: int = 1,
) -> list[RecoveryRecord]:
    """Run the full recovery analysis for a batch of combined faults.

    `normal` is every elite's fault-free (score, policy profile), as
    `evaluate_archive` returns them; only the fault passes are simulated. The
    all-NONE fault is exactly neutral when `normal` was scored with the same
    `trials` and `seed`, and neutral only up to the trial sample otherwise.
    Each record's behavioural distance compares the recovery and normal-best
    solutions by their profiles. Recovered performance is also reported
    normalised by the empirical maximum performance observed across this batch.
    """
    task = str(getattr(task, "value", task))
    best_key, best_normal = _argbest({key: perf for key, (perf, _) in normal.items()})
    if best_normal == 0:
        raise ValueError(
            f"task {task}: every elite scores 0 fault free, so impact and "
            "resilience (changes relative to the normal-best score) are undefined"
        )
    keys = sorted(archive.cells)
    with evaluator(min(n_jobs, len(keys))) as run:
        outcomes = []  # (normal-best elite's faulty score, recovery key, its score)
        for fault in faults:
            faulty = _run_elites(run, archive, keys, task, fault, trials, seed, duration)
            rec_key, rec_perf = _argbest({key: perf for key, (perf, _) in faulty.items()})
            outcomes.append((faulty[best_key][0], rec_key, rec_perf))
    empirical_max = max([best_normal, *(rec_perf for _, _, rec_perf in outcomes)])
    return [
        RecoveryRecord(
            fault_id=fault_ids[idx] if fault_ids else str(idx),
            task=task,
            faults=tuple(FaultType(int(f)).name for f in fault),
            impact=proportional_change(transferred, best_normal),
            recovered=rec_perf,
            recovered_norm=rec_perf / empirical_max if empirical_max > 0 else 0.0,
            resilience=proportional_change(rec_perf, best_normal),
            distance=spirit_distance(normal[rec_key][1], normal[best_key][1]),
            best_key=rec_key,
        )
        for idx, (fault, (transferred, rec_key, rec_perf)) in enumerate(zip(faults, outcomes))
    ]
