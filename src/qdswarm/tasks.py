"""The five swarm task fitness functions, computed from trial logs.

All fitnesses are means over control cycles (and robots or robot pairs) of
per-cycle rewards, normalised so that values lie in [0, 1]. Distances are
normalised by the arena diagonal M (aggregation) or M/2 (dispersion);
patrolling uses a 10 x 10 cell grid whose values decay linearly at 0.005/s
between visits.
"""

from concurrent.futures import ProcessPoolExecutor
from contextlib import contextmanager
from enum import Enum

import numpy as np

from .descriptors import DESCRIPTORS
from .sim import (
    CONTROL_DT,
    TRIAL_BATCH_ROBOT_CYCLES,
    TrialLog,
    pair_distances,
    run_trials,
)


class TaskKind(str, Enum):
    AGGREGATION = "aggregation"
    DISPERSION = "dispersion"
    FLOCKING = "flocking"
    PATROLLING = "patrolling"
    BORDER_PATROLLING = "border-patrolling"


PATROL_GRID_SIZE = 10
PATROL_DECAY_RATE = 0.005  # per second
PATROL_DECAY_PER_CYCLE = PATROL_DECAY_RATE * CONTROL_DT
FLOCKING_RANGE = 0.5  # metres
FLOCKING_ANGLE = np.pi / 2.0


def fitness_aggregation(log: TrialLog) -> float:
    """Mean of 1 - (distance to swarm centroid) / M over robots and cycles."""
    xy = log.poses[:, :, :2]
    centroid = xy.mean(axis=1, keepdims=True)
    distances = np.hypot(*(xy - centroid).transpose(2, 0, 1))
    return float(np.mean(1.0 - distances / log.env.diagonal))


def fitness_dispersion(log: TrialLog) -> float:
    """Mean nearest-neighbour distance normalised by M/2, clamped to [0, 1]."""
    if log.n_robots < 2:
        raise ValueError("dispersion needs at least 2 robots")
    nearest = pair_distances(log.poses).min(axis=2)
    raw = float(np.mean(nearest / (log.env.diagonal / 2.0)))
    return min(1.0, max(0.0, raw))


def fitness_flocking(log: TrialLog) -> float:
    """Reward pairs within 0.5 m for fast, same-direction movement.

    A pair (i, j) with heading difference below 90 degrees earns
    (1 - dtheta/90deg) * max(0, Vi * Vj), with V the signed linear speed as a
    fraction of the maximum; the sum is normalised by T * N(N-1)/2.
    """
    n = log.n_robots
    if n < 2:
        raise ValueError("flocking needs at least 2 robots")
    dist = pair_distances(log.poses)
    headings = log.poses[:, :, 2]
    dtheta = np.abs(
        np.remainder(headings[:, :, None] - headings[:, None, :] + np.pi, 2 * np.pi) - np.pi
    )
    v = log.linear_velocity / log.env.max_linear_speed
    reward = (1.0 - np.minimum(1.0, dtheta / FLOCKING_ANGLE)) * np.maximum(
        0.0, v[:, :, None] * v[:, None, :]
    )
    in_range = dist < FLOCKING_RANGE
    # A masked sum over the full array: summing over `pair_indices(n)` instead
    # reduces in another order and changes the last bits of the fitness.
    upper = np.triu(np.ones((n, n), dtype=bool), k=1)
    total = float((reward * in_range * upper).sum())
    return total / (log.n_cycles * n * (n - 1) / 2.0)


def patrol_cell_trace(log: TrialLog) -> np.ndarray:
    """(T, 10, 10) patrol grid values: 1 on visit, linear decay in between.

    Cells start at 0; a cell is visited when at least one robot centre lies
    inside it. Both patrolling fitnesses read from this shared trace.
    """
    cell = log.env.arena_side / PATROL_GRID_SIZE
    ij = np.clip((log.poses[:, :, :2] // cell).astype(int), 0, PATROL_GRID_SIZE - 1)
    t = np.arange(log.n_cycles)
    visits = np.full((log.n_cycles, PATROL_GRID_SIZE, PATROL_GRID_SIZE), -1, dtype=int)
    visits[t[:, None], ij[:, :, 0], ij[:, :, 1]] = t[:, None]
    last_visit = np.maximum.accumulate(visits, axis=0)
    age = t[:, None, None] - last_visit
    return np.where(last_visit >= 0, np.maximum(0.0, 1.0 - PATROL_DECAY_PER_CYCLE * age), 0.0)


BORDER_MASK = np.ones((PATROL_GRID_SIZE, PATROL_GRID_SIZE), dtype=bool)
BORDER_MASK[1:-1, 1:-1] = False


def fitness_patrolling(log: TrialLog) -> float:
    """Mean patrol grid value over all 100 cells and all cycles."""
    return float(patrol_cell_trace(log).mean())


def fitness_border_patrolling(log: TrialLog) -> float:
    """Mean patrol grid value over the 36 outermost cells and all cycles."""
    return float(patrol_cell_trace(log)[:, BORDER_MASK].mean())


_FITNESS = {
    TaskKind.AGGREGATION: fitness_aggregation,
    TaskKind.DISPERSION: fitness_dispersion,
    TaskKind.FLOCKING: fitness_flocking,
    TaskKind.PATROLLING: fitness_patrolling,
    TaskKind.BORDER_PATROLLING: fitness_border_patrolling,
}


def fitness(task, log: TrialLog) -> float:
    return _FITNESS[TaskKind(task)](log)


def _group_jobs(jobs) -> dict:
    """Job indices by duration, in order of first appearance."""
    groups = {}
    for index, job in enumerate(jobs):
        groups.setdefault(job[5], []).append(index)
    return groups


def _cut_batches(jobs, members, n_cycles) -> list:
    """The (job index, seed) trials of the jobs `members` cut into batches of
    at most TRIAL_BATCH_ROBOT_CYCLES robot-cycles, each trial charged its own
    swarm size times `n_cycles` (a trial over the budget runs alone).

    Trials go in order of swarm size, then of job, so a job's trials stay
    in seed order and the batches are never more than those of each swarm
    size cut on its own: a size's trials fill whole batches after topping
    up the last batch of the sizes before it.
    """
    batches, load = [[]], 0
    for index in sorted(members, key=lambda index: jobs[index][1].n_robots):
        cost = jobs[index][1].n_robots * n_cycles
        for seed in jobs[index][4]:
            if batches[-1] and load + cost > TRIAL_BATCH_ROBOT_CYCLES:
                batches.append([])
                load = 0
            batches[-1].append((index, seed))
            load += cost
    return batches


def evaluate_jobs(jobs):
    """Score genomes: each job is (task, env, genome, faults, seeds, duration, kind).

    Returns one (mean fitness, descriptor or None) per job, in job order;
    the descriptor is `describe(kind, logs)` of the job's trial logs. Jobs that
    share a duration run their trials together through `run_trials`, each
    trial in its job's environment whatever its swarm size, in batches of at
    most TRIAL_BATCH_ROBOT_CYCLES robot-cycles counted trial by trial (see
    `_cut_batches`). A trial's log does not depend on its batch, so a job's
    result does not depend on the other jobs. Each trial is reduced to its
    fitness and descriptor summary inside the batch that ran it, so a
    batch's logs are the only logs alive.
    """
    for job in jobs:
        if not len(job[4]):
            raise ValueError("at least one trial seed is required")
    results = [None] * len(jobs)
    for duration, members in _group_jobs(jobs).items():
        n_cycles = max(1, int(round(duration / CONTROL_DT)))
        trials = {index: [] for index in members}  # (fitness, summary) pairs so far
        for batch in _cut_batches(jobs, members, n_cycles):
            logs = run_trials(
                [jobs[index][1] for index, _ in batch],
                [jobs[index][2] for index, _ in batch],
                [jobs[index][3] for index, _ in batch],
                [seed for _, seed in batch],
                duration,
            )
            for (index, _), log in zip(batch, logs):
                task, _, _, _, seeds, _, kind = jobs[index]
                summary = None if kind is None else DESCRIPTORS[kind][0](log)
                trials[index].append((fitness(task, log), summary))
                if len(trials[index]) == len(seeds):
                    fits, summaries = zip(*trials.pop(index))
                    descriptor = None if kind is None else DESCRIPTORS[kind][1](summaries)
                    results[index] = (float(np.mean(fits)), descriptor)
            del logs, log
    return results


@contextmanager
def evaluator(n_jobs: int):
    """Yield `run(jobs)`, the `evaluate_jobs` results in job order.

    With one worker the jobs run in this process; otherwise every `run`
    shares one pool of `n_jobs` worker processes, at most the machine's CPU
    count (`os.cpu_count()`). The jobs that share a duration, whatever their
    environments and swarm sizes, are cut into at most that many contiguous
    slices, so a worker batches their trials, and `pool.map` hands the
    slices out one at a time as workers come free.
    Results do not depend on `n_jobs`.
    """
    import os

    n_jobs = min(n_jobs, os.cpu_count() or 1)
    if n_jobs <= 1:
        yield evaluate_jobs
        return

    def run(jobs):
        slices = []
        for members in _group_jobs(jobs).values():
            parts = min(n_jobs, len(members))
            bounds = [len(members) * p // parts for p in range(parts + 1)]
            slices += [members[lo:hi] for lo, hi in zip(bounds, bounds[1:])]
        results = [None] * len(jobs)
        scored = pool.map(evaluate_jobs, [[jobs[i] for i in members] for members in slices])
        for members, chunk in zip(slices, scored):
            for index, result in zip(members, chunk):
                results[index] = result
        return results

    with ProcessPoolExecutor(max_workers=n_jobs) as pool:
        yield run
