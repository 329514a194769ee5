"""Behaviour and environment characterisations of evaluated controllers.

Four descriptor families are provided: a 3-d hand-coded descriptor over the
swarm's visitation pattern, a 10-d descriptor of summary statistics of five
per-cycle swarm features, a 1024-d state-action policy profile (64
conditional distributions over 16 wheel-command actions), and the 6-d
environment index used by the environment-diversity archive
(`environment.env_index`).
"""

import numpy as np

from .sim import MAX_ANGULAR_SPEED, TrialLog, pair_distances, pair_indices

HBD_CELL_SIZE = 0.11  # robot-sized visitation cells
GEOMETRIC_MEDIAN_TOL = 1e-9  # Weiszfeld stops once a step is shorter than this
GEOMETRIC_MEDIAN_MAX_ITER = 1000

SPIRIT_STATES = 64
SPIRIT_ACTIONS = 16
# Proximity rays are grouped front-left / front-centre / front-right / rear;
# range-and-bearing cones are split into a front and a rear half (cone
# indices, front = bearings in [-67.5, 112.5) degrees).
PROX_GROUPS = ((0, 1), (2,), (3, 4), (5, 6))
FRONT_RAB_CONES = (7, 0, 1, 2)
REAR_RAB_CONES = (3, 4, 5, 6)


# ---------------------------------------------------------------------------
# Hand-coded descriptor


def hbd_features(log: TrialLog) -> np.ndarray:
    """(3,) hand-coded features of one trial: visitation uniformity, mean
    distance to the arena centre (normalised by M/2), and fraction of cells
    visited."""
    side = log.env.arena_side
    n_side = int(np.ceil(side / HBD_CELL_SIZE))
    total_cells = n_side * n_side
    xy = log.poses[:, :, :2].reshape(-1, 2)
    ij = np.clip((xy // HBD_CELL_SIZE).astype(int), 0, n_side - 1)
    counts = np.zeros((n_side, n_side))
    np.add.at(counts, (ij[:, 0], ij[:, 1]), 1.0)
    p = counts[counts > 0] / counts.sum()
    entropy = float(-(p * np.log(p)).sum() / np.log(total_cells))
    center_dist = np.hypot(xy[:, 0] - side / 2.0, xy[:, 1] - side / 2.0).mean()
    return np.array([entropy, center_dist / (log.env.diagonal / 2.0), (counts > 0).sum() / total_cells])


# ---------------------------------------------------------------------------
# Systematically derived descriptor


def geometric_median(points) -> np.ndarray:
    """Weiszfeld iteration for the point minimising summed Euclidean distance.

    An exact hit on an input point is nudged off before continuing, keeping
    the update well defined.
    """
    pts = np.asarray(points, dtype=float)
    if pts.ndim != 2:
        raise ValueError("points must be a 2-d array")
    if len(pts) == 1:
        return pts[0].copy()
    x = pts.mean(axis=0)
    for _ in range(GEOMETRIC_MEDIAN_MAX_ITER):
        d = np.linalg.norm(pts - x, axis=1)
        if (d < 1e-15).any():
            x = x + 1e-12
            d = np.linalg.norm(pts - x, axis=1)
            if (d < 1e-15).any():
                return x
        w = 1.0 / d
        new = (pts * w[:, None]).sum(axis=0) / w.sum()
        if np.linalg.norm(new - x) < GEOMETRIC_MEDIAN_TOL:
            return new
        x = new
    return x


def _per_cycle_features(log: TrialLog) -> np.ndarray:
    """(T, 5) per-cycle swarm features, each normalised to [0, 1]."""
    if log.n_robots < 2:
        raise ValueError("pair features need at least 2 robots")
    side = log.env.arena_side
    m = log.env.diagonal
    xy = log.poses[:, :, :2]
    v = np.abs(log.linear_velocity).mean(axis=1) / log.env.max_linear_speed
    w = np.abs(log.angular_velocity).mean(axis=1) / MAX_ANGULAR_SPEED
    wall = np.minimum(
        np.minimum(xy[..., 0], side - xy[..., 0]),
        np.minimum(xy[..., 1], side - xy[..., 1]),
    ).mean(axis=1) / m
    dist = pair_distances(log.poses)
    i, j = pair_indices(log.n_robots)
    pair = dist[:, i, j].mean(axis=1) / m
    nn = dist.min(axis=2).mean(axis=1) / m
    return np.stack([v, w, wall, pair, nn], axis=1)


def sdbc_features(log: TrialLog) -> np.ndarray:
    """(10,) feature statistics of one trial: the means then the standard
    deviations of the five per-cycle features."""
    feats = _per_cycle_features(log)
    return np.concatenate([feats.mean(axis=0), feats.std(axis=0)])


# ---------------------------------------------------------------------------
# State-action policy profile


def spirit_states(proximity, rab) -> np.ndarray:
    """6-bit sensory state ids; a group is active when any member reading
    passes half of the sensor's range (proximity activation > 0.5, or a
    neighbour within half the range-and-bearing range)."""
    proximity = np.asarray(proximity)
    rab = np.asarray(rab)
    bits = [
        (proximity[..., list(group)] > 0.5).any(axis=-1) for group in PROX_GROUPS
    ]
    bits.append((rab[..., list(FRONT_RAB_CONES)] < 0.5).any(axis=-1))
    bits.append((rab[..., list(REAR_RAB_CONES)] < 0.5).any(axis=-1))
    state = np.zeros(bits[0].shape, dtype=int)
    for k, bit in enumerate(bits):
        state |= bit.astype(int) << k
    return state


def spirit_actions(commands, max_speed: float) -> np.ndarray:
    """Action ids from wheel commands, each wheel binned into 4 equal
    intervals over +-max_speed."""
    commands = np.asarray(commands, dtype=float)
    bins = np.clip(
        np.floor((commands + max_speed) / (max_speed / 2.0)).astype(int), 0, 3
    )
    return bins[..., 0] * 4 + bins[..., 1]


def spirit_counts(log: TrialLog) -> np.ndarray:
    """(64, 16) state-action frequencies of one trial over all robots and
    cycles."""
    states = spirit_states(log.proximity, log.rab).ravel()
    actions = spirit_actions(log.commands, log.env.max_linear_speed).ravel()
    counts = np.zeros((SPIRIT_STATES, SPIRIT_ACTIONS))
    np.add.at(counts, (states, actions), 1.0)
    return counts


def _spirit_profile(trial_counts) -> np.ndarray:
    """(64, 16) conditional action distributions p(a|s) from the summed
    counts; unvisited states get the equiprobable distribution. Counts are
    integer-valued, so any order of summing them is exact."""
    counts = np.sum(trial_counts, axis=0)
    totals = counts.sum(axis=1, keepdims=True)
    profile = np.full((SPIRIT_STATES, SPIRIT_ACTIONS), 1.0 / SPIRIT_ACTIONS)
    visited = totals[:, 0] > 0
    profile[visited] = counts[visited] / totals[visited]
    return profile


# kind -> (summarise one trial's log, combine the trials' summaries)
DESCRIPTORS = {
    "hbd": (hbd_features, lambda features: np.mean(features, axis=0)),
    "sdbc": (sdbc_features, geometric_median),
    "spirit": (spirit_counts, _spirit_profile),
}


def describe(kind: str, logs: list[TrialLog]) -> np.ndarray:
    """The `kind` descriptor of a controller from its trial logs: each log is
    summarised on its own, and the summaries are combined across trials."""
    if not logs:
        raise ValueError("at least one trial log is required")
    summarise, combine = DESCRIPTORS[kind]
    return combine([summarise(log) for log in logs])
