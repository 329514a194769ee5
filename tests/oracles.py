"""Reference implementations kept outside the package as test oracles.

Most of this file is the per-trial reference simulation, the oracle for
`qdswarm.sim.run_trials`: the simulator's original one-trial-at-a-time loop.
Every helper acts on one trial's arrays, resolves collisions with per-pair
Python loops, and draws fault noise cycle by cycle. The batched kernel must
reproduce its logs bit for bit (sign of zeros included), whatever the batch
a trial runs in; `place_entities` is the reference for
`qdswarm.sim.place_entities`.

At the end, `nearest_centroid`, `assign` and `label_means` are the CVT
archive's original full-scan lookup, float64 Lloyd assignment and reduceat
cluster sums, which the screened lookup, the float32-screened assignment and
the rank-by-rank sums in `qdswarm.archive` must match bit for bit.
"""

from dataclasses import dataclass

import numpy as np

from qdswarm.environment import EnvironmentSpec
from qdswarm.genome import FIRST_OUTPUT_ID, N_INPUTS, N_OUTPUTS, Genome
from qdswarm.sim import (
    AXLE_LENGTH,
    CONTROL_DT,
    MAX_ANGULAR_SPEED,
    MAX_RESOLUTION_PASSES,
    N_FRONT_PROXIMITY,
    N_PROXIMITY_RAYS,
    N_RAB_CONES,
    OBSTACLE_SIDE,
    PAIR_OVERLAP_TOL,
    PLACEMENT_ATTEMPTS,
    PROXIMITY_ANGLES,
    RAB_CONE_HALF,
    RAB_CONE_WIDTH,
    ROBOT_RADIUS,
    FaultType,
    PlacementError,
    TrialLog,
    sensor_input_scale,
    wrap_angle,
)


@dataclass(frozen=True)
class ArenaSpec:
    """A trial's arena: its side and its (K, 2) obstacle centres."""

    side: float
    obstacles: np.ndarray


@dataclass(frozen=True)
class RobotBody:
    """The simulator's body constants with one environment's speed and ranges."""

    max_linear_speed: float
    proximity_range: float
    rab_range: float
    radius: float = ROBOT_RADIUS
    axle_length: float = AXLE_LENGTH
    max_angular_speed: float = MAX_ANGULAR_SPEED

    @classmethod
    def from_env(cls, env: EnvironmentSpec) -> "RobotBody":
        return cls(env.max_linear_speed, env.proximity_range, env.rab_range)


class Network:
    """One genome's dense weights; `step` updates every robot of a trial."""

    def __init__(self, genome: Genome):
        k = N_OUTPUTS + genome.hidden
        self.n_units = k
        self.w_in = np.zeros((k, N_INPUTS))
        self.w_rec = np.zeros((k, k))
        for c in genome.connections:
            row = c.target - FIRST_OUTPUT_ID
            if c.source < N_INPUTS:
                self.w_in[row, c.source] = c.weight
            else:
                self.w_rec[row, c.source - FIRST_OUTPUT_ID] = c.weight

    def step(self, state, inputs):
        return np.tanh(inputs @ self.w_in.T + state @ self.w_rec.T)


def _ray_wall_t(origins, dirs, side):
    with np.errstate(divide="ignore", invalid="ignore"):
        tx = np.where(
            dirs[:, 0] > 0,
            (side - origins[:, 0]) / dirs[:, 0],
            np.where(dirs[:, 0] < 0, -origins[:, 0] / dirs[:, 0], np.inf),
        )
        ty = np.where(
            dirs[:, 1] > 0,
            (side - origins[:, 1]) / dirs[:, 1],
            np.where(dirs[:, 1] < 0, -origins[:, 1] / dirs[:, 1], np.inf),
        )
    return np.minimum(tx, ty)


def _ray_box_t(origins, dirs, centers, half):
    o = origins[:, None, :]
    d = dirs[:, None, :]
    lo = centers[None, :, :] - half
    hi = centers[None, :, :] + half
    with np.errstate(divide="ignore", invalid="ignore"):
        t1 = (lo - o) / d
        t2 = (hi - o) / d
    tmin = np.minimum(t1, t2)
    tmax = np.maximum(t1, t2)
    parallel = np.abs(d) < 1e-12
    inside = (o >= lo) & (o <= hi)
    tmin = np.where(parallel, np.where(inside, -np.inf, np.inf), tmin)
    tmax = np.where(parallel, np.where(inside, np.inf, -np.inf), tmax)
    near = tmin.max(axis=2)
    far = tmax.min(axis=2)
    hit = (near <= far) & (far >= 0.0)
    return np.where(hit, np.maximum(near, 0.0), np.inf)


def _ray_circle_t(origins, dirs, centers, radius, self_index):
    oc = centers[None, :, :] - origins[:, None, :]
    b = np.einsum("kci,ki->kc", oc, dirs)
    c = np.einsum("kci,kci->kc", oc, oc) - radius * radius
    disc = b * b - c
    t = b - np.sqrt(np.maximum(disc, 0.0))
    valid = (disc >= 0.0) & (t > 1e-12)
    t = np.where(valid, t, np.inf)
    t[np.arange(len(origins)), self_index] = np.inf
    return t


def proximity_activations(poses, arena: ArenaSpec, body: RobotBody):
    n = poses.shape[0]
    angles = poses[:, 2:3] + PROXIMITY_ANGLES[None, :]
    dirs = np.stack([np.cos(angles), np.sin(angles)], axis=-1).reshape(-1, 2)
    origins = np.repeat(poses[:, :2], N_PROXIMITY_RAYS, axis=0)
    t = _ray_wall_t(origins, dirs, arena.side)
    if len(arena.obstacles):
        t = np.minimum(t, _ray_box_t(origins, dirs, arena.obstacles, OBSTACLE_SIDE / 2).min(axis=1))
    if n > 1:
        self_index = np.repeat(np.arange(n), N_PROXIMITY_RAYS)
        t = np.minimum(
            t, _ray_circle_t(origins, dirs, poses[:, :2], body.radius, self_index).min(axis=1)
        )
    distance = t - body.radius
    activation = np.clip(1.0 - distance / body.proximity_range, 0.0, 1.0)
    return activation.reshape(n, N_PROXIMITY_RAYS)


def body_frame_offsets(poses):
    n = poses.shape[0]
    rel = poses[None, :, :2] - poses[:, None, :2]
    cos = np.cos(poses[:, 2])
    sin = np.sin(poses[:, 2])
    rx = rel[..., 0] * cos[:, None] + rel[..., 1] * sin[:, None]
    ry = -rel[..., 0] * sin[:, None] + rel[..., 1] * cos[:, None]
    rotated = np.stack([rx, ry], axis=-1)
    return rotated[~np.eye(n, dtype=bool)].reshape(n, n - 1, 2)


def rab_activations(rel, rab_range):
    batch, count = rel.shape[:2]
    closest = np.full((batch, N_RAB_CONES), np.inf)
    if count:
        ranges = np.hypot(rel[..., 0], rel[..., 1])
        bearings = np.arctan2(rel[..., 1], rel[..., 0])
        cones = np.floor((bearings + RAB_CONE_HALF) / RAB_CONE_WIDTH).astype(int) % N_RAB_CONES
        rows, cols = np.nonzero(ranges <= rab_range)
        np.minimum.at(closest, (rows, cones[rows, cols]), ranges[rows, cols])
    return np.where(np.isfinite(closest), closest / rab_range, 1.0)


def apply_sensor_faults(proximity, neighbor_rel, fault_arr, rab_range, rng):
    """One cycle's faulted (proximity, rab): PRAND rows drawn first, then ROFS offsets."""
    rab = rab_activations(neighbor_rel, rab_range)
    prand = fault_arr == int(FaultType.PRAND)
    rofs = fault_arr == int(FaultType.ROFS)
    proximity = proximity.copy()
    proximity[fault_arr == int(FaultType.PMIN), :N_FRONT_PROXIMITY] = 0.0
    proximity[fault_arr == int(FaultType.PMAX), :N_FRONT_PROXIMITY] = 1.0
    if prand.any():
        proximity[prand, :N_FRONT_PROXIMITY] = rng.random((int(prand.sum()), N_FRONT_PROXIMITY))
    if rofs.any():
        count = int(rofs.sum())
        r = rng.uniform(0.75, 1.0, size=count) * rab_range
        theta = rng.uniform(-np.pi, np.pi, size=count)
        offsets = np.stack([r * np.cos(theta), r * np.sin(theta)], axis=-1)
        rab[rofs] = rab_activations(neighbor_rel[rofs] + offsets[:, None, :], rab_range)
    return proximity, rab


def _circle_box_distance(xy, centers, half):
    nearest = np.clip(xy[:, None, :], centers[None] - half, centers[None] + half)
    return np.hypot(*(xy[:, None, :] - nearest).transpose(2, 0, 1))


def place_entities(rng: np.random.Generator, env: EnvironmentSpec):
    """Rejection-sample obstacle centres, then robot poses, stacking one row
    onto each array per placed entity."""
    side = env.arena_side
    half = OBSTACLE_SIDE / 2.0
    obstacles = np.empty((0, 2))
    for _ in range(env.n_obstacles):
        for _ in range(PLACEMENT_ATTEMPTS):
            c = rng.uniform(half, side - half, size=2)
            if not len(obstacles) or np.all(
                np.max(np.abs(obstacles - c), axis=1) >= OBSTACLE_SIDE
            ):
                obstacles = np.vstack([obstacles, c])
                break
        else:
            raise PlacementError(
                f"could not place obstacle {len(obstacles) + 1} of {env.n_obstacles}"
            )
    poses = np.empty((0, 3))
    for _ in range(env.n_robots):
        for _ in range(PLACEMENT_ATTEMPTS):
            xy = rng.uniform(ROBOT_RADIUS, side - ROBOT_RADIUS, size=2)
            if len(poses) and np.min(np.hypot(*(poses[:, :2] - xy).T)) < 2 * ROBOT_RADIUS:
                continue
            if len(obstacles) and _circle_box_distance(xy[None], obstacles, half).min() < ROBOT_RADIUS:
                continue
            heading = float(wrap_angle(rng.uniform(-np.pi, np.pi)))
            poses = np.vstack([poses, [xy[0], xy[1], heading]])
            break
        else:
            raise PlacementError(f"could not place robot {len(poses) + 1} of {env.n_robots}")
    return obstacles, poses


def resolve_collisions(poses, arena: ArenaSpec, body: RobotBody):
    """Returns (resolved poses, passes run)."""
    poses = np.array(poses, dtype=float)
    xy = poses[:, :2]
    n = len(xy)
    r = body.radius
    half = OBSTACLE_SIDE / 2.0
    has_obstacles = len(arena.obstacles) > 0
    passes = 0
    for _ in range(MAX_RESOLUTION_PASSES):
        passes += 1
        np.clip(xy, r, arena.side - r, out=xy)
        if has_obstacles:
            nearest = np.clip(xy[:, None, :], arena.obstacles[None] - half, arena.obstacles[None] + half)
            delta = xy[:, None, :] - nearest
            dist = np.hypot(delta[..., 0], delta[..., 1])
            for i, k in zip(*np.nonzero(dist < r)):
                d = dist[i, k]
                if d > 1e-12:
                    xy[i] += delta[i, k] / d * (r - d)
                else:
                    gap = xy[i] - arena.obstacles[k]
                    axis = int(np.argmin(half - np.abs(gap)))
                    direction = 1.0 if gap[axis] >= 0 else -1.0
                    xy[i][axis] = arena.obstacles[k][axis] + direction * (half + r)
        clean = True
        if n > 1:
            diff = xy[:, None, :] - xy[None, :, :]
            dist = np.hypot(diff[..., 0], diff[..., 1])
            np.fill_diagonal(dist, np.inf)
            overlap = 2 * r - dist
            if (overlap > PAIR_OVERLAP_TOL).any():
                clean = False
                push = np.zeros_like(xy)
                for i, j in zip(*np.nonzero(np.triu(overlap > PAIR_OVERLAP_TOL, k=1))):
                    d = dist[i, j]
                    if d > 1e-12:
                        unit = diff[i, j] / d
                    else:
                        unit = np.array([1.0, 0.0])
                    push[i] += 0.5 * overlap[i, j] * unit
                    push[j] -= 0.5 * overlap[i, j] * unit
                xy += push
        if has_obstacles:
            sep = _circle_box_distance(xy, arena.obstacles, half)
            if (sep < r - PAIR_OVERLAP_TOL).any():
                clean = False
        if (xy < r).any() or (xy > arena.side - r).any():
            clean = False
        if clean:
            break
    np.clip(xy, r, arena.side - r, out=xy)
    return poses, passes


def run_trial(env: EnvironmentSpec, genome: Genome, faults=None, seed=0, duration=400.0):
    """One trial, simulated alone, cycle by cycle."""
    rng = np.random.default_rng(seed)
    body = RobotBody.from_env(env)
    n = env.n_robots
    if faults is None:
        fault_arr = np.full(n, int(FaultType.NONE))
    else:
        fault_arr = np.asarray([int(f) for f in faults])
    obstacles, poses = place_entities(rng, env)
    arena = ArenaSpec(env.arena_side, obstacles)
    n_cycles = int(round(duration / CONTROL_DT))
    scale = np.ones((n, 2))
    scale[fault_arr == int(FaultType.LW_H), 0] = 0.5
    scale[fault_arr == int(FaultType.RW_H), 1] = 0.5
    scale[fault_arr == int(FaultType.BW_H), :] = 0.5

    net = Network(genome)
    activations = np.zeros((n, net.n_units))
    logs = {
        key: np.empty((n_cycles, n) + shape)
        for key, shape in (
            ("poses", (3,)), ("proximity", (N_PROXIMITY_RAYS,)), ("rab", (N_RAB_CONES,)),
            ("commands", (2,)), ("linear_velocity", ()), ("angular_velocity", ()),
        )
    }
    inputs = np.empty((n, N_INPUTS))
    inputs[:, -1] = 1.0
    for t in range(n_cycles):
        prox = proximity_activations(poses, arena, body)
        rel = body_frame_offsets(poses)
        prox, rab = apply_sensor_faults(prox, rel, fault_arr, body.rab_range, rng)
        inputs[:, :7] = sensor_input_scale(prox)
        inputs[:, 7:15] = sensor_input_scale(rab)
        activations = net.step(activations, inputs)
        commands = activations[:, :N_OUTPUTS] * body.max_linear_speed
        if (scale != 1.0).any():
            commands = commands * scale
        v = 0.5 * (commands[:, 0] + commands[:, 1])
        omega = np.clip(
            (commands[:, 1] - commands[:, 0]) / body.axle_length,
            -body.max_angular_speed,
            body.max_angular_speed,
        )
        for key, value in (
            ("poses", poses), ("proximity", prox), ("rab", rab), ("commands", commands),
            ("linear_velocity", v), ("angular_velocity", omega),
        ):
            logs[key][t] = value
        moved = np.empty_like(poses)
        moved[:, 0] = poses[:, 0] + v * CONTROL_DT * np.cos(poses[:, 2])
        moved[:, 1] = poses[:, 1] + v * CONTROL_DT * np.sin(poses[:, 2])
        moved[:, 2] = wrap_angle(poses[:, 2] + omega * CONTROL_DT)
        poses, _ = resolve_collisions(moved, arena, body)
    return TrialLog(env=env, obstacles=obstacles, final_poses=poses, **logs)


# ---------------------------------------------------------------------------
# CVT archive


def nearest_centroid(descriptor, centroids) -> int:
    """Index of the Euclidean-nearest centroid by a full scan; ties go to the
    lowest index."""
    d = np.asarray(descriptor, dtype=float).ravel()
    c = np.asarray(centroids, dtype=float)
    dist = ((c - d[None, :]) ** 2).sum(axis=1)
    return int(np.argmin(dist))


def assign(points, centroids, chunk=2048) -> np.ndarray:
    """Nearest-centroid labels of a Lloyd iteration: per `chunk` of points,
    the argmin of the float64 scores `norms - 2 points @ centroids.T`; ties
    go to the lowest index."""
    norms = (centroids**2).sum(axis=1)
    labels = np.empty(len(points), dtype=np.int64)
    for start in range(0, len(points), chunk):
        scores = norms - 2.0 * (points[start : start + chunk] @ centroids.T)
        labels[start : start + chunk] = np.argmin(scores, axis=1)
    return labels


def label_means(points, labels, k) -> tuple[np.ndarray, np.ndarray]:
    """Per-label sums and counts via sort + reduceat."""
    order = np.argsort(labels, kind="stable")
    sorted_labels = labels[order]
    boundaries = np.flatnonzero(np.diff(sorted_labels)) + 1
    starts = np.concatenate([[0], boundaries])
    sums = np.zeros((k, points.shape[1]))
    present = sorted_labels[starts]
    sums[present] = np.add.reduceat(points[order], starts, axis=0)
    counts = np.bincount(labels, minlength=k)
    return sums, counts


def sample_simplex_blocks(rng, count, dim, block=16) -> np.ndarray:
    """Seed points drawn in one call: normalised unit exponentials, each
    consecutive `block` values summing to 1."""
    draws = rng.exponential(1.0, size=(count, dim // block, block))
    draws /= draws.sum(axis=2, keepdims=True)
    return draws.reshape(count, dim)
