"""Deterministic 2D kinematic simulation of a differential-drive robot swarm.

Robots are discs with two wheels, five frontal and two rear proximity rays,
and a range-and-bearing sensor that bins neighbouring robots into eight 45
degree cones. One forward-Euler integration step is taken per control cycle
(0.20 s). Collisions are resolved by positional projection only: overlapping
discs are pushed apart along their centre line, robots are pushed out of
obstacles, and positions are clamped to the walls. Per-robot sensor/actuator
faults can be injected each cycle. A trial is a pure function of
(environment, genome, fault assignment, seed).

Trials that share a swarm size and a duration step together in
`run_trials`, each in its own environment, and a trial's log is the same
whatever batch it runs in. The batched kernel functions it calls, on
(B, N, ...) arrays, are the simulator's only API; the per-trial reference
loop that the tests compare the kernel against lives in `tests/oracles.py`.
The kernel functions take each trial's arena side and sensor range as a
scalar or a (B,) array, and read the fixed body from the module constants
ROBOT_RADIUS, AXLE_LENGTH and MAX_ANGULAR_SPEED. A batch's obstacle arrays
are padded to its largest obstacle count with boxes centred at
PADDING_BOX_CENTRE, far outside every arena: never within a sensor's reach,
never pushing a robot. Each `TrialLog` carries its trial's `env` and its own
obstacle centres. Trials of one call that share an (environment, seed) pair
are placed once, and collision passes compute the geometry of the pairs
i < j only. Each swarm-geometry quantity has one function here, which the
fitness and descriptor modules call too: `pairwise_offsets`,
`pair_distances`, `pair_indices`, and `_circle_box_offsets` for discs
against boxes.
"""

import functools
from dataclasses import dataclass
from enum import IntEnum

import numpy as np

from .environment import EnvironmentSpec
from .genome import BIAS_INDEX, N_INPUTS, N_PROXIMITY, N_RAB, CompiledNetwork, Genome

CONTROL_DT = 0.20
ROBOT_RADIUS = 0.06
AXLE_LENGTH = 0.09
MAX_ANGULAR_SPEED = 2.2222  # rad/s, 127.32 deg/s
OBSTACLE_SIDE = 0.25
PLACEMENT_ATTEMPTS = 10_000
MAX_RESOLUTION_PASSES = 64
# Robot-cycles of trial logs one `run_trials` call may hold (176 bytes each,
# 8 bytes per LOG_FIELDS value).
TRIAL_BATCH_ROBOT_CYCLES = 160_000
PAIR_OVERLAP_TOL = 1e-9
# Slack on the proximity ray-casting cut-off, far above its rounding error.
CULL_MARGIN = 1e-6
# Both coordinates of the boxes that pad a batch's obstacle arrays.
PADDING_BOX_CENTRE = -1e6

# Body-frame ray angles: five frontal, two rear. The sensor counts are the
# network's input layout, which `genome` owns.
PROXIMITY_ANGLES = np.radians([-40.0, -20.0, 0.0, 20.0, 40.0, 160.0, -160.0])
N_PROXIMITY_RAYS = N_PROXIMITY
N_FRONT_PROXIMITY = 5

N_RAB_CONES = N_RAB
RAB_CONE_WIDTH = 2.0 * np.pi / N_RAB_CONES
RAB_CONE_HALF = RAB_CONE_WIDTH / 2.0


class FaultType(IntEnum):
    PMIN = 0
    PMAX = 1
    PRAND = 2
    LW_H = 3
    RW_H = 4
    BW_H = 5
    ROFS = 6
    NONE = 7


class PlacementError(RuntimeError):
    """Raised when rejection sampling cannot place all robots/obstacles."""


@dataclass
class TrialLog:
    """Complete per-cycle record of one trial.

    `poses[t]` is the configuration at the start of cycle t (where sensing
    happened); `commands[t]` are the executed wheel speeds of that cycle,
    after actuator faults. `final_poses` is the configuration after the last
    integration step.
    """

    env: EnvironmentSpec
    obstacles: np.ndarray  # (K, 2) obstacle centres; may be empty
    poses: np.ndarray  # (T, N, 3)
    proximity: np.ndarray  # (T, N, 7), after sensor faults
    rab: np.ndarray  # (T, N, 8), after sensor faults
    commands: np.ndarray  # (T, N, 2) vl, vr in m/s
    linear_velocity: np.ndarray  # (T, N) m/s, signed
    angular_velocity: np.ndarray  # (T, N) rad/s
    final_poses: np.ndarray  # (N, 3)

    @property
    def n_cycles(self) -> int:
        return self.poses.shape[0]

    @property
    def n_robots(self) -> int:
        return self.poses.shape[1]


# Per-cycle `TrialLog` fields, in field order -> the per-robot shape of one cycle.
LOG_FIELDS = {
    "poses": (3,),
    "proximity": (N_PROXIMITY_RAYS,),
    "rab": (N_RAB_CONES,),
    "commands": (2,),
    "linear_velocity": (),
    "angular_velocity": (),
}


def wrap_angle(theta):
    """Wrap angles to (-pi, pi]."""
    wrapped = np.remainder(theta, 2.0 * np.pi)
    return np.where(wrapped > np.pi, wrapped - 2.0 * np.pi, wrapped)


def sensor_input_scale(activations):
    """Affine map of sensor activations [0, 1] onto network inputs [-1, 1]."""
    return 2.0 * np.asarray(activations, dtype=float) - 1.0


def differential_drive_step(poses, commands):
    """Integrate one control cycle: translate along the old heading, then turn.

    The poses (B, N, 3) and wheel speeds `commands` (B, N, 2) of B trials
    give the moved poses (B, N, 3), the linear velocities (vl + vr) / 2 and
    the angular velocities (vr - vl) / AXLE_LENGTH, clamped to
    MAX_ANGULAR_SPEED, each (B, N).
    """
    v = 0.5 * (commands[..., 0] + commands[..., 1])
    omega = np.clip(
        (commands[..., 1] - commands[..., 0]) / AXLE_LENGTH,
        -MAX_ANGULAR_SPEED,
        MAX_ANGULAR_SPEED,
    )
    moved = np.empty_like(poses)
    moved[..., 0] = poses[..., 0] + v * CONTROL_DT * np.cos(poses[..., 2])
    moved[..., 1] = poses[..., 1] + v * CONTROL_DT * np.sin(poses[..., 2])
    moved[..., 2] = wrap_angle(poses[..., 2] + omega * CONTROL_DT)
    return moved, v, omega


# ---------------------------------------------------------------------------
# Ray casting
#
# The sensing, fault and collision functions below act on B trials at once:
# poses are (B, N, 3) and obstacle centres (B, K, 2). Each element of a trial
# goes through the same arithmetic whatever the other trials hold, so a
# trial's readings are the same bits in any batch.


def _ray_wall_t(origins, dirs, side):
    """Distances along rays `dirs` (..., 2) from `origins` to the walls of
    the [0, side]^2 arena, the nearer of the x and y walls."""
    # one axis at a time: on (..., 2) arrays the broadcast division and the
    # min over the last axis took 3x as long for 46 trials (2-core Xeon VM)
    with np.errstate(divide="ignore", invalid="ignore"):
        tx, ty = [
            np.where(d > 0, (side - o) / d, np.where(d < 0, -o / d, np.inf))
            for o, d in ((origins[..., k], dirs[..., k]) for k in (0, 1))
        ]
    return np.minimum(tx, ty)


def _ray_box_t(origins, dirs, centers, half):
    """Slab test of P bundles of rays (P, R, 2) from `origins` (P, 2) against
    one axis-aligned box each, centred at `centers` (P, 2); (P, R) hit
    distances, inf when missed."""
    o = origins[:, None, :]
    d = dirs
    lo = centers[:, None, :] - half
    hi = centers[:, None, :] + half
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


def _ray_circle_t(oc, dirs, radius):
    """Entry distances of P bundles of rays (P, R, 2) into one disc each,
    centred at offset `oc` (P, 2) from the rays' origin; (P, R), inf when missed."""
    b = oc[:, None, 0] * dirs[..., 0] + oc[:, None, 1] * dirs[..., 1]
    c = (oc[:, 0] * oc[:, 0] + oc[:, 1] * oc[:, 1] - radius * radius)[:, None]
    disc = b * b - c
    t = b - np.sqrt(np.maximum(disc, 0.0))
    return np.where((disc >= 0.0) & (t > 1e-12), t, np.inf)


def pairwise_offsets(poses) -> np.ndarray:
    """(..., N, N, 2) world-frame offsets: entry [i, j] is robot j's position minus robot i's."""
    poses = np.asarray(poses, dtype=float)
    return poses[..., None, :, :2] - poses[..., :, None, :2]


def pair_distances(poses) -> np.ndarray:
    """(..., N, N) robot-to-robot distances, the lengths of `pairwise_offsets(poses)`,
    with inf on the diagonal."""
    rel = pairwise_offsets(poses)
    dist = np.hypot(rel[..., 0], rel[..., 1])
    idx = np.arange(dist.shape[-1])
    dist[..., idx, idx] = np.inf
    return dist


@functools.cache
def pair_indices(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Index arrays (i, j) of the pairs i < j of n robots, in loop order;
    read-only, since every caller shares them."""
    i, j = np.triu_indices(n, 1)
    i.flags.writeable = j.flags.writeable = False
    return i, j


def proximity_activations(poses, obstacles, side, proximity_range, rel=None) -> np.ndarray:
    """Proximity readings of B trials, (B, N, 7) activations in [0, 1].

    `poses` (B, N, 3) and `obstacles` (B, K, 2) go with one arena side and
    one sensor range per trial, each a (B,) array or a scalar shared by all;
    `rel` is `pairwise_offsets(poses)` when the caller has it. Activation is
    1 - d / proximity_range clipped to [0, 1], with d the distance from the
    body surface (ROBOT_RADIUS from the centre) to the nearest wall,
    obstacle, or robot along the ray. Only obstacles and robots within reach
    of a robot are ray-cast: anything farther is more than the range away
    along every ray, so its reading would clip to 0 whether it is cast or not.
    """
    poses = np.asarray(poses, dtype=float)
    batch, n = poses.shape[:2]
    side = np.reshape(side, (-1, 1, 1))
    proximity_range = np.reshape(proximity_range, (-1, 1, 1))
    xy = poses[..., :2]
    angles = poses[..., 2:3] + PROXIMITY_ANGLES
    dirs = np.stack([np.cos(angles), np.sin(angles)], axis=-1)
    t = _ray_wall_t(xy[:, :, None, :], dirs, side)
    reach = proximity_range + ROBOT_RADIUS + CULL_MARGIN
    if obstacles.shape[1]:
        half = OBSTACLE_SIDE / 2
        b, i, k = np.nonzero(_circle_box_offsets(xy, obstacles, half)[1] <= reach)
        if len(b):
            np.minimum.at(t, (b, i), _ray_box_t(xy[b, i], dirs[b, i], obstacles[b, k], half))
    if n > 1:
        if rel is None:
            rel = pairwise_offsets(poses)
        reach += ROBOT_RADIUS
        near = rel[..., 0] * rel[..., 0] + rel[..., 1] * rel[..., 1] <= reach * reach
        near.reshape(batch, -1)[:, :: n + 1] = False
        b, i, j = np.nonzero(near)
        if len(b):
            np.minimum.at(t, (b, i), _ray_circle_t(rel[b, i, j], dirs[b, i], ROBOT_RADIUS))
    distance = t - ROBOT_RADIUS
    return np.clip(1.0 - distance / proximity_range, 0.0, 1.0)


@functools.cache
def _offdiag_mask(n: int) -> np.ndarray:
    return ~np.eye(n, dtype=bool)


def body_frame_offsets(poses, rel=None) -> np.ndarray:
    """(..., N, N-1, 2) offsets from each robot to the others in its body frame.

    Row i lists the other robots in ascending index order; `rel` is
    `pairwise_offsets(poses)` when the caller has it.
    """
    poses = np.asarray(poses, dtype=float)
    n = poses.shape[-2]
    if rel is None:
        rel = pairwise_offsets(poses)
    cos = np.cos(poses[..., 2])[..., None]
    sin = np.sin(poses[..., 2])[..., None]
    rx = rel[..., 0] * cos + rel[..., 1] * sin
    ry = -rel[..., 0] * sin + rel[..., 1] * cos
    rotated = np.stack([rx, ry], axis=-1)
    return rotated[..., _offdiag_mask(n), :].reshape(poses.shape[:-2] + (n, n - 1, 2))


def rab_activations(neighbor_rel, rab_range) -> np.ndarray:
    """Range-and-bearing readings from body-frame neighbour offsets (..., K, 2); (..., 8).

    Cone k is centred at k * 45 degrees (cone 0 on the heading). Each cone
    reports the range of its closest neighbour as a fraction of `rab_range`,
    or 1 if no neighbour is within range. `rab_range` broadcasts against the
    leading axes `...`: a scalar, or one range per reading robot.
    """
    rel = np.asarray(neighbor_rel, dtype=float)
    lead, count = rel.shape[:-2], rel.shape[-2]
    rel = rel.reshape((int(np.prod(lead)), count, 2))
    rab_range = np.broadcast_to(rab_range, lead).reshape(-1, 1)
    closest = np.full((len(rel), N_RAB_CONES), np.inf)
    if count:
        ranges = np.hypot(rel[..., 0], rel[..., 1])
        rows, cols = np.nonzero(ranges <= rab_range)
        seen = rel[rows, cols]
        bearings = np.arctan2(seen[:, 1], seen[:, 0])
        cones = np.floor((bearings + RAB_CONE_HALF) / RAB_CONE_WIDTH).astype(int) % N_RAB_CONES
        np.minimum.at(closest, (rows, cones), ranges[rows, cols])
    out = np.where(np.isfinite(closest), closest / rab_range, 1.0)
    return out.reshape(lead + (N_RAB_CONES,))


# ---------------------------------------------------------------------------
# Fault injection


@dataclass
class _FaultPlan:
    """The fault assignments of B trials: (B, N) masks, actuator scales, and
    every cycle's PRAND/ROFS noise drawn up front, one (T, W) column block
    per trial."""

    pmin: np.ndarray
    pmax: np.ndarray
    prand: np.ndarray
    rofs: np.ndarray
    any_prox: bool
    actuator_scale: np.ndarray  # (B, N, 2), 1.0 for a working wheel
    noise: np.ndarray  # (T, W): the noise of cycle t is row t
    prand_cols: np.ndarray  # (PRAND robots, 5) noise columns, robots in (trial, index) order
    radius_cols: np.ndarray  # (ROFS robots,) columns of the ROFS offset radii
    angle_cols: np.ndarray  # (ROFS robots,) columns of the ROFS offset angles


def _compile_faults(fault_arr: np.ndarray, rngs, n_cycles: int) -> _FaultPlan:
    """Plan of the (B, N) fault assignment `fault_arr`; trial b's noise comes from `rngs[b]`.

    Each trial draws, per cycle, 5 values per PRAND robot (ascending robot
    index), then one offset radius per ROFS robot, then one offset angle per
    ROFS robot. Drawing all cycles as one block of `Generator.uniform` calls
    with per-column bounds consumes the stream in that same order, and each
    value goes through the same low + (high - low) * u as a per-cycle draw.
    """
    prand = fault_arr == int(FaultType.PRAND)
    rofs = fault_arr == int(FaultType.ROFS)
    pmin = fault_arr == int(FaultType.PMIN)
    pmax = fault_arr == int(FaultType.PMAX)
    scale = np.ones(fault_arr.shape + (2,))
    scale[fault_arr == int(FaultType.LW_H), 0] = 0.5
    scale[fault_arr == int(FaultType.RW_H), 1] = 0.5
    scale[fault_arr == int(FaultType.BW_H), :] = 0.5
    blocks, prand_cols, radius_cols, angle_cols = [], [], [], []
    width = 0
    for rng, n_prand, n_rofs in zip(rngs, prand.sum(axis=1), rofs.sum(axis=1)):
        counts = [N_FRONT_PROXIMITY * n_prand, n_rofs, n_rofs]
        low = np.repeat([0.0, 0.75, -np.pi], counts)
        high = np.repeat([1.0, 1.0, np.pi], counts)
        if len(low):
            blocks.append(rng.uniform(low, high, size=(n_cycles, len(low))))
        prand_cols.append(width + np.arange(counts[0]).reshape(n_prand, N_FRONT_PROXIMITY))
        radius_cols.append(width + counts[0] + np.arange(n_rofs))
        angle_cols.append(width + counts[0] + n_rofs + np.arange(n_rofs))
        width += len(low)
    return _FaultPlan(
        pmin=pmin,
        pmax=pmax,
        prand=prand,
        rofs=rofs,
        any_prox=bool(pmin.any() or pmax.any() or prand.any()),
        actuator_scale=scale,
        noise=np.concatenate(blocks, axis=1) if blocks else np.empty((n_cycles, 0)),
        prand_cols=np.concatenate(prand_cols),
        radius_cols=np.concatenate(radius_cols),
        angle_cols=np.concatenate(angle_cols),
    )


def _apply_sensor_faults_batch(proximity, neighbor_rel, plan: _FaultPlan, rab_range, noise):
    """Faulted (proximity, rab) arrays of B trials for one cycle; `rab_range`
    is (B,) and `noise` is the cycle's row of `plan.noise`. A ROFS robot's
    neighbour offsets are shifted by its offset before the one RAB reading
    of the batch."""
    rab_range = rab_range[:, None]
    if plan.any_prox:
        proximity = proximity.copy()
        proximity[plan.pmin, :N_FRONT_PROXIMITY] = 0.0
        proximity[plan.pmax, :N_FRONT_PROXIMITY] = 1.0
        proximity[plan.prand, :N_FRONT_PROXIMITY] = noise[plan.prand_cols]
    if len(plan.radius_cols):
        r = noise[plan.radius_cols] * np.broadcast_to(rab_range, plan.rofs.shape)[plan.rofs]
        theta = noise[plan.angle_cols]
        offsets = np.stack([r * np.cos(theta), r * np.sin(theta)], axis=-1)
        neighbor_rel = neighbor_rel.copy()
        neighbor_rel[plan.rofs] += offsets[:, None, :]
    return proximity, rab_activations(neighbor_rel, rab_range)


# ---------------------------------------------------------------------------
# Placement and collision resolution


def _circle_box_offsets(xy, centers, half):
    """Offsets (..., N, K, 2) of points (..., N, 2) from their nearest points
    on boxes (..., K, 2) of half side `half`, and their lengths (..., N, K)."""
    points = xy[..., :, None, :]
    boxes = centers[..., None, :, :]
    # np.clip's values at a fraction of its call overhead, which placement
    # pays once per attempt
    delta = points - np.minimum(np.maximum(points, boxes - half), boxes + half)
    return delta, np.hypot(delta[..., 0], delta[..., 1])


def place_entities(rng: np.random.Generator, env: EnvironmentSpec):
    """Rejection-sample non-overlapping obstacle centres and robot poses.

    Raises PlacementError after 10,000 failed attempts for any single entity,
    signalling that the arena is too crowded. A robot's heading is drawn as
    soon as its position is accepted and wrapped once all are placed.
    """
    side = env.arena_side
    half = OBSTACLE_SIDE / 2.0
    obstacles = np.empty((env.n_obstacles, 2))
    for k in range(env.n_obstacles):
        for _ in range(PLACEMENT_ATTEMPTS):
            c = rng.uniform(half, side - half, size=2)
            if not k or np.all(np.max(np.abs(obstacles[:k] - c), axis=1) >= OBSTACLE_SIDE):
                obstacles[k] = c
                break
        else:
            raise PlacementError(f"could not place obstacle {k + 1} of {env.n_obstacles}")
    poses = np.empty((env.n_robots, 3))
    for i in range(env.n_robots):
        for _ in range(PLACEMENT_ATTEMPTS):
            xy = rng.uniform(ROBOT_RADIUS, side - ROBOT_RADIUS, size=2)
            if i:
                d = poses[:i, :2] - xy
                if np.hypot(d[:, 0], d[:, 1]).min() < 2 * ROBOT_RADIUS:
                    continue
            if len(obstacles):
                if _circle_box_offsets(xy[None], obstacles, half)[1].min() < ROBOT_RADIUS:
                    continue
            poses[i, :2] = xy
            poses[i, 2] = rng.uniform(-np.pi, np.pi)
            break
        else:
            raise PlacementError(f"could not place robot {i + 1} of {env.n_robots}")
    poses[:, 2] = wrap_angle(poses[:, 2])
    return obstacles, poses


def _push_out_of_boxes(xy, boxes, r, half) -> np.ndarray:
    """Push discs (A, N, 2) out of the boxes (A, K, 2) they overlap, in place;
    returns which of the A trials had a disc pushed.

    A robot's pushes apply in ascending box order, each to the position the
    previous one left. `np.add.at` keeps that order for the usual push along
    the centre-to-box line; a robot whose centre is inside a box takes the
    per-pair loop instead, because its exit reads the current position.
    """
    n = xy.shape[1]
    pushed = np.zeros(len(xy), dtype=bool)
    delta, dist = _circle_box_offsets(xy, boxes, half)
    a, i, k = np.nonzero(dist < r)
    if not len(a):
        return pushed
    pushed[a] = True
    d = dist[a, i, k]
    row = a * n + i
    inside_rows = row[d <= 1e-12]
    if len(inside_rows):
        slow = np.isin(row, inside_rows)
        for a_, i_, k_, d_ in zip(a[slow], i[slow], k[slow], d[slow]):
            if d_ > 1e-12:
                xy[a_, i_] += delta[a_, i_, k_] / d_ * (r - d_)
            else:  # centre inside the box: exit along the shallower axis
                gap = xy[a_, i_] - boxes[a_, k_]
                axis = int(np.argmin(half - np.abs(gap)))
                direction = 1.0 if gap[axis] >= 0 else -1.0
                xy[a_, i_, axis] = boxes[a_, k_, axis] + direction * (half + r)
        a, i, k, d, row = a[~slow], i[~slow], k[~slow], d[~slow], row[~slow]
    np.add.at(xy.reshape(-1, 2), row, delta[a, i, k] / d[:, None] * (r - d)[:, None])
    return pushed


def _push_pairs_apart(xy, overlapping, diff, dist, overlap):
    """Push every overlapping pair (i < j) of discs (A, N, 2) apart by half
    the overlap each, in place, summing each robot's pushes in the order of
    a loop over the pairs (i, j) before adding them to its position.

    `overlapping`, `dist` and `overlap` are (A, P) and `diff` is (A, P, 2),
    over the P pairs of `pair_indices(N)`. In the loop a robot's pushes as
    the j of a pair all come before its pushes as the i of one, so
    `np.add.at` over every j-side push followed by every i-side push, each in
    pair order, adds them in the same order.
    """
    n = xy.shape[1]
    a, p = np.nonzero(overlapping)
    i, j = pair_indices(n)
    i, j = i[p], j[p]
    d = dist[a, p]
    distinct = d > 1e-12
    unit = diff[a, p] / np.where(distinct, d, 1.0)[:, None]
    unit[~distinct] = (1.0, 0.0)  # coincident centres
    step = 0.5 * overlap[a, p][:, None] * unit
    push = np.zeros((xy.size // 2, 2))
    np.add.at(push, np.concatenate([a * n + j, a * n + i]), np.concatenate([-step, step]))
    xy += push.reshape(xy.shape)


def resolve_collisions(poses, obstacles, side) -> np.ndarray:
    """Project the robots of B trials out of walls, obstacles, and each other.

    `poses` (B, N, 3) and `obstacles` (B, K, 2) go with one arena side per
    trial, a (B,) array or a scalar shared by all. Each trial iterates
    positional corrections until no two of its discs overlap by more than
    1e-9 m, for at most MAX_RESOLUTION_PASSES passes; a trial that has
    converged takes no further pass. Walls are clamped last so robots can
    never leave the arena.
    """
    poses = np.array(poses, dtype=float)
    batch, n = poses.shape[:2]
    r = ROBOT_RADIUS
    half = OBSTACLE_SIDE / 2.0
    high = np.broadcast_to(np.reshape(side, (-1, 1, 1)) - r, (batch, 1, 1))
    resolved = poses[..., :2].copy()
    active = np.arange(batch)
    for _ in range(MAX_RESOLUTION_PASSES):
        every = len(active) == batch
        xy = resolved if every else resolved[active]
        boxes = obstacles if every else obstacles[active]
        wall = high if every else high[active]
        np.clip(xy, r, wall, out=xy)
        # A trial that nothing pushes in this pass stays clipped and clear of
        # every box, so only pushed trials need the wall and box checks.
        box_pushed = (
            _push_out_of_boxes(xy, boxes, r, half) if boxes.shape[1] else np.zeros(len(xy), bool)
        )
        clean = np.ones(len(xy), dtype=bool)
        if n > 1:
            i, j = pair_indices(n)
            diff = xy[:, i] - xy[:, j]
            dist = np.hypot(diff[..., 0], diff[..., 1])
            overlap = 2 * r - dist
            overlapping = overlap > PAIR_OVERLAP_TOL
            clean = ~overlapping.any(axis=1)
            if not clean.all():
                _push_pairs_apart(xy, overlapping, diff, dist, overlap)
        check = clean & box_pushed
        if check.any():
            moved = xy[check]
            inside_box = _circle_box_offsets(moved, boxes[check], half)[1] < r - PAIR_OVERLAP_TOL
            off_arena = (moved < r) | (moved > wall[check])
            clean[check] = ~(inside_box.any(axis=(1, 2)) | off_arena.any(axis=(1, 2)))
        if not every:
            resolved[active] = xy
        active = active[~clean]
        if not len(active):
            break
    np.clip(resolved, r, high, out=poses[..., :2])
    return poses


# ---------------------------------------------------------------------------
# Trial execution


def run_trials(envs, genomes, faults, seeds, duration: float = 400.0) -> list:
    """Simulate B trials that share a swarm size and `duration`; one TrialLog each.

    Trial b runs `genomes[b]` in environment `envs[b]` under the fault
    assignment `faults[b]` (None for fault free) from `seeds[b]`; the
    environments may differ in every attribute but `n_robots`. Robots and
    obstacles are placed uniformly at random without overlap; the swarms
    then run duration / 0.2 control cycles of sense, fault injection, clonal
    controller update, actuation, integration, and collision resolution, all
    B trials in one set of numpy operations per cycle, with each trial's
    arena side, speed and sensor ranges as (B,) arrays and its obstacles
    padded with PADDING_BOX_CENTRE boxes. Each trial keeps its own RNG (its
    placement, then its fault noise), controller state and collision
    passes, so its log is a deterministic function of its own arguments:
    bit-identical alone or in any batch. A trial whose (env, seed) pair
    came earlier in the call copies that trial's obstacles and poses and
    gets a new generator set to its post-placement state, instead of
    placing again; the copies live only as long as the call.

    Raises PlacementError for the first trial that cannot be placed. An empty
    batch, argument lists of different lengths, environments of different
    swarm sizes, or a duration that rounds to no control cycle raise
    ValueError before any placement.
    """
    batch = len(seeds)
    if not batch:
        raise ValueError("run_trials needs at least one trial")
    if not len(envs) == len(genomes) == len(faults) == batch:
        raise ValueError("envs, genomes, faults and seeds differ in length")
    n = envs[0].n_robots
    if any(env.n_robots != n for env in envs):
        raise ValueError("the environments of one batch differ in n_robots")
    n_cycles = int(round(duration / CONTROL_DT))
    if n_cycles < 1:
        raise ValueError(f"duration {duration!r} s is under one {CONTROL_DT} s control cycle")
    fault_arr = np.full((batch, n), int(FaultType.NONE))
    for b, assignment in enumerate(faults):
        if assignment is not None:
            if len(assignment) != n:
                raise ValueError(f"fault assignment length {len(assignment)} != swarm size {n}")
            fault_arr[b] = [int(f) for f in assignment]
    side, speed, rab_range, proximity_range = np.array(
        [(e.arena_side, e.max_linear_speed, e.rab_range, e.proximity_range) for e in envs]
    ).T
    rngs = []
    obstacles = np.full((batch, max(env.n_obstacles for env in envs), 2), PADDING_BOX_CENTRE)
    poses = np.empty((batch, n, 3))
    # (env, seed) -> obstacles, poses and generator state after placement
    placed = {}
    for b, (env, seed) in enumerate(zip(envs, seeds)):
        rng = np.random.default_rng(seed)
        key = (env, seed)
        if key in placed:
            obstacles[b, : env.n_obstacles], poses[b], rng.bit_generator.state = placed[key]
        else:
            obstacles[b, : env.n_obstacles], poses[b] = place_entities(rng, env)
            placed[key] = (obstacles[b, : env.n_obstacles], poses[b], rng.bit_generator.state)
        rngs.append(rng)
    plan = _compile_faults(fault_arr, rngs, n_cycles)

    net = CompiledNetwork(genomes)
    activations = net.initial_state(n)

    logs = {name: np.empty((batch, n_cycles, n) + shape) for name, shape in LOG_FIELDS.items()}

    inputs = np.empty((batch, n, N_INPUTS))
    inputs[..., BIAS_INDEX] = 1.0

    for t in range(n_cycles):
        rel = pairwise_offsets(poses)
        prox = proximity_activations(poses, obstacles, side, proximity_range, rel)
        neighbors = body_frame_offsets(poses, rel)
        prox, rab = _apply_sensor_faults_batch(prox, neighbors, plan, rab_range, plan.noise[t])

        inputs[..., :N_PROXIMITY_RAYS] = sensor_input_scale(prox)
        inputs[..., N_PROXIMITY_RAYS:BIAS_INDEX] = sensor_input_scale(rab)
        activations = net.step(activations, inputs)
        # a working wheel's scale is 1.0, and x * 1.0 is x bit for bit
        commands = net.outputs(activations) * speed[:, None, None] * plan.actuator_scale

        moved, v, omega = differential_drive_step(poses, commands)
        for array, value in zip(logs.values(), (poses, prox, rab, commands, v, omega)):
            array[:, t] = value

        poses = resolve_collisions(moved, obstacles, side)

    return [
        TrialLog(
            env=env,
            obstacles=obstacles[b, : env.n_obstacles],
            **{name: array[b] for name, array in logs.items()},
            final_poses=poses[b].copy(),
        )
        for b, env in enumerate(envs)
    ]


def run_trial(
    env: EnvironmentSpec,
    genome: Genome,
    faults=None,
    seed=0,
    duration: float = 400.0,
) -> TrialLog:
    """Simulate one trial and return its complete log: `run_trials` with a
    batch of one, so the result is a deterministic function of the arguments."""
    return run_trials([env], [genome], [faults], [seed], duration)[0]
