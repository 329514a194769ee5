"""Deterministic 2D kinematic simulation of a differential-drive robot swarm.

Robots are discs with two wheels, five frontal and two rear proximity rays,
and a range-and-bearing sensor that bins neighbouring robots into eight 45
degree cones. One forward-Euler integration step is taken per control cycle
(0.20 s). Collisions are resolved by positional projection only: overlapping
discs are pushed apart along their centre line, robots are pushed out of
obstacles, and positions are clamped to the walls. Per-robot sensor/actuator
faults can be injected each cycle. A trial is a pure function of
(environment, genome, fault assignment, seed).

Trials that share a duration step together in `run_trials`, each in its own
environment and with its own swarm size, and a trial's log is the same
whatever batch it runs in: each run of consecutive trials of one swarm size
steps its controllers as one stack of unpadded (trials, n, ...) arrays. The
batched kernel functions it calls are the simulator's only API; the
per-trial reference loop that the tests compare the kernel against lives in
`tests/oracles.py`. They work on one flat layout, a `Swarms` built from the
trials' environments: robot arrays are (R, ...) with the robots of all
trials concatenated in (trial, index) order, each robot carrying its trial's
arena side, speed and sensor ranges; obstacle centres are one (K, 2) array
in trial order; one list holds the pairs i < j of robots of one trial,
which `sense` culls each cycle into each sensor's (observer, offset) rows,
and one the (robot, box of its own trial) pairs. The fixed body comes from
the module constants ROBOT_RADIUS, AXLE_LENGTH and MAX_ANGULAR_SPEED. Each
`TrialLog` carries its trial's `env` and its own obstacle centres. Trials of
one call that share an (environment, seed) pair are placed once. Each
swarm-geometry quantity of a trial log has one function here, which the
fitness and descriptor modules call too: `pair_distances`, `pair_indices`,
and `_circle_box_offsets` for discs against boxes.
"""

import functools
import itertools
from dataclasses import dataclass
from enum import IntEnum

import numpy as np

from .environment import EnvironmentSpec
from .genome import (
    BIAS_INDEX,
    N_INPUTS,
    N_OUTPUTS,
    N_PROXIMITY,
    N_RAB,
    CompiledNetwork,
    Genome,
)

CONTROL_DT = 0.20
ROBOT_RADIUS = 0.06
AXLE_LENGTH = 0.09
MAX_ANGULAR_SPEED = 2.2222  # rad/s, 127.32 deg/s
OBSTACLE_SIDE = 0.25
PLACEMENT_ATTEMPTS = 10_000
MAX_RESOLUTION_PASSES = 64
# Bytes of trial logs and cycle arrays one `run_trials` call may hold (see
# `trial_bytes`): 160,000 robot-cycles of full 176-byte logs.
TRIAL_BATCH_BYTES = 28_160_000
# Bytes per robot of the arrays one cycle of a `run_trials` call works on
# (sensing, fault injection, controllers, collisions). `tracemalloc` read
# 2.7-3.7 KB per robot beyond logs and noise, for 5-20 robots in batches
# of 8-64 trials.
CYCLE_BYTES_PER_ROBOT = 4096
# Control cycles of fault noise per `Generator.uniform` call (see `_noise_rows`).
NOISE_BLOCK = 64
PAIR_OVERLAP_TOL = 1e-9
# Slack on the proximity and range-and-bearing cut-offs, far above their
# rounding error.
CULL_MARGIN = 1e-6

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
    """Per-cycle record of one trial.

    `poses[t]` is the configuration at the start of cycle t (where sensing
    happened); `commands[t]` are the executed wheel speeds of that cycle,
    after actuator faults. `final_poses` is the configuration after the last
    integration step. A per-cycle field that its `run_trials` call did not
    record is None; `poses`, `obstacles` and `final_poses` are always there.
    """

    env: EnvironmentSpec
    obstacles: np.ndarray  # (K, 2) obstacle centres; may be empty
    poses: np.ndarray  # (T, N, 3)
    proximity: np.ndarray | None  # (T, N, 7), after sensor faults
    rab: np.ndarray | None  # (T, N, 8), after sensor faults
    commands: np.ndarray | None  # (T, N, 2) vl, vr in m/s
    linear_velocity: np.ndarray | None  # (T, N) m/s, signed
    angular_velocity: np.ndarray | None  # (T, N) rad/s
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


def _recorded(fields) -> list:
    """The LOG_FIELDS that a call asking for `fields` records, in table
    order: those, and `poses` always."""
    unknown = set(fields) - set(LOG_FIELDS)
    if unknown:
        raise ValueError(f"unknown log fields {sorted(unknown)}")
    return [name for name in LOG_FIELDS if name == "poses" or name in fields]


def trial_bytes(env: EnvironmentSpec, n_cycles: int, fields) -> int:
    """Bytes that one trial holds in a `run_trials` call recording `fields`:
    its log, 8 bytes per recorded value of each robot-cycle, and
    CYCLE_BYTES_PER_ROBOT per robot of cycle arrays; fault noise is not charged."""
    per_robot = sum(8 * int(np.prod(LOG_FIELDS[name])) for name in _recorded(fields))
    return env.n_robots * (n_cycles * per_robot + CYCLE_BYTES_PER_ROBOT)


def wrap_angle(theta):
    """Wrap angles to (-pi, pi]."""
    wrapped = np.remainder(theta, 2.0 * np.pi)
    return np.where(wrapped > np.pi, wrapped - 2.0 * np.pi, wrapped)


def sensor_input_scale(activations):
    """Affine map of sensor activations [0, 1] onto network inputs [-1, 1]."""
    return 2.0 * np.asarray(activations, dtype=float) - 1.0


def differential_drive_step(poses, commands):
    """Integrate one control cycle: translate along the old heading, then turn.

    Poses (..., 3) and wheel speeds `commands` (..., 2) give the moved poses
    (..., 3), the linear velocities (vl + vr) / 2 and the angular velocities
    (vr - vl) / AXLE_LENGTH, clamped to MAX_ANGULAR_SPEED, each (...).
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


@functools.cache
def pair_indices(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Index arrays (i, j) of the pairs i < j of n robots, in loop order;
    read-only, since every caller shares them."""
    i, j = np.triu_indices(n, 1)
    i.flags.writeable = j.flags.writeable = False
    return i, j


@dataclass(frozen=True, eq=False)
class Swarms:
    """The flat layout of B trials' robots; `swarm_layout(envs)` builds it.

    Robot arrays are (R, ...) with the robots in (trial, index) order, and
    trial b's robots are rows `bounds[b]:bounds[b + 1]`; its obstacles are
    rows `box_bounds[b]:box_bounds[b + 1]` of the (K, 2) obstacle array.
    The pairs i < j are the one pair list: collisions walk it, and `sense`
    reads each pair both ways only where a sensor can see it.
    """

    trial: np.ndarray  # (R,) each robot's trial
    bounds: np.ndarray  # (B + 1,)
    box_bounds: np.ndarray  # (B + 1,)
    side: np.ndarray  # (R,) arena side of each robot's trial
    speed: np.ndarray  # (R,) maximal linear speed
    rab_range: np.ndarray  # (R,)
    proximity_range: np.ndarray  # (R,)
    pair_i: np.ndarray  # (P,) robots of the pairs i < j of each trial, in (trial, i, j) order
    pair_j: np.ndarray
    pair_trial: np.ndarray  # (P,)
    box_robot: np.ndarray  # (Q,) each robot with each box of its trial, in (robot, box) order
    box: np.ndarray  # (Q,) obstacle rows

    @property
    def n_trials(self) -> int:
        return len(self.bounds) - 1


def swarm_layout(envs) -> Swarms:
    """The `Swarms` of one trial in each of `envs`."""
    sizes = np.array([env.n_robots for env in envs])
    counts = np.array([env.n_obstacles for env in envs])
    bounds = np.concatenate([[0], np.cumsum(sizes)])
    box_bounds = np.concatenate([[0], np.cumsum(counts)])
    trial = np.repeat(np.arange(len(sizes)), sizes)
    side, speed, rab_range, proximity_range = np.array(
        [(e.arena_side, e.max_linear_speed, e.rab_range, e.proximity_range) for e in envs]
    ).T[:, trial]
    pair_i, pair_j = (
        np.concatenate([pair_indices(n)[k] + first for n, first in zip(sizes, bounds)])
        for k in (0, 1)
    )
    return Swarms(
        trial=trial,
        bounds=bounds,
        box_bounds=box_bounds,
        side=side,
        speed=speed,
        rab_range=rab_range,
        proximity_range=proximity_range,
        pair_i=pair_i,
        pair_j=pair_j,
        pair_trial=trial[pair_i],
        box_robot=np.repeat(np.arange(len(trial)), counts[trial]),
        box=np.concatenate(
            [np.tile(np.arange(k) + first, n) for n, k, first in zip(sizes, counts, box_bounds)]
        ),
    )


# ---------------------------------------------------------------------------
# Ray casting
#
# The sensing, fault and collision functions below act on the flat layout.
# Each element of a trial goes through the same arithmetic whatever the other
# trials hold, so a trial's readings are the same bits in any batch.


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


def pair_distances(poses) -> np.ndarray:
    """(..., N, N) robot-to-robot distances, with inf on the diagonal: entry
    [i, j] is the length of robot j's position minus robot i's."""
    poses = np.asarray(poses, dtype=float)
    rel = poses[..., None, :, :2] - poses[..., :, None, :2]
    dist = np.hypot(rel[..., 0], rel[..., 1])
    idx = np.arange(dist.shape[-1])
    dist[..., idx, idx] = np.inf
    return dist


def proximity_activations(poses, obstacles, swarms: Swarms, observer, rel) -> np.ndarray:
    """Proximity readings of the robots (R, 3) of a flat batch, (R, 7) activations in [0, 1].

    `obstacles` (K, 2) are the batch's box centres, and row m of `rel`
    (M, 2) is the world-frame offset of a robot from robot `observer[m]`;
    `sense` passes the pairs within reach of each other. Activation is
    1 - d / proximity_range clipped to [0, 1], with d the distance from the
    body surface (ROBOT_RADIUS from the centre) to the nearest wall,
    obstacle, or robot along the ray. Only obstacles within reach of a robot
    are ray-cast: anything farther is more than the range away along every
    ray, so its reading would clip to 0 whether it is cast or not.
    """
    poses = np.asarray(poses, dtype=float)
    xy = poses[:, :2]
    angles = poses[:, 2:3] + PROXIMITY_ANGLES
    dirs = np.stack([np.cos(angles), np.sin(angles)], axis=-1)
    t = _ray_wall_t(xy[:, None, :], dirs, swarms.side[:, None])
    if len(swarms.box):
        half = OBSTACLE_SIDE / 2
        robot, box = swarms.box_robot, swarms.box
        centers = np.take(obstacles, box, axis=0)
        reach = swarms.proximity_range + ROBOT_RADIUS + CULL_MARGIN
        near = np.flatnonzero(
            _circle_box_offsets(np.take(xy, robot, axis=0), centers, half)[1] <= reach[robot]
        )
        if len(near):
            robot = robot[near]
            hits = _ray_box_t(
                np.take(xy, robot, axis=0),
                np.take(dirs, robot, axis=0),
                np.take(centers, near, axis=0),
                half,
            )
            np.minimum.at(t, robot, hits)
    if len(observer):
        hits = _ray_circle_t(rel, np.take(dirs, observer, axis=0), ROBOT_RADIUS)
        np.minimum.at(t, observer, hits)
    distance = t - ROBOT_RADIUS
    return np.clip(1.0 - distance / swarms.proximity_range[:, None], 0.0, 1.0)


def body_frame_offsets(poses, observer, rel) -> np.ndarray:
    """(M, 2) world-frame offsets `rel` (M, 2), row m rotated into the body
    frame of robot `observer[m]`."""
    poses = np.asarray(poses, dtype=float)
    cos = np.cos(poses[:, 2])[observer]
    sin = np.sin(poses[:, 2])[observer]
    rx = rel[:, 0] * cos + rel[:, 1] * sin
    ry = -rel[:, 0] * sin + rel[:, 1] * cos
    return np.stack([rx, ry], axis=-1)


def rab_activations(neighbor_rel, observer, rab_range) -> np.ndarray:
    """Range-and-bearing readings of R robots, (R, 8), R = len(rab_range).

    Row p of `neighbor_rel` (M, 2) is a neighbour's offset in the body frame
    of robot `observer[p]`, and `rab_range` (R,) is each robot's sensor
    range. Cone k is centred at k * 45 degrees (cone 0 on the heading). Each
    cone reports the range of its closest neighbour as a fraction of the
    robot's range, or 1 if no neighbour is within range.
    """
    rel = np.asarray(neighbor_rel, dtype=float)
    observer = np.asarray(observer, dtype=int)
    rab_range = np.asarray(rab_range, dtype=float)
    closest = np.full((len(rab_range), N_RAB_CONES), np.inf)
    if len(rel):
        ranges = np.hypot(rel[:, 0], rel[:, 1])
        rows = np.flatnonzero(ranges <= rab_range[observer])
        seen = np.take(rel, rows, axis=0)
        bearings = np.arctan2(seen[:, 1], seen[:, 0])
        cones = np.floor((bearings + RAB_CONE_HALF) / RAB_CONE_WIDTH).astype(int) % N_RAB_CONES
        np.minimum.at(closest, (observer[rows], cones), ranges[rows])
    return np.where(np.isfinite(closest), closest / rab_range[:, None], 1.0)


# ---------------------------------------------------------------------------
# Fault injection and sensing


@dataclass
class _FaultPlan:
    """The fault assignments of a flat batch: (R,) robot masks, actuator
    scales, and the draws of each cycle's noise row (see `_noise_rows`).
    Nothing in it depends on which pairs a cycle reads; `sense` applies it
    to its own rows."""

    pmin: np.ndarray
    pmax: np.ndarray
    prand: np.ndarray
    rofs: np.ndarray
    any_prox: bool
    actuator_scale: np.ndarray  # (R, 2), 1.0 for a working wheel
    draws: list  # (generator, low, high) of each trial with noise, in trial order
    prand_cols: np.ndarray  # (PRAND robots, 5) noise columns, robots in (trial, index) order
    radius_cols: np.ndarray  # (ROFS robots,) columns of the ROFS offset radii
    angle_cols: np.ndarray  # (ROFS robots,) columns of the ROFS offset angles


def _compile_faults(fault_arr: np.ndarray, swarms: Swarms, rngs) -> _FaultPlan:
    """Plan of the (R,) fault assignment `fault_arr`; trial b's noise comes from `rngs[b]`.

    A trial's columns of a cycle's noise row follow those of the trials
    before it: 5 per PRAND robot (ascending robot index, kind 0), then one
    offset radius per ROFS robot (kind 1), then one offset angle per ROFS
    robot (kind 2); its `draws` entry holds each column's bounds.
    """
    prand = fault_arr == int(FaultType.PRAND)
    rofs = fault_arr == int(FaultType.ROFS)
    pmin = fault_arr == int(FaultType.PMIN)
    pmax = fault_arr == int(FaultType.PMAX)
    scale = np.ones(fault_arr.shape + (2,))
    scale[fault_arr == int(FaultType.LW_H), 0] = 0.5
    scale[fault_arr == int(FaultType.RW_H), 1] = 0.5
    scale[fault_arr == int(FaultType.BW_H), :] = 0.5
    low, high = np.array([[0.0, 0.75, -np.pi], [1.0, 1.0, np.pi]])
    draws, kinds = [], []
    for rng, n_prand, n_rofs in zip(
        rngs,
        np.bincount(swarms.trial[prand], minlength=len(rngs)),
        np.bincount(swarms.trial[rofs], minlength=len(rngs)),
    ):
        kind = np.repeat([0, 1, 2], [N_FRONT_PROXIMITY * n_prand, n_rofs, n_rofs])
        if len(kind):
            draws.append((rng, low[kind], high[kind]))
        kinds.append(kind)
    kind = np.concatenate(kinds)
    return _FaultPlan(
        pmin=pmin,
        pmax=pmax,
        prand=prand,
        rofs=rofs,
        any_prox=bool(pmin.any() or pmax.any() or prand.any()),
        actuator_scale=scale,
        draws=draws,
        prand_cols=np.flatnonzero(kind == 0).reshape(-1, N_FRONT_PROXIMITY),
        radius_cols=np.flatnonzero(kind == 1),
        angle_cols=np.flatnonzero(kind == 2),
    )


def _noise_rows(plan: _FaultPlan, n_cycles: int):
    """Yield the noise row of each of `n_cycles` cycles, drawn in blocks of
    NOISE_BLOCK cycles into one reused buffer: one `uniform(low, high,
    size=(m, w))` per trial of `plan.draws`, copied into its w columns,
    which consumes its stream in the order, and with the arithmetic, of one
    draw per cycle, so the rows do not depend on m. A row is a view of the
    buffer, valid until the next row is drawn."""
    block = np.empty((min(NOISE_BLOCK, n_cycles), sum(len(low) for _, low, _ in plan.draws)))
    for start in range(0, n_cycles, NOISE_BLOCK):
        m = min(NOISE_BLOCK, n_cycles - start)
        col = 0
        for rng, low, high in plan.draws:
            block[:m, col : col + len(low)] = rng.uniform(low, high, size=(m, len(low)))
            col += len(low)
        yield from block[:m]


def _both_ways(xy, i, j):
    """(observer, offset) rows of the pairs (i, j) read both ways, (i, j)
    then (j, i); each offset is the neighbour's position minus the
    observer's, so a coincident pair reads +0.0 both ways."""
    observer, neighbor = np.concatenate([i, j]), np.concatenate([j, i])
    return observer, np.take(xy, neighbor, axis=0) - np.take(xy, observer, axis=0)


def sense(poses, obstacles, swarms: Swarms, plan: _FaultPlan, noise):
    """One cycle's faulted (proximity, rab) readings of the robots (R, 3) of
    a flat batch, (R, 7) and (R, 8); `noise` is the cycle's `_noise_rows` row.

    Each pair i < j has its squared distance tested once per sensor, which
    reads it both ways only within its threshold: proximity_range + 2
    ROBOT_RADIUS for proximity; for RAB the observer's range, doubled for a
    ROFS observer, whose offset moves a neighbour by at most the range.
    Each threshold carries CULL_MARGIN, so a pair left out would have read
    0 (proximity) or nothing (RAB).
    """
    xy = np.ascontiguousarray(poses[:, :2])
    i, j = swarms.pair_i, swarms.pair_j
    rel = np.take(xy, j, axis=0) - np.take(xy, i, axis=0)
    square = rel[:, 0] * rel[:, 0] + rel[:, 1] * rel[:, 1]
    reach = swarms.proximity_range + 2 * ROBOT_RADIUS + CULL_MARGIN
    near = np.flatnonzero(square <= (reach * reach)[i])
    proximity = proximity_activations(poses, obstacles, swarms, *_both_ways(xy, i[near], j[near]))
    if plan.any_prox:
        proximity[plan.pmin, :N_FRONT_PROXIMITY] = 0.0
        proximity[plan.pmax, :N_FRONT_PROXIMITY] = 1.0
        proximity[plan.prand, :N_FRONT_PROXIMITY] = noise[plan.prand_cols]
    reach = np.square(np.where(plan.rofs, 2.0, 1.0) * swarms.rab_range + CULL_MARGIN)
    near = np.flatnonzero(square <= np.maximum(reach[i], reach[j]))
    observer, rel = _both_ways(xy, i[near], j[near])
    rel = body_frame_offsets(poses, observer, rel)
    if len(plan.radius_cols):
        r = noise[plan.radius_cols] * swarms.rab_range[plan.rofs]
        theta = noise[plan.angle_cols]
        offsets = np.stack([r * np.cos(theta), r * np.sin(theta)], axis=-1)
        shifted = np.flatnonzero(plan.rofs[observer])
        rank = (np.cumsum(plan.rofs) - 1)[observer[shifted]]  # among the ROFS robots
        rel[shifted] = np.take(rel, shifted, axis=0) + np.take(offsets, rank, axis=0)
    return proximity, rab_activations(rel, observer, swarms.rab_range)


# ---------------------------------------------------------------------------
# Placement and collision resolution


def _circle_box_offsets(xy, centers, half):
    """Offsets (..., 2) of points `xy` from their nearest points on the boxes
    of half side `half` centred at `centers`, broadcast against each other,
    and their lengths (...)."""
    # np.clip's values at a fraction of its call overhead, which placement
    # pays once per attempt
    delta = xy - np.minimum(np.maximum(xy, centers - half), centers + half)
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
                if _circle_box_offsets(xy, obstacles, half)[1].min() < ROBOT_RADIUS:
                    continue
            poses[i, :2] = xy
            poses[i, 2] = rng.uniform(-np.pi, np.pi)
            break
        else:
            raise PlacementError(f"could not place robot {i + 1} of {env.n_robots}")
    poses[:, 2] = wrap_angle(poses[:, 2])
    return obstacles, poses


def _push_out_of_boxes(xy, robot, boxes, r, half) -> np.ndarray:
    """Push discs `xy` (R, 2) out of the boxes they overlap, in place, over
    the (robot, box) pairs `robot` (Q,) and `boxes` (Q, 2); returns the
    robots pushed, once per push.

    A robot's pushes apply in ascending box order, each to the position the
    previous one left. `np.add.at` keeps that order for the usual push along
    the centre-to-box line; a robot whose centre is inside a box takes the
    per-pair loop instead, because its exit reads the current position.
    """
    delta, dist = _circle_box_offsets(np.take(xy, robot, axis=0), boxes, half)
    hits = np.flatnonzero(dist < r)
    if not len(hits):
        return hits
    row, d = robot[hits], dist[hits]
    delta, boxes = np.take(delta, hits, axis=0), np.take(boxes, hits, axis=0)
    pushed = row
    inside_rows = row[d <= 1e-12]
    if len(inside_rows):
        slow = np.isin(row, inside_rows)
        for row_, delta_, box_, d_ in zip(row[slow], delta[slow], boxes[slow], d[slow]):
            if d_ > 1e-12:
                xy[row_] += delta_ / d_ * (r - d_)
            else:  # centre inside the box: exit along the shallower axis
                gap = xy[row_] - box_
                axis = int(np.argmin(half - np.abs(gap)))
                direction = 1.0 if gap[axis] >= 0 else -1.0
                xy[row_, axis] = box_[axis] + direction * (half + r)
        row, d, delta = row[~slow], d[~slow], delta[~slow]
    np.add.at(xy, row, delta / d[:, None] * (r - d)[:, None])
    return pushed


def _push_pairs_apart(xy, i, j, diff, dist):
    """Push the overlapping pairs (i, j) of discs `xy` (R, 2) apart by half
    the overlap each, in place, summing each robot's pushes in the order of
    a loop over the pairs before adding them to its position.

    `dist` is (M,) and `diff` (M, 2), `xy[i] - xy[j]`, over the M pairs `i`,
    `j` in (trial, i, j) order. In the loop a robot's pushes as the j of a
    pair all come before its pushes as the i of one, so `np.add.at` over
    every j-side push followed by every i-side push, each in pair order,
    adds them in the same order.
    """
    distinct = dist > 1e-12
    unit = diff / np.where(distinct, dist, 1.0)[:, None]
    unit[~distinct] = (1.0, 0.0)  # coincident centres
    step = 0.5 * (2 * ROBOT_RADIUS - dist)[:, None] * unit
    push = np.zeros_like(xy)
    np.add.at(push, np.concatenate([j, i]), np.concatenate([-step, step]))
    xy += push


def resolve_collisions(poses, obstacles, swarms: Swarms) -> np.ndarray:
    """Project the robots (R, 3) of a flat batch out of walls, obstacles, and each other.

    `obstacles` (K, 2) are the batch's box centres. Each trial iterates
    positional corrections until no two of its discs overlap by more than
    1e-9 m, for at most MAX_RESOLUTION_PASSES passes; a trial that has
    converged takes no further pass. Walls are clamped last so robots can
    never leave the arena.
    """
    poses = np.array(poses, dtype=float)
    r = ROBOT_RADIUS
    half = OBSTACLE_SIDE / 2.0
    high = (swarms.side - r)[:, None]
    resolved = poses[:, :2].copy()
    # The robots, pairs and (robot, box) pairs of the trials still resolving;
    # robots are rows of `xy`, which is `resolved` until a trial converges.
    xy, ids, trial, wall = resolved, None, swarms.trial, high
    i, j, pair_trial = swarms.pair_i, swarms.pair_j, swarms.pair_trial
    box_robot, boxes = swarms.box_robot, np.take(obstacles, swarms.box, axis=0)
    for _ in range(MAX_RESOLUTION_PASSES):
        np.clip(xy, r, wall, out=xy)
        dirty = np.zeros(swarms.n_trials, dtype=bool)
        pushed = trial[_push_out_of_boxes(xy, box_robot, boxes, r, half)] if len(box_robot) else ()
        if len(i):
            diff = np.take(xy, i, axis=0) - np.take(xy, j, axis=0)
            dist = np.hypot(diff[:, 0], diff[:, 1])
            p = np.flatnonzero(2 * r - dist > PAIR_OVERLAP_TOL)
            if len(p):
                dirty[pair_trial[p]] = True
                _push_pairs_apart(xy, i[p], j[p], np.take(diff, p, axis=0), dist[p])
        if len(pushed):
            # A trial that nothing pushes in this pass stays clipped and clear
            # of every box, so only pushed trials need the wall and box checks.
            check = np.zeros(swarms.n_trials, dtype=bool)
            check[pushed] = ~dirty[pushed]
            pairs = check[trial[box_robot]]
            moved = np.take(xy, box_robot[pairs], axis=0)
            inside_box = _circle_box_offsets(moved, boxes[pairs], half)[1]
            dirty[trial[box_robot[pairs][inside_box < r - PAIR_OVERLAP_TOL]]] = True
            robots = check[trial]
            moved = xy[robots]
            off_arena = ((moved < r) | (moved > wall[robots])).any(axis=1)
            dirty[trial[robots][off_arena]] = True
        keep = dirty[trial]
        if keep.all():
            continue
        if not keep.any():
            break
        # renumber the robots of the trials that go on
        if ids is None:
            ids, xy = np.flatnonzero(keep), xy[keep]
        else:
            resolved[ids] = xy
            ids, xy = ids[keep], xy[keep]
        row = np.cumsum(keep) - 1
        pairs = dirty[pair_trial]
        i, j, pair_trial = row[i[pairs]], row[j[pairs]], pair_trial[pairs]
        pairs = keep[box_robot]
        box_robot, boxes = row[box_robot[pairs]], boxes[pairs]
        trial, wall = trial[keep], wall[keep]
    if ids is not None:
        resolved[ids] = xy
    np.clip(resolved, r, high, out=poses[:, :2])
    return poses


# ---------------------------------------------------------------------------
# Trial execution


def run_trials(envs, genomes, faults, seeds, duration: float = 400.0, fields=LOG_FIELDS) -> list:
    """Simulate B trials that share `duration`; one TrialLog each, recording
    the LOG_FIELDS named in `fields` (all by default) and `poses` always.

    Trial b runs `genomes[b]` in environment `envs[b]` under the fault
    assignment `faults[b]` (None for fault free) from `seeds[b]`; the
    environments may differ in every attribute, swarm size included. Robots
    and obstacles are placed uniformly at random without overlap; the swarms
    then run duration / 0.2 control cycles of faulted sensing (`sense`), clonal
    controller update, actuation, integration, and collision resolution, all
    B trials in one set of numpy operations per cycle on the flat layout of
    `swarm_layout(envs)`. Each run of consecutive trials of one swarm size n
    is one contiguous row range of that layout: its controllers step as one
    stacked matmul of (trials, n, ...) arrays, so each trial's products have
    the shapes they have alone, and it logs into one array per field, so a
    trial's log arrays are contiguous (T, n, ...) views. Each trial keeps
    its own RNG (its placement, then its fault noise, drawn NOISE_BLOCK
    cycles at a time by `_noise_rows`), controller state and collision
    passes, so its log is a deterministic function of its own arguments:
    bit-identical alone or in any batch, whatever fields are recorded (a
    field left out is None and costs no memory; `trial_bytes` counts what a
    trial holds). A trial whose (env, seed) pair came earlier in the call
    copies that trial's obstacles and poses and gets a new generator set to
    its post-placement state, instead of placing again; the copies live only
    as long as the call.

    Raises PlacementError for the first trial that cannot be placed. An empty
    batch, argument lists of different lengths, a fault assignment whose
    length is not its swarm size, a duration that rounds to no control
    cycle, or a field name outside LOG_FIELDS raise ValueError before any
    placement.
    """
    batch = len(seeds)
    if not batch:
        raise ValueError("run_trials needs at least one trial")
    if not len(envs) == len(genomes) == len(faults) == batch:
        raise ValueError("envs, genomes, faults and seeds differ in length")
    n_cycles = int(round(duration / CONTROL_DT))
    if n_cycles < 1:
        raise ValueError(f"duration {duration!r} s is under one {CONTROL_DT} s control cycle")
    recorded = _recorded(fields)
    swarms = swarm_layout(envs)
    robots = [slice(lo, hi) for lo, hi in zip(swarms.bounds, swarms.bounds[1:])]
    boxes = [slice(lo, hi) for lo, hi in zip(swarms.box_bounds, swarms.box_bounds[1:])]
    fault_arr = np.full(len(swarms.trial), int(FaultType.NONE))
    for env, assignment, rows in zip(envs, faults, robots):
        if assignment is not None:
            if len(assignment) != env.n_robots:
                raise ValueError(
                    f"fault assignment length {len(assignment)} != swarm size {env.n_robots}"
                )
            fault_arr[rows] = [int(f) for f in assignment]
    rngs = []
    obstacles = np.empty((swarms.box_bounds[-1], 2))
    poses = np.empty((swarms.bounds[-1], 3))
    # (env, seed) -> obstacles, poses and generator state after placement
    placed = {}
    for env, seed, rows, box_rows in zip(envs, seeds, robots, boxes):
        rng = np.random.default_rng(seed)
        key = (env, seed)
        if key in placed:
            obstacles[box_rows], poses[rows], rng.bit_generator.state = placed[key]
        else:
            obstacles[box_rows], poses[rows] = place_entities(rng, env)
            placed[key] = (obstacles[box_rows], poses[rows], rng.bit_generator.state)
        rngs.append(rng)
    plan = _compile_faults(fault_arr, swarms, rngs)

    # Each run of consecutive trials of one swarm size holds its controllers'
    # (trials, n, ...) inputs and state, and one (trials, T, n, ...) log array
    # per recorded field, so that a trial's arrays are contiguous views and
    # the log costs 8 bytes per recorded value of a robot-cycle.
    runs, first = [], 0
    for n, group in itertools.groupby(env.n_robots for env in envs):
        count = len(list(group))
        rows = slice(swarms.bounds[first], swarms.bounds[first + count])
        net = CompiledNetwork(genomes[first : first + count])
        inputs = np.empty((count, n, N_INPUTS))
        inputs[..., BIAS_INDEX] = 1.0
        arrays = [np.empty((count, n_cycles, n) + LOG_FIELDS[name]) for name in recorded]
        runs.append([rows, (count, n), net, net.initial_state(n), inputs, arrays])
        first += count
    outputs = np.empty((len(swarms.trial), N_OUTPUTS))

    for t, noise in enumerate(_noise_rows(plan, n_cycles)):
        prox, rab = sense(poses, obstacles, swarms, plan, noise)

        for run in runs:
            rows, _, net, state, inputs, _ = run
            flat = inputs.reshape(-1, N_INPUTS)
            flat[:, :N_PROXIMITY_RAYS] = sensor_input_scale(prox[rows])
            flat[:, N_PROXIMITY_RAYS:BIAS_INDEX] = sensor_input_scale(rab[rows])
            run[3] = state = net.step(state, inputs)
            outputs[rows] = net.outputs(state).reshape(-1, N_OUTPUTS)
        # a working wheel's scale is 1.0, and x * 1.0 is x bit for bit
        commands = outputs * swarms.speed[:, None] * plan.actuator_scale

        moved, v, omega = differential_drive_step(poses, commands)
        values = dict(zip(LOG_FIELDS, (poses, prox, rab, commands, v, omega)))
        for rows, shape, *_, arrays in runs:
            for array, name in zip(arrays, recorded):
                value = values[name]
                array[:, t] = value[rows].reshape(shape + value.shape[1:])

        poses = resolve_collisions(moved, obstacles, swarms)

    logs = [
        dict.fromkeys(LOG_FIELDS) | dict(zip(recorded, (array[k] for array in arrays)))
        for _, (count, _), *_, arrays in runs
        for k in range(count)
    ]
    return [
        TrialLog(env=env, obstacles=obstacles[box_rows], **log, final_poses=poses[rows].copy())
        for env, log, rows, box_rows in zip(envs, logs, robots, boxes)
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
