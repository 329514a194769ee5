"""The trial-batched kernel against the per-trial oracle, and the evaluation
layer above it: a trial's log, and a job's result, must not depend on what
else runs in the same batch, chunk, or worker pool."""

import dataclasses
import gc
import itertools
import os
import random
import tracemalloc
import weakref

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import oracles
import qdswarm.tasks as tasks
from qdswarm.environment import (
    ARENA_SIDES,
    MAX_LINEAR_SPEEDS,
    NORMAL_ENV,
    OBSTACLE_COUNTS,
    PROXIMITY_RANGES,
    RAB_RANGES,
    SWARM_SIZES,
    EnvironmentSpec,
    generate_environment,
)
from qdswarm.descriptors import DESCRIPTORS, describe
from qdswarm.genome import CompiledNetwork, Connection, Genome, random_genome
from qdswarm.recovery import sample_combined_fault
from qdswarm.sim import LOG_FIELDS as SIM_LOG_FIELDS
from qdswarm.sim import (
    CONTROL_DT,
    CULL_MARGIN,
    CYCLE_BYTES_PER_ROBOT,
    MAX_RESOLUTION_PASSES,
    NOISE_BLOCK,
    OBSTACLE_SIDE,
    ROBOT_RADIUS,
    TRIAL_BATCH_BYTES,
    FaultType,
    PlacementError,
    TrialLog,
    _compile_faults,
    _noise_rows,
    place_entities,
    rab_activations,
    resolve_collisions,
    run_trial,
    run_trials,
    sense,
    swarm_layout,
    trial_bytes,
)
from qdswarm.tasks import FITNESS, TaskKind, evaluate_jobs, evaluator

LOG_FIELDS = (
    "poses",
    "proximity",
    "rab",
    "commands",
    "linear_velocity",
    "angular_velocity",
    "final_poses",
)


def bits_equal(a, b) -> bool:
    """Equal values and equal signs of zero."""
    return np.array_equal(a, b) and np.array_equal(np.signbit(a), np.signbit(b))


def assert_logs_identical(log, ref):
    assert bits_equal(log.obstacles, ref.obstacles)
    assert log.env == ref.env
    for field in LOG_FIELDS:
        assert bits_equal(getattr(log, field), getattr(ref, field)), field


def _genome_with_hidden(hidden: int, seed: int) -> Genome:
    rng = np.random.default_rng(seed)
    while True:
        genome = random_genome(rng)
        if genome.hidden == hidden and len(genome.connections) >= 10:
            return genome


GENOMES = (
    Genome(),  # no hidden units, no connections: every output is tanh(0)
    Genome(0, (Connection(15, 16, -2.0), Connection(15, 17, 2.0))),  # spins on the bias
    _genome_with_hidden(0, 1),
    _genome_with_hidden(20, 2),
    _genome_with_hidden(20, 3),
    # Padded to 22 units next to a 20-hidden genome: BLAS must not sum the
    # nonzero terms in another order when K grows.
    _genome_with_hidden(3, 4),
    _genome_with_hidden(7, 5),
    _genome_with_hidden(13, 6),
)
N_FAULT_TYPES = len(FaultType)


def _fault_lists(n):
    return st.one_of(
        st.none(), st.lists(st.sampled_from(list(FaultType)), min_size=n, max_size=n)
    )


@st.composite
def _mixed_trial(draw):
    env = draw(
        st.builds(
            EnvironmentSpec,
            max_linear_speed=st.sampled_from(MAX_LINEAR_SPEEDS),
            n_robots=st.sampled_from(SWARM_SIZES),
            arena_side=st.sampled_from(ARENA_SIDES),
            n_obstacles=st.sampled_from(OBSTACLE_COUNTS),
            rab_range=st.sampled_from(RAB_RANGES),
            proximity_range=st.sampled_from(PROXIMITY_RANGES),
        )
    )
    genome = draw(st.sampled_from(GENOMES))
    return env, genome, draw(_fault_lists(env.n_robots)), draw(st.integers(0, 2**32 - 1))


@st.composite
def trial_batches(draw, mixed=False):
    """(envs, genomes, faults, seeds) of 1-40 trials: all in one crowded
    environment of 5 or 20 robots or, when `mixed`, each in its own
    environment drawn from the 4^6 attribute sets, swarm size included."""
    if mixed:
        trial = _mixed_trial()
    else:
        n = draw(st.sampled_from([5, 20]))
        env = EnvironmentSpec(
            max_linear_speed=0.20,
            n_robots=n,
            arena_side=2.0,
            n_obstacles=draw(st.sampled_from([0, 6])),
            rab_range=draw(st.sampled_from(RAB_RANGES)),
            proximity_range=draw(st.sampled_from(PROXIMITY_RANGES)),
        )
        trial = st.tuples(
            st.just(env), st.sampled_from(GENOMES), _fault_lists(n), st.integers(0, 2**32 - 1)
        )
    trials = draw(st.lists(trial, min_size=1, max_size=40))
    return tuple(list(column) for column in zip(*trials))


EVERY_FAULT = [FaultType(i % N_FAULT_TYPES) for i in range(20)]
ROFS_AND_PRAND = [FaultType.ROFS, FaultType.PRAND, FaultType.NONE, FaultType.PRAND, FaultType.ROFS]
BATCH_SETTINGS = settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)


def assert_batch_matches_oracle(batch):
    envs, genomes, faults, seeds = batch
    logs = run_trials(envs, genomes, faults, seeds, duration=1.6)
    assert len(logs) == len(seeds)
    for env, genome, fault, seed, log in zip(envs, genomes, faults, seeds, logs):
        assert_logs_identical(log, oracles.run_trial(env, genome, fault, seed, duration=1.6))


@BATCH_SETTINGS
@given(trial_batches())
@example(
    (
        [EnvironmentSpec(max_linear_speed=0.20, n_robots=20, arena_side=2.0, n_obstacles=6)]
        * (2 * len(GENOMES)),
        list(GENOMES) * 2,
        ([EVERY_FAULT, None, [FaultType.PRAND] * 20, [FaultType.ROFS] * 20, EVERY_FAULT[::-1]] * 4)[
            : 2 * len(GENOMES)
        ],
        list(range(2 * len(GENOMES))),
    )
)
@example(
    (
        [EnvironmentSpec(max_linear_speed=0.20, n_robots=5, arena_side=2.0, n_obstacles=0)],
        [GENOMES[3]],
        [[FaultType.PRAND, FaultType.ROFS, FaultType.PRAND, FaultType.ROFS, FaultType.NONE]],
        [7],
    )
)
def test_batched_logs_match_per_trial_oracle(batch):
    assert_batch_matches_oracle(batch)


@BATCH_SETTINGS
@given(trial_batches(mixed=True))
@example(
    (
        [
            EnvironmentSpec(0.20, 5, 2.0, 6, 2.00, 0.44),
            EnvironmentSpec(0.05, 5, 5.0, 0, 0.25, 0.055),
            EnvironmentSpec(0.15, 5, 3.0, 2, 1.00, 0.22),
            EnvironmentSpec(0.10, 5, 4.0, 6, 0.50, 0.11),
        ],
        GENOMES[1:5],
        [[FaultType.ROFS] * 5, None, EVERY_FAULT[:5], None],
        [11, 12, 13, 14],
    )
)
@example(
    (
        [
            EnvironmentSpec(0.20, 5, 2.0, 6, 2.00, 0.44),
            EnvironmentSpec(0.20, 20, 2.0, 0, 1.00, 0.22),
            EnvironmentSpec(0.15, 20, 3.0, 6, 0.50, 0.11),
            EnvironmentSpec(0.10, 5, 2.0, 0, 0.25, 0.055),
            EnvironmentSpec(0.20, 20, 2.0, 6, 2.00, 0.44),
        ],
        [GENOMES[3], GENOMES[4], GENOMES[2], GENOMES[1], GENOMES[5]],
        [
            [FaultType.ROFS] * 5,
            [FaultType.PRAND] * 20,
            [FaultType.ROFS, FaultType.PRAND] * 10,
            ROFS_AND_PRAND,
            None,
        ],
        [21, 22, 23, 24, 25],
    )
)
def test_mixed_environment_batches_match_per_trial_oracle(batch):
    assert_batch_matches_oracle(batch)


def test_one_robot_trials_match_per_trial_oracle_next_to_larger_swarms():
    """A lone controller row rounds differently from a padded one in BLAS,
    so one-robot trials keep their bits next to larger swarms too."""
    lone = EnvironmentSpec(max_linear_speed=0.20, n_robots=1, arena_side=2.0, n_obstacles=2)
    envs = [lone, REPEATED_ENVS[0], lone, EnvironmentSpec(n_robots=20, arena_side=3.0)]
    assert_batch_matches_oracle(
        (envs, [GENOMES[3], GENOMES[4], GENOMES[5], GENOMES[2]], [None] * 4, [1, 2, 3, 4])
    )


@pytest.mark.parametrize("sizes", [[10, 5, 10, 1, 20, 5], [5, 5, 1, 1, 20, 10, 10]])
def test_controllers_step_each_run_of_one_swarm_size_unpadded(sizes, monkeypatch):
    """Each run of consecutive trials of one swarm size steps its controllers
    as one stack whose robot axis is that swarm size, so no stack holds a
    padded robot row, and the batch keeps the per-trial oracle's bits."""
    envs = [EnvironmentSpec(0.20, n, 3.0, 2, 1.00, 0.22) for n in sizes]
    genomes = [GENOMES[2 + b % 6] for b in range(len(sizes))]
    faults = [None if b % 2 else [FaultType.PRAND] * n for b, n in enumerate(sizes)]
    shapes = []
    step = CompiledNetwork.step

    def spy(self, state, inputs):
        shapes.append(inputs.shape[:2])
        return step(self, state, inputs)

    monkeypatch.setattr(CompiledNetwork, "step", spy)
    assert_batch_matches_oracle((envs, genomes, faults, list(range(len(sizes)))))
    runs = [(len(list(group)), n) for n, group in itertools.groupby(sizes)]
    assert shapes == runs * 8  # 1.6 s is 8 control cycles


# Two environments of one swarm size and three seeds, so (environment, seed)
# pairs repeat within a batch under other genomes and faults.
REPEATED_ENVS = (
    EnvironmentSpec(max_linear_speed=0.20, n_robots=5, arena_side=2.0, n_obstacles=6),
    EnvironmentSpec(0.10, 5, 3.0, 2, 0.50, 0.11),
)
@st.composite
def repeated_key_batches(draw):
    """(envs, genomes, faults, seeds) of 2-24 five-robot trials whose
    environment comes from a pool of 2 and whose seed from a pool of 3."""
    seeds = draw(st.lists(st.integers(0, 2**32 - 1), min_size=3, max_size=3, unique=True))
    fault = st.one_of(
        st.none(),
        st.just(ROFS_AND_PRAND),
        st.lists(st.sampled_from(list(FaultType)), min_size=5, max_size=5),
    )
    trials = draw(
        st.lists(
            st.tuples(
                st.sampled_from(REPEATED_ENVS),
                st.sampled_from(GENOMES),
                fault,
                st.sampled_from(seeds),
            ),
            min_size=2,
            max_size=24,
        )
    )
    return tuple(list(column) for column in zip(*trials))


@BATCH_SETTINGS
@given(repeated_key_batches())
@example(
    (
        [REPEATED_ENVS[0], REPEATED_ENVS[0], REPEATED_ENVS[1], REPEATED_ENVS[0], REPEATED_ENVS[1]],
        [GENOMES[3], GENOMES[4], GENOMES[3], GENOMES[2], GENOMES[5]],
        [ROFS_AND_PRAND, [FaultType.PRAND] * 5, None, [FaultType.ROFS] * 5, ROFS_AND_PRAND],
        [5, 5, 5, 6, 5],
    )
)
def test_repeated_placements_match_per_trial_oracle(batch):
    """A trial whose (environment, seed) came earlier in the batch starts from
    a copy of that trial's placement and post-placement generator state, and
    its log is still the one it has alone."""
    assert_batch_matches_oracle(batch)


def test_repeated_crowded_key_fails_at_its_first_index():
    crowded = EnvironmentSpec(n_robots=20, arena_side=0.8, n_obstacles=2)  # seed 0 fails, 1 places
    genomes = [GENOMES[1], GENOMES[3], Genome(), GENOMES[3]]
    faults = [None, [FaultType.ROFS] * 20, None, [FaultType.PRAND] * 20]
    assert_batch_matches_oracle(([crowded] * 2, genomes[:2], faults[:2], [1, 1]))
    with pytest.raises(PlacementError) as info:
        run_trials([crowded] * 4, genomes, faults, [1, 1, 0, 0], duration=1.0)
    with pytest.raises(PlacementError) as alone:
        oracles.run_trial(crowded, Genome(), None, 0, 1.0)
    assert str(info.value) == str(alone.value)


def test_run_trial_is_a_batch_of_one():
    faults = [FaultType.PRAND, FaultType.ROFS] * 5
    alone = run_trial(NORMAL_ENV, GENOMES[3], faults=faults, seed=4, duration=2.0)
    (batched,) = run_trials([NORMAL_ENV], [GENOMES[3]], [faults], [4], duration=2.0)
    assert_logs_identical(alone, batched)
    assert_logs_identical(alone, oracles.run_trial(NORMAL_ENV, GENOMES[3], faults, 4, 2.0))


def test_fault_noise_keeps_its_bits_across_noise_blocks():
    """Over two whole noise blocks and a short one, a combined-fault trial
    with PRAND and ROFS robots, a ROFS-only trial with boxes and a
    fault-free trial keep the oracle's per-cycle draws bit for bit: each
    block continues its trial's stream, cycle by cycle."""
    n_cycles = 2 * NOISE_BLOCK + 22
    duration = n_cycles * CONTROL_DT
    combined = [FaultType(i % N_FAULT_TYPES) for i in range(10)]  # PRAND robot 2, ROFS robot 6
    boxes = EnvironmentSpec(max_linear_speed=0.20, n_robots=5, arena_side=2.0, n_obstacles=2)
    envs = [NORMAL_ENV, boxes, NORMAL_ENV]
    genomes = [GENOMES[3], GENOMES[4], GENOMES[2]]
    faults = [combined, [FaultType.ROFS] * 5, None]
    seeds = [8, 9, 10]
    logs = run_trials(envs, genomes, faults, seeds, duration)
    for env, genome, fault, seed, log in zip(envs, genomes, faults, seeds, logs):
        assert log.n_cycles == n_cycles
        assert_logs_identical(log, oracles.run_trial(env, genome, fault, seed, duration))


def test_fault_noise_holds_one_block_and_one_draw():
    """Drawing the noise of a batch of 54 trials with every robot PRAND, the
    size of a desk faults batch, holds one NOISE_BLOCK-cycle block and one
    trial's draw at a time."""
    envs = [NORMAL_ENV] * 54
    swarms = swarm_layout(envs)
    fault_arr = np.full(len(swarms.trial), int(FaultType.PRAND))
    plan = _compile_faults(fault_arr, swarms, [np.random.default_rng(s) for s in range(54)])
    widths = [len(low) for _, low, _ in plan.draws]
    bound = 8 * NOISE_BLOCK * (sum(widths) + max(widths))
    tracemalloc.start()
    try:
        for _ in _noise_rows(plan, 2 * NOISE_BLOCK + 22):
            pass
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 1.1 * bound


@pytest.mark.parametrize(
    "envs, seeds, message",
    [
        ([], [], "at least one trial"),
        ([NORMAL_ENV], [1, 2], "differ in length"),
    ],
    ids=["empty", "envs-length"],
)
def test_malformed_batch_rejected(envs, seeds, message):
    with pytest.raises(ValueError, match=message):
        run_trials(envs, [Genome()] * len(seeds), [None] * len(seeds), seeds, duration=1.0)


def test_lean_logs_hold_the_full_logs_bits():
    """A call that records some fields gives them the bits of a full call
    and leaves the others None; poses and final poses are always there."""
    boxed = EnvironmentSpec(n_robots=5, arena_side=1.0, n_obstacles=2)
    faults = [ROFS_AND_PRAND * 2, ROFS_AND_PRAND]
    args = ([NORMAL_ENV, boxed], [GENOMES[3], GENOMES[4]], faults, [4, 5])
    full = run_trials(*args, duration=1.0)
    for fields in [(), ("rab",), ("commands", "linear_velocity", "poses")]:
        for log, ref in zip(run_trials(*args, duration=1.0, fields=fields), full):
            for name in LOG_FIELDS:
                if name in ("poses", "final_poses", *fields):
                    assert bits_equal(getattr(log, name), getattr(ref, name)), (fields, name)
                else:
                    assert getattr(log, name) is None, (fields, name)
    with pytest.raises(ValueError, match="unknown log fields"):
        run_trials(*args, duration=1.0, fields=("pose",))


# ---------------------------------------------------------------------------
# Range and bearing


RAB_RANGE = 0.5


def _at_bearing(degrees, distance=0.3):
    theta = np.radians(degrees)
    return (distance * np.cos(theta), distance * np.sin(theta))


RAB_BOUNDARY_CASES = {
    "at-range": [(RAB_RANGE, 0.0), (0.0, -RAB_RANGE), (-RAB_RANGE, 0.0), (0.3, 0.4)],
    "just-beyond": [
        (np.nextafter(RAB_RANGE, np.inf), 0.0),
        (0.0, -np.nextafter(RAB_RANGE, np.inf)),
        (0.3, np.nextafter(0.4, np.inf)),
    ],
    "cone-edges": [_at_bearing(a) for a in (22.5, -22.5, 157.5, -157.5, 180.0, -180.0)]
    + [(-0.3, 0.0), (-0.3, -0.0)],
    "coincident": [(0.0, 0.0), (-0.0, 0.0), (0.0, -0.0), (-0.0, -0.0)],
}


@pytest.mark.parametrize("case", sorted(RAB_BOUNDARY_CASES))
def test_rab_boundaries_match_oracle(case):
    """Each neighbour alone, then all of them together."""
    rel = np.array(RAB_BOUNDARY_CASES[case])
    for neighbours in (rel[:, None, :], rel[None]):
        rows, count = neighbours.shape[:2]
        observer = np.repeat(np.arange(rows), count)
        got = rab_activations(neighbours.reshape(-1, 2), observer, np.full(rows, RAB_RANGE))
        assert bits_equal(got, oracles.rab_activations(neighbours, RAB_RANGE))


def _sense_against_oracle(poses, obstacles, envs, fault_arr, seeds):
    """`sense` over one flat batch of one trial per env, and each trial's
    (proximity, rab) from the oracle; robots of trial b are `poses` rows in
    (trial, index) order, its box centres `obstacles` rows in trial order,
    and it draws its noise from `seeds[b]`."""
    swarms = swarm_layout(envs)
    rngs = [np.random.default_rng(seed) for seed in seeds]
    plan = _compile_faults(fault_arr, swarms, rngs)
    cos, sin = np.cos(poses[:, 2]), np.sin(poses[:, 2])
    noise = next(_noise_rows(plan, 1))
    got = sense(poses, cos, sin, obstacles[swarms.box], swarms, plan, noise)
    want = []
    for env, seed, lo, hi, first, last in zip(
        envs, seeds, swarms.bounds, swarms.bounds[1:], swarms.box_bounds, swarms.box_bounds[1:]
    ):
        body = oracles.RobotBody.from_env(env)
        prox = oracles.proximity_activations(
            poses[lo:hi], oracles.ArenaSpec(env.arena_side, obstacles[first:last]), body
        )
        rel, rng = oracles.body_frame_offsets(poses[lo:hi]), np.random.default_rng(seed)
        want.append(oracles.apply_sensor_faults(prox, rel, fault_arr[lo:hi], env.rab_range, rng))
    return got, tuple(np.concatenate(arrays) for arrays in zip(*want))


def test_rofs_offsets_move_neighbours_across_the_range():
    """Robots 0 and 3 have ROFS, at the centres of two clusters more than
    twice the range apart. Each has one neighbour just inside the range
    along its drawn offset, which the offset carries out; robot 0 has one
    just beyond the range opposite it, and robot 3 one 1.5 ranges away
    opposite it, which the offset brings within range. Every robot heads
    along 0, so body-frame offsets are world offsets. `sense` equals the
    oracle bit for bit."""
    env = EnvironmentSpec(n_robots=6, rab_range=RAB_RANGE)
    fault_arr = np.full(6, int(FaultType.NONE))
    fault_arr[[0, 3]] = FaultType.ROFS
    plan = _compile_faults(fault_arr, swarm_layout([env]), [np.random.default_rng(5)])
    theta = next(_noise_rows(plan, 1))[plan.angle_cols]
    unit = np.stack([np.cos(theta), np.sin(theta)], axis=-1)
    poses = np.zeros((6, 3))
    for robot, centre, u, beyond in ((0, 1.0, unit[0], 1.01), (3, 3.0, unit[1], 1.5)):
        steps = np.array([0.0, 0.99, -beyond])[:, None]
        poses[robot : robot + 3, :2] = centre + RAB_RANGE * steps * u
    (got_prox, got), (want_prox, want) = _sense_against_oracle(
        poses, np.empty((0, 2)), [env], fault_arr, [5]
    )
    assert bits_equal(got, want) and bits_equal(got_prox, want_prox)
    clean = oracles.rab_activations(oracles.body_frame_offsets(poses), RAB_RANGE)
    for robot in (0, 3):
        # one neighbour read before the offset, the other one after it
        assert (clean[robot] < 1).sum() == (got[robot] < 1).sum() == 1
        assert not np.array_equal(clean[robot], got[robot])
    others = fault_arr == FaultType.NONE
    assert bits_equal(got[others], clean[others])


def test_coincident_robots_sense_as_the_oracle():
    """Two robots at one position read +0.0 offsets both ways, under every
    pair of headings: a reverse offset written as the negated forward one
    would read -0.0 and, at heading 0, put the neighbour in cone 4, not 0."""
    headings = [0.0, np.pi / 2, np.pi, -np.pi / 2, 0.3, -2.5, 3 * np.pi / 4]
    pairs = list(itertools.product(headings, repeat=2))
    envs = [EnvironmentSpec(n_robots=2, rab_range=RAB_RANGE)] * len(pairs)
    poses = np.array([(2.0, 2.0, h) for pair in pairs for h in pair])
    fault_arr = np.full(len(poses), int(FaultType.NONE))
    (got_prox, got), (want_prox, want) = _sense_against_oracle(
        poses, np.empty((0, 2)), envs, fault_arr, range(len(pairs))
    )
    assert bits_equal(got_prox, want_prox) and bits_equal(got, want)
    assert np.all((got == 0).sum(axis=1) == 1)  # the twin, at range 0


def _around(d):
    return [np.nextafter(d, -np.inf), d, np.nextafter(d, np.inf)]


def _cull_edges(env, surface):
    """Distances from a robot's centre to what it senses, around where its
    reading reaches 0 (the range past `surface`, ROBOT_RADIUS for a wall or
    box and 2 ROBOT_RADIUS for a neighbour's centre: 1 ulp either side, and
    CULL_MARGIN inside) and around the cull's cut-off CULL_MARGIN beyond
    (1 ulp and CULL_MARGIN / 2 either side)."""
    zero = env.proximity_range + surface
    reach = zero + CULL_MARGIN
    return [
        zero - CULL_MARGIN,
        *_around(zero),
        *_around(reach),
        reach - CULL_MARGIN / 2,
        reach + CULL_MARGIN / 2,
    ]


def test_proximity_cull_is_exact_at_its_edges():
    """Robots facing each wall, a box face, a box corner or a neighbour
    across the distances where their reading reaches 0 and where the cull
    stops casting rays: one batch reads the oracle's bits, and the nearest
    of them read more than 0."""
    side, half = NORMAL_ENV.arena_side, OBSTACLE_SIDE / 2
    alone, boxed = EnvironmentSpec(n_robots=1), EnvironmentSpec(n_robots=1, n_obstacles=1)
    pair = EnvironmentSpec(n_robots=2)
    box = np.array([2.0, 2.0])
    corner = box - half
    envs, obstacles, poses = [], [], []
    for d in _cull_edges(alone, ROBOT_RADIUS):
        walls = [
            (d, 2.0, np.pi),
            (side - d, 2.0, 0.0),
            (2.0, d, -np.pi / 2),
            (2.0, side - d, np.pi / 2),
        ]
        envs += [alone] * len(walls)
        poses += walls
        envs += [boxed, boxed]
        obstacles += [box, box]
        poses += [(corner[0] - d, 2.0, 0.0), (*(corner - d / np.sqrt(2.0)), np.pi / 4)]
    for d in _cull_edges(pair, 2 * ROBOT_RADIUS):
        envs.append(pair)
        poses += [(2.0, 2.0, 0.0), (2.0 + d, 2.0, np.pi)]
    poses = np.array(poses)
    fault_arr = np.full(len(poses), int(FaultType.NONE))
    (got_prox, got_rab), (want_prox, want_rab) = _sense_against_oracle(
        poses, np.array(obstacles), envs, fault_arr, range(len(envs))
    )
    assert bits_equal(got_prox, want_prox) and bits_equal(got_rab, want_rab)
    assert (got_prox[:, 2] > 0).sum() >= 6  # a wall, a face, a corner and a neighbour at least


@st.composite
def _near_walls(draw):
    """One trial's env, box centres and robot poses, each robot within 0.5 m
    of a wall, where uniform placement rarely puts it."""
    env = draw(
        st.builds(
            EnvironmentSpec,
            n_robots=st.sampled_from([1, 2, 5]),
            arena_side=st.sampled_from(ARENA_SIDES),
            n_obstacles=st.sampled_from([0, 1, 2]),
            rab_range=st.sampled_from(RAB_RANGES),
            proximity_range=st.sampled_from(PROXIMITY_RANGES),
        )
    )
    side, half = env.arena_side, OBSTACLE_SIDE / 2
    inside = st.floats(ROBOT_RADIUS, side - ROBOT_RADIUS)
    # a side over the sine of a heading under 1e-300 overflows, in the oracle too
    heading = st.floats(-np.pi, np.pi).filter(lambda h: h == 0 or abs(h) > 1e-300)
    poses = []
    for _ in range(env.n_robots):
        gap = draw(st.floats(ROBOT_RADIUS, 0.5))
        wall = draw(st.sampled_from([gap, side - gap]))
        along = draw(inside)
        xy = (wall, along) if draw(st.booleans()) else (along, wall)
        poses.append((*xy, draw(heading)))
    centre = st.floats(half, side - half)
    obstacles = [(draw(centre), draw(centre)) for _ in range(env.n_obstacles)]
    faults = draw(_fault_lists(env.n_robots))
    return env, np.array(obstacles).reshape(-1, 2), np.array(poses), faults


@BATCH_SETTINGS
@given(st.lists(_near_walls(), min_size=1, max_size=8))
def test_sense_near_walls_matches_oracle(trials):
    envs, obstacles, poses, faults = zip(*trials)
    fault_arr = np.concatenate(
        [np.full(env.n_robots, int(FaultType.NONE)) if f is None else np.array(f, dtype=int)
         for env, f in zip(envs, faults)]
    )
    got, want = _sense_against_oracle(
        np.concatenate(poses), np.concatenate(obstacles), list(envs), fault_arr, range(len(envs))
    )
    assert bits_equal(got[0], want[0]) and bits_equal(got[1], want[1])


# ---------------------------------------------------------------------------
# Placement


def _placement_envs():
    """Sampled environments of the 4^6 space, then crowded ones: one that
    places only from some seeds, two that never place a robot, and one that
    cannot place its second obstacle."""
    rng = np.random.default_rng(9)
    return [generate_environment(rng) for _ in range(40)] + [
        EnvironmentSpec(n_robots=20, arena_side=0.8, n_obstacles=2),
        EnvironmentSpec(n_robots=10, arena_side=0.25),
        EnvironmentSpec(n_robots=20, arena_side=0.5, n_obstacles=1),
        EnvironmentSpec(n_robots=5, arena_side=0.5, n_obstacles=6),
    ]


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_placement_matches_oracle(seed):
    """Same arrays, or the same PlacementError message, and the generator
    left at the same point of its stream."""
    for env in _placement_envs():
        outcomes = []
        for place in (place_entities, oracles.place_entities):
            rng = np.random.default_rng(seed)
            try:
                placed = place(rng, env)
            except PlacementError as exc:
                placed = str(exc)
            outcomes.append((placed, rng.random()))
        (got, got_next), (want, want_next) = outcomes
        assert got_next == want_next, env
        if isinstance(want, str):
            assert got == want, env
        else:
            assert bits_equal(got[0], want[0]) and bits_equal(got[1], want[1]), env


# ---------------------------------------------------------------------------
# Collision resolution


BODY = oracles.RobotBody.from_env(NORMAL_ENV)


def _crowded_cases(n=12, seed=0):
    """(obstacles, poses) of n robots and 2 boxes in a 1 m arena, one case
    per pose configuration the resolver branches on."""
    rng = np.random.default_rng(seed)
    cases = []
    for kind in ("inside", "coincident", "jammed", "spread", "cluster", "straddle"):
        obstacles = np.array([[0.3, 0.3], [0.7, 0.6]])
        if kind == "straddle":
            obstacles[1] = [0.58, 0.3]
        if kind == "spread":
            xy = np.array([[0.08 + 0.075 * (i % 12), 0.9 - 0.05 * (i % 2) - 0.12 * (i // 12)]
                           for i in range(n)])
        elif kind == "jammed":  # packed against a box: never converges
            xy = obstacles[0] + rng.uniform(-0.12, 0.12, (n, 2))
        else:
            xy = rng.uniform(0.45, 0.6, (n, 2))
            if kind == "inside":  # one centre on a box centre, one just inside a face
                xy[0] = obstacles[1]
                xy[1] = obstacles[1] + [0.1, -0.02]
            elif kind == "coincident":
                xy[2] = xy[3] = xy[4]
            elif kind == "straddle":  # inside one box, over the next; exits up, clear of both
                xy[0] = [0.41, 0.42]
        cases.append((obstacles, np.column_stack([xy, rng.uniform(-np.pi, np.pi, n)])))
    return cases


def _resolve_flat(cases, arena_side):
    """`resolve_collisions` of the (obstacles, poses) cases as one flat batch;
    the resolved poses of each case."""
    swarms = swarm_layout(
        [EnvironmentSpec(n_robots=len(p), arena_side=arena_side, n_obstacles=len(o)) for o, p in cases]
    )
    poses, obstacles = (np.concatenate(arrays) for arrays in zip(*[(p, o) for o, p in cases]))
    resolved = resolve_collisions(poses, obstacles[swarms.box], swarms)
    return [resolved[lo:hi] for lo, hi in zip(swarms.bounds, swarms.bounds[1:])]


def test_vectorised_collisions_match_loop_oracle():
    """One batch of 12-robot cases; then a mixed batch of the 12-robot
    jammed and straddle cases between cases of 5 and 20 robots."""
    arena_side = 1.0
    cases = _crowded_cases()
    mixed = [cases[2], *_crowded_cases(5, seed=1)[::2], cases[5], *_crowded_cases(20, seed=2)[1::2]]
    for batch in (cases, mixed):
        expected, passes = [], []
        for obstacles, poses in batch:
            resolved, count = oracles.resolve_collisions(
                poses, oracles.ArenaSpec(arena_side, obstacles), BODY
            )
            expected.append(resolved)
            passes.append(count)
        assert passes[2 if batch is cases else 0] == MAX_RESOLUTION_PASSES  # jammed: every pass
        assert min(passes) < MAX_RESOLUTION_PASSES  # ...while others converge early
        batched = _resolve_flat(batch, arena_side)
        for b, ref in enumerate(expected):
            assert bits_equal(batched[b], ref), b
            assert bits_equal(_resolve_flat(batch[b : b + 1], arena_side)[0], ref), b
        reversed_order = _resolve_flat(batch[::-1], arena_side)
        for got, want in zip(reversed_order[::-1], batched):
            assert bits_equal(got, want)


# ---------------------------------------------------------------------------
# Jobs


CROWDED = EnvironmentSpec(n_robots=20, arena_side=0.8, n_obstacles=2)  # seed 0 fails, 1 places


def _job(env=NORMAL_ENV, genome=GENOMES[1], faults=None, seeds=(3, 4), duration=1.0, kind=None,
         task="aggregation"):
    return (task, env, genome, faults, list(seeds), duration, kind)


def mixed_jobs():
    combined = [FaultType(i % N_FAULT_TYPES) for i in range(10)]
    small = EnvironmentSpec(n_robots=5, arena_side=2.0, n_obstacles=2)
    return [
        _job(),
        _job(genome=GENOMES[3], faults=combined, kind="spirit"),
        _job(env=small, genome=GENOMES[2], seeds=(1,), duration=1.4, task="dispersion"),
        _job(genome=GENOMES[4], faults=combined, duration=1.4, task="flocking"),
        _job(env=small, genome=GENOMES[3], faults=[FaultType.ROFS] * 5, seeds=(5, 6, 7)),
        _job(genome=GENOMES[2], seeds=(3, 4), kind="spirit", task="patrolling"),
    ]


def assert_results_equal(got, want):
    assert len(got) == len(want)
    for (perf, descriptor), (perf2, descriptor2) in zip(got, want):
        assert perf == perf2
        if descriptor2 is None:
            assert descriptor is None
        else:
            assert bits_equal(descriptor, descriptor2)


def test_job_results_do_not_depend_on_neighbours():
    jobs = mixed_jobs()
    alone = [evaluate_jobs([job])[0] for job in jobs]
    order = list(range(len(jobs)))
    random.Random(4).shuffle(order)
    for n_jobs in (1, 2):
        with evaluator(n_jobs) as run:
            assert_results_equal(run(jobs), alone)
            shuffled = run([jobs[i] for i in order])
        assert_results_equal(shuffled, [alone[i] for i in order])


@pytest.mark.parametrize("cpus", [3, None])
def test_pool_is_capped_at_the_cpu_count(cpus, monkeypatch):
    """An oversized `n_jobs` asks for at most the machine's CPU count of
    workers (one, in this process, when the count is unknown); a fake pool
    records the request and starts no process."""
    requested = []

    class FakePool:
        def __init__(self, max_workers):
            requested.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, chunks):
            return map(fn, chunks)

    monkeypatch.setattr(os, "cpu_count", lambda: cpus)
    monkeypatch.setattr(tasks, "ProcessPoolExecutor", FakePool)
    jobs = mixed_jobs()
    with evaluator(5000) as run:
        assert_results_equal(run(jobs), [evaluate_jobs([job])[0] for job in jobs])
    assert requested == ([cpus] if cpus else [])


def test_batches_cut_jobs_and_are_freed_before_the_next(monkeypatch):
    """With a budget of a few trials, batches end inside jobs: the results
    stay the same, and no array or log of a batch is alive when the next one
    runs (a job that continues keeps only its trials' summaries). A batch is
    cut by its trials' own bytes, so a 5-robot trial costs about half a
    10-robot one and a mixed batch holds more trials than one of 10 robots."""
    jobs = mixed_jobs()
    alone = [evaluate_jobs([job])[0] for job in jobs]
    previous, calls, held = [], [], []

    def spy(envs, genomes, faults, seeds, duration, fields):
        assert all(ref() is None for ref in previous)
        assert not any(isinstance(obj, TrialLog) for obj in gc.get_objects())
        logs = run_trials(envs, genomes, faults, seeds, duration, fields)
        calls.append([(env.n_robots, log.n_cycles) for env, log in zip(envs, logs)])
        arrays = [getattr(log, name) for log in logs for name in LOG_FIELDS[:-1]]
        held.append(sum(array.nbytes for array in arrays if array is not None))
        previous[:] = [weakref.ref(log.poses.base) for log in logs]
        return logs

    monkeypatch.setattr(tasks, "run_trials", spy)
    # The jobs read every field but the angular velocity: 168 bytes per
    # robot-cycle, and a trial's cycle arrays cost CYCLE_BYTES_PER_ROBOT per
    # robot. A budget of 3 normal-environment trials of 5 cycles fits 3 such,
    # or 3 five-robot ones and 1 such, and of 7 cycles 1 five-robot and 2
    # normal-environment trials. The smaller swarms go first.
    budget = 3 * trial_bytes(NORMAL_ENV, 5, list(SIM_LOG_FIELDS)[:-1])
    monkeypatch.setattr(tasks, "TRIAL_BATCH_BYTES", budget)
    assert_results_equal(evaluate_jobs(jobs), alone)
    assert calls == [
        [(5, 5)] * 3 + [(10, 5)],
        [(10, 5)] * 3,
        [(10, 5)] * 2,
        [(5, 7), (10, 7), (10, 7)],
    ]
    assert all(bytes_ <= budget for bytes_ in held)


def test_qed_jobs_run_one_batch_per_swarm_size(monkeypatch):
    """Jobs in distinct environments, as QED evolution makes them, share one
    `run_trials` call whatever their swarm sizes, and score as each does alone."""
    envs = [
        EnvironmentSpec(0.20, 5, 2.0, 6, 2.00, 0.44),
        EnvironmentSpec(0.05, 20, 5.0, 0, 0.25, 0.055),
        EnvironmentSpec(0.15, 5, 4.0, 0, 1.00, 0.22),
        EnvironmentSpec(0.10, 20, 3.0, 6, 0.50, 0.11),
        EnvironmentSpec(0.10, 5, 5.0, 2, 0.25, 0.11),
    ]
    jobs = [
        _job(env=env, genome=GENOMES[2 + i], seeds=(i, 7 + i), kind=(None, "spirit")[i % 2])
        for i, env in enumerate(envs)
    ]
    alone = [evaluate_jobs([job])[0] for job in jobs]
    calls = []

    def spy(envs, *args):
        calls.append({env.n_robots for env in envs})
        return run_trials(envs, *args)

    monkeypatch.setattr(tasks, "run_trials", spy)
    assert_results_equal(evaluate_jobs(jobs), alone)
    assert calls == [{5, 20}]
    for n_jobs in (1, 2):
        with evaluator(n_jobs) as run:
            assert_results_equal(run(jobs), alone)


def test_desk_qed_generation_makes_no_more_calls_than_batches_by_swarm_size(monkeypatch):
    """A desk-sized QED generation (20 evaluations of 5 trials of 2,000
    cycles, each evaluation in a fresh environment) makes no more
    `run_trials` calls than batching each swarm size on its own would, and no
    call holds more than TRIAL_BATCH_BYTES: 24 bytes of poses per
    robot-cycle, all that aggregation reads, and 4,096 bytes of cycle arrays
    per robot."""
    rng = np.random.default_rng(22)
    jobs = [
        _job(env=generate_environment(rng), seeds=range(5 * e, 5 * e + 5), duration=400.0)
        for e in range(20)
    ]
    calls = []

    def stub(envs, genomes, faults, seeds, duration, fields):
        assert set(fields) == {"poses"}
        calls.append(sum(env.n_robots for env in envs) * (int(round(duration / 0.2)) * 24 + 4096))
        return [None] * len(seeds)

    monkeypatch.setattr(tasks, "run_trials", stub)
    monkeypatch.setattr(tasks, "fitness", lambda task, log: 0.5)
    assert evaluate_jobs(jobs) == [(0.5, None)] * len(jobs)
    trials_per_size = {}
    for job in jobs:
        trials_per_size[job[1].n_robots] = trials_per_size.get(job[1].n_robots, 0) + 5
    by_size = sum(
        -(-count // (tasks.TRIAL_BATCH_BYTES // (n * (2000 * 24 + 4096))))
        for n, count in trials_per_size.items()
    )
    assert len(trials_per_size) == 4
    assert len(calls) <= by_size
    assert max(calls) <= tasks.TRIAL_BATCH_BYTES


# a job with boxes under combined faults that include PRAND and ROFS
DECLARED_ENV = EnvironmentSpec(n_robots=5, arena_side=1.0, n_obstacles=2)
DECLARED_FAULT = [FaultType.PRAND, FaultType.ROFS, FaultType.LW_H, FaultType.PMAX, FaultType.NONE]


@pytest.mark.parametrize("kind", [None, *DESCRIPTORS])
@pytest.mark.parametrize("task", [task.value for task in TaskKind])
def test_lean_jobs_score_as_full_logs_do(task, kind, monkeypatch):
    """`evaluate_jobs` records only what the job's fitness and descriptor
    declare, and scores bit for bit as `fitness` and `describe` over
    `run_trial`'s full logs."""
    seeds = (5, 6)
    job = _job(DECLARED_ENV, GENOMES[3], DECLARED_FAULT, seeds, 1.2, kind, task)
    recorded = []

    def spy(*args):
        recorded.append(set(args[-1]))
        return run_trials(*args)

    monkeypatch.setattr(tasks, "run_trials", spy)
    (got,) = evaluate_jobs([job])
    full = [run_trial(DECLARED_ENV, GENOMES[3], DECLARED_FAULT, seed, 1.2) for seed in seeds]
    want = (
        float(np.mean([tasks.fitness(task, log) for log in full])),
        None if kind is None else describe(kind, full),
    )
    assert_results_equal([got], [want])
    declared = FITNESS[TaskKind(task)][1] | (set() if kind is None else DESCRIPTORS[kind][2])
    assert recorded == [declared]


def test_each_reader_reads_only_its_declared_fields():
    """Every fitness function and descriptor summary gives the same bits on a
    log that holds only the fields it declares (every other field None), so
    a missing declaration fails here instead of reading None."""
    full = run_trial(DECLARED_ENV, GENOMES[4], DECLARED_FAULT, seed=7, duration=1.2)
    readers = [*FITNESS.values(), *((summary, reads) for summary, _, reads in DESCRIPTORS.values())]
    for read, fields in readers:
        left_out = {name: None for name in SIM_LOG_FIELDS if name not in fields}
        lean = dataclasses.replace(full, **left_out)
        assert bits_equal(np.asarray(read(lean)), np.asarray(read(full))), read.__name__


def _stub_batches(monkeypatch, jobs):
    """The (trials, fields) of each `run_trials` call that `evaluate_jobs(jobs)`
    makes, with a stub in place of the simulator."""
    calls = []

    def stub(envs, genomes, faults, seeds, duration, fields):
        calls.append((list(zip(envs, faults)), set(fields)))
        return [None] * len(seeds)

    monkeypatch.setattr(tasks, "run_trials", stub)
    monkeypatch.setattr(tasks, "fitness", lambda task, log: 0.5)
    for kind, (*_, fields) in list(tasks.DESCRIPTORS.items()):
        monkeypatch.setitem(tasks.DESCRIPTORS, kind, (lambda log: 0.0, lambda _: None, fields))
    evaluate_jobs(jobs)
    return calls


def _held(trials, n_cycles, per_robot):
    """Bytes of logs of `per_robot` bytes per robot-cycle and of
    CYCLE_BYTES_PER_ROBOT bytes of cycle arrays per robot, over (env, fault)
    trials."""
    return sum(env.n_robots * (n_cycles * per_robot + CYCLE_BYTES_PER_ROBOT) for env, _ in trials)


def test_desk_faults_pass_batches_by_the_bytes_of_poses(monkeypatch):
    """A desk faults pass (evolved aggregation elites under one sampled
    combined fault, 10 trials of 2,000 cycles each in the normal
    environment) logs poses alone, so a batch holds 51 trials where a full
    log held 8, and no call holds more than TRIAL_BATCH_BYTES. Its fault
    noise is drawn a block of cycles at a time, and every trial is charged
    the largest block in CYCLE_BYTES_PER_ROBOT, so it batches like a
    fault-free pass."""
    rng = np.random.default_rng(3)
    fault = sample_combined_fault(rng, NORMAL_ENV.n_robots)
    while not list(fault).count(FaultType.PRAND) == 1 == list(fault).count(FaultType.ROFS):
        fault = sample_combined_fault(rng, NORMAL_ENV.n_robots)  # 7 noise values, 8.75 on average
    jobs = [_job(faults=fault, seeds=range(10), duration=400.0, genome=GENOMES[e % 8])
            for e in range(12)]
    calls = _stub_batches(monkeypatch, jobs)
    per_trial = _held([(NORMAL_ENV, fault)], 2000, 24)
    sizes = [len(trials) for trials, _ in calls]
    assert sizes[:-1] == [tasks.TRIAL_BATCH_BYTES // per_trial] * (len(calls) - 1)
    assert len(sizes) > 1 and sum(sizes) == 120
    assert all(fields == {"poses"} for _, fields in calls)
    assert all(_held(trials, 2000, 24) <= tasks.TRIAL_BATCH_BYTES for trials, _ in calls)


def test_all_prand_desk_batch_holds_at_most_its_budget():
    """The largest batch of a desk faults pass whose fault makes every robot
    PRAND (still genomes, 2,000 cycles in the normal environment, poses
    logged), cut by `trial_bytes`, peaks within TRIAL_BATCH_BYTES under
    `tracemalloc`: the charge covers its largest noise block."""
    fields = ("poses",)
    n = TRIAL_BATCH_BYTES // trial_bytes(NORMAL_ENV, 2000, fields)
    faults = [[FaultType.PRAND] * NORMAL_ENV.n_robots] * n
    tracemalloc.start()
    try:
        run_trials([NORMAL_ENV] * n, [Genome()] * n, faults, range(n), 400.0, fields)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= TRIAL_BATCH_BYTES


@pytest.mark.parametrize("faulty", [False, True])
def test_spirit_pass_keeps_its_batch_size(monkeypatch, faulty):
    """A spirit pass reads 160 of the 176 bytes of a robot-cycle, so its desk
    batches stay within one trial of the 8 that full logs held."""
    fault = [FaultType(i % N_FAULT_TYPES) for i in range(10)] if faulty else None
    jobs = [_job(faults=fault, seeds=range(10), duration=400.0, kind="spirit") for _ in range(4)]
    calls = _stub_batches(monkeypatch, jobs)
    assert all(abs(len(trials) - 8) <= 1 for trials, _ in calls[:-1])
    assert all(fields == {"poses", "proximity", "rab", "commands"} for _, fields in calls)
    assert all(_held(trials, 2000, 160) <= tasks.TRIAL_BATCH_BYTES for trials, _ in calls)


def test_a_trial_over_the_budget_runs_alone(monkeypatch):
    """A 20-robot spirit trial of 10,000 cycles logs 32 MB: each such trial
    gets its own call, and a 10-robot one of 16 MB does not join it."""
    big = EnvironmentSpec(n_robots=20)
    jobs = [
        _job(env=big, seeds=(1, 2), duration=2000.0, kind="spirit"),
        _job(seeds=(3,), duration=2000.0, kind="spirit"),
    ]
    calls = _stub_batches(monkeypatch, jobs)
    assert [[env.n_robots for env, _ in trials] for trials, _ in calls] == [[10], [20], [20]]


@pytest.mark.parametrize("n_jobs", [1, 2])
def test_failed_placement_raises(n_jobs):
    jobs = [_job(env=CROWDED, seeds=seeds) for seeds in ((1,), (0,), (8, 9))]
    with pytest.raises(PlacementError) as alone:
        run_trial(CROWDED, GENOMES[1], seed=0, duration=1.0)
    with evaluator(n_jobs) as run, pytest.raises(PlacementError) as info:
        run(jobs)
    assert str(info.value) == str(alone.value)


@pytest.mark.parametrize("kind", [None, "spirit"])
def test_empty_seed_list_rejected_before_any_trial(kind, monkeypatch):
    calls = []
    monkeypatch.setattr(tasks, "run_trials", lambda *args: calls.append(args))
    with pytest.raises(ValueError, match="at least one trial seed"):
        evaluate_jobs([_job(kind=kind), _job(seeds=(), kind=kind)])
    assert calls == []
