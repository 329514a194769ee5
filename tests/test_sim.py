from dataclasses import fields

import numpy as np
import pytest

from qdswarm.environment import (
    ARENA_SIDES,
    NORMAL_ENV,
    OBSTACLE_COUNTS,
    SWARM_SIZES,
    EnvironmentSpec,
)
from qdswarm.genome import Connection, Genome
from qdswarm.sim import (
    AXLE_LENGTH,
    CONTROL_DT,
    LOG_FIELDS,
    MAX_ANGULAR_SPEED,
    ROBOT_RADIUS,
    FaultType,
    PlacementError,
    TrialLog,
    body_frame_offsets,
    differential_drive_step,
    place_entities,
    proximity_activations,
    rab_activations,
    run_trial,
    run_trials,
    swarm_layout,
    wrap_angle,
)

# Ten robots in a 0.6 m arena: every front proximity ray reads something.
CROWDED = EnvironmentSpec(n_robots=10, arena_side=0.6)


def every_pair(poses):
    """(observer, offset) rows of every ordered pair of one trial's robots,
    in (observer, neighbour) order: the world-frame offsets that `sense`
    culls, uncut."""
    poses = np.array(poses, dtype=float)
    observer, neighbor = np.nonzero(~np.eye(len(poses), dtype=bool))
    return observer, poses[neighbor, :2] - poses[observer, :2]


def proximity(poses, obstacles=(), side=4.0, proximity_range=NORMAL_ENV.proximity_range):
    """(N, 7) proximity readings of one trial's robots, through the batched kernel."""
    poses = np.array(poses, dtype=float)
    obstacles = np.array(obstacles, dtype=float).reshape(-1, 2)
    env = EnvironmentSpec(
        n_robots=len(poses),
        arena_side=side,
        n_obstacles=len(obstacles),
        proximity_range=proximity_range,
    )
    return proximity_activations(poses, obstacles, swarm_layout([env]), *every_pair(poses))


def neighbours(poses):
    """Each robot's body-frame offsets to the others of one trial, (N, N - 1, 2),
    in ascending index order, through the batched kernel."""
    n = len(poses)
    return body_frame_offsets(poses, *every_pair(poses)).reshape(n, n - 1, 2)


def rab_of(rel, rab_range):
    """Readings (..., 8) of robots with the body-frame neighbour offsets rel (..., K, 2)."""
    rel = np.asarray(rel, dtype=float)
    lead, count = rel.shape[:-2], rel.shape[-2]
    rows = int(np.prod(lead))
    observer = np.repeat(np.arange(rows), count)
    readings = rab_activations(rel.reshape(-1, 2), observer, np.full(rows, rab_range))
    return readings.reshape(lead + (8,))


def rab(poses, i):
    """Range-and-bearing readings of robot i of one trial."""
    return rab_of(neighbours(poses)[i], NORMAL_ENV.rab_range)


class TestBodyAndArena:
    def test_angular_cap_consistent_with_wheel_geometry(self):
        # opposing wheels at the normal +-0.10 m/s give the rated turn speed
        assert abs(MAX_ANGULAR_SPEED - 2 * 0.10 / AXLE_LENGTH) < 1e-3
        assert CONTROL_DT == 0.20

    def test_body_from_environment(self):
        # the trial takes its speed and sensor ranges from its environment
        env = EnvironmentSpec(
            max_linear_speed=0.20, arena_side=0.6, rab_range=0.25, proximity_range=0.44
        )
        log = run_trial(env, spinning_genome(), seed=3, duration=1.0)
        assert log.env == env
        assert log.obstacles.shape == (0, 2)
        # tanh(2) of the top speed on each wheel turns faster than the cap
        assert np.abs(log.commands) == pytest.approx(np.full(log.commands.shape, 0.20 * np.tanh(2.0)))
        assert np.all(log.angular_velocity == MAX_ANGULAR_SPEED)
        for t in range(log.n_cycles):
            readings = proximity(log.poses[t], side=0.6, proximity_range=0.44)
            assert np.array_equal(log.proximity[t], readings)
            assert not np.array_equal(readings, proximity(log.poses[t], side=0.6))
            assert np.array_equal(log.rab[t], rab_of(neighbours(log.poses[t]), 0.25))

    def test_arena_diagonal(self):
        for side in (2.0, 3.0, 4.0, 5.0):
            diagonal = EnvironmentSpec(arena_side=side).diagonal
            assert diagonal == pytest.approx(side * np.sqrt(2.0), abs=0)


class TestDifferentialDrive:
    def test_straight_drive_one_cycle(self):
        poses = np.array([[[0.0, 0.0, 0.0]], [[1.0, 1.0, np.pi / 2]]])
        moved, v, omega = differential_drive_step(poses, np.full((2, 1, 2), 0.10))
        assert moved[0, 0] == pytest.approx([0.02, 0.0, 0.0], abs=1e-12)
        assert moved[1, 0] == pytest.approx([1.0, 1.02, np.pi / 2], abs=1e-12)
        assert np.array_equal(v, np.full((2, 1), 0.10))
        assert np.array_equal(omega, np.zeros((2, 1)))

    def test_zero_commands_identity(self):
        poses = np.array([[[0.3, -0.2, 1.1], [2.0, 3.0, 0.0]], [[1.5, 0.5, 3.0], [0.1, 0.2, 0.3]]])
        moved, v, omega = differential_drive_step(poses, np.zeros((2, 2, 2)))
        assert np.array_equal(moved, poses)
        assert np.array_equal(v, np.zeros((2, 2)))
        assert np.array_equal(omega, np.zeros((2, 2)))

    def test_pure_rotation_clamped(self):
        # |vr - vl| / axle = 0.2 / 0.09 exceeds the 2.2222 rad/s cap
        poses = np.zeros((1, 2, 3))
        commands = np.array([[[-0.10, 0.10], [0.10, -0.10]]])
        moved, v, omega = differential_drive_step(poses, commands)
        assert np.array_equal(moved[..., :2], np.zeros((1, 2, 2)))
        assert np.array_equal(v, np.zeros((1, 2)))
        assert np.array_equal(omega, [[2.2222, -2.2222]])
        assert moved[0, :, 2] == pytest.approx([2.2222 * 0.2, -2.2222 * 0.2], abs=1e-12)

    def test_heading_wraps(self):
        poses = np.array([[[0.0, 0.0, np.pi - 0.01]]])
        moved, _, omega = differential_drive_step(poses, np.array([[[-0.05, 0.05]]]))
        assert -np.pi < moved[0, 0, 2] <= np.pi
        assert moved[0, 0, 2] == pytest.approx(np.pi - 0.01 + omega[0, 0] * 0.2 - 2 * np.pi)

    def test_wrap_angle_range(self):
        angles = np.linspace(-12.0, 12.0, 1001)
        wrapped = wrap_angle(angles)
        assert np.all(wrapped > -np.pi)
        assert np.all(wrapped <= np.pi)
        assert float(wrap_angle(np.pi)) == pytest.approx(np.pi, abs=0)
        assert float(wrap_angle(-np.pi)) == pytest.approx(np.pi, abs=0)


class TestProximity:
    def test_alone_at_center_reads_zero(self):
        assert proximity([[2.0, 2.0, 0.3]])[0] == pytest.approx(np.zeros(7), abs=0)

    def test_wall_ahead_half_range(self):
        # surface 0.055 m from the wall: activation 1 - 0.055/0.11 = 0.5
        x = 4.0 - ROBOT_RADIUS - 0.055
        assert proximity([[x, 2.0, 0.0]])[0, 2] == pytest.approx(0.5, abs=1e-12)

    def test_wall_contact_saturates(self):
        assert proximity([[4.0 - ROBOT_RADIUS, 2.0, 0.0]])[0, 2] == pytest.approx(1.0, abs=1e-12)

    def test_sees_other_robot(self):
        readings = proximity([[2.0, 2.0, 0.0], [2.0 + 2 * ROBOT_RADIUS + 0.05, 2.0, 0.0]])
        # surface gap 0.05 -> activation 1 - 0.05/0.11
        assert readings[0, 2] == pytest.approx(1.0 - 0.05 / 0.11, abs=1e-12)
        # the rear sensors of robot 1 point at robot 0
        assert readings[1, 2] == pytest.approx(0.0, abs=0)

    def test_obstacle_detected(self):
        # box face at x = 2.375, surface distance 0.375 - 0.06 = 0.315 > range
        assert proximity([[2.0, 2.0, 0.0]], [[2.5, 2.0]])[0, 2] == 0.0
        d = 2.375 - 2.3 - ROBOT_RADIUS
        near = proximity([[2.3, 2.0, 0.0]], [[2.5, 2.0]])[0, 2]
        assert near == pytest.approx(1.0 - d / 0.11, abs=1e-12)


class TestRab:
    def test_no_neighbours_all_ones(self):
        assert rab([[2.0, 2.0, 0.0]], 0) == pytest.approx(np.ones(8), abs=0)

    def test_neighbour_dead_ahead(self):
        readings = rab([[2.0, 2.0, 0.0], [2.5, 2.0, 1.0]], 0)
        assert readings[0] == pytest.approx(0.5, abs=1e-12)
        assert np.sum(readings == 1.0) == 7

    def test_coincident_neighbour_zero(self):
        rel = np.array([[0.0, 0.0]])
        assert rab_of(rel, 1.0)[0] == 0.0

    def test_out_of_range_ignored(self):
        rel = np.array([[1.5, 0.0]])
        assert rab_of(rel, 1.0) == pytest.approx(np.ones(8), abs=0)

    def test_cone_binning_quadrants(self):
        # neighbours at bearings 0, 90, 180, -90 degrees land in cones 0, 2, 4, 6
        rel = np.array([[0.4, 0.0], [0.0, 0.4], [-0.4, 0.0], [0.0, -0.4]])
        readings = rab_of(rel, 1.0)
        assert readings[0] == pytest.approx(0.4)
        assert readings[2] == pytest.approx(0.4)
        assert readings[4] == pytest.approx(0.4)
        assert readings[6] == pytest.approx(0.4)

    def test_closest_neighbour_wins(self):
        rel = np.array([[0.8, 0.0], [0.2, 0.0]])
        assert rab_of(rel, 1.0)[0] == pytest.approx(0.2)

    def test_heading_rotates_frame(self):
        # robot facing +y sees a neighbour at +y as dead ahead
        assert rab([[2.0, 2.0, np.pi / 2], [2.0, 2.4, 0.0]], 0)[0] == pytest.approx(0.4, abs=1e-12)


def spinning_genome():
    # constant bias drive: left wheel back, right wheel forward
    return Genome(0, (Connection(15, 16, -2.0), Connection(15, 17, 2.0)))


def still_logs(faults, seed=3):
    """Logs of a still swarm (`Genome()` outputs 0 whatever it senses) in
    CROWDED with `faults` and without, from one seed: the robots sit at the
    same poses in every cycle of both runs, so every reading lines up."""
    clean = run_trial(CROWDED, Genome(), seed=seed, duration=2.0)
    faulty = run_trial(CROWDED, Genome(), faults=faults, seed=seed, duration=2.0)
    assert np.array_equal(faulty.poses, clean.poses)
    assert np.array_equal(clean.poses[0], clean.poses[-1])
    return clean, faulty


def alternating(fault):
    """`fault` on the even robots of CROWDED, NONE on the odd; (faults, mask)."""
    faults = [fault, FaultType.NONE] * (CROWDED.n_robots // 2)
    return faults, np.array([f == fault for f in faults])


class TestFaults:
    def test_none_is_identity(self):
        faults = list(FaultType) + [FaultType.NONE] * (CROWDED.n_robots - len(FaultType))
        none = np.array([f == FaultType.NONE for f in faults])
        clean, faulty = still_logs(faults)
        assert np.array_equal(faulty.proximity[:, none], clean.proximity[:, none])
        assert np.array_equal(faulty.rab[:, none], clean.rab[:, none])
        assert not np.array_equal(faulty.proximity, clean.proximity)

    def test_pmin_zeroes_front_keeps_rear(self):
        faults, hit = alternating(FaultType.PMIN)
        clean, faulty = still_logs(faults)
        assert (clean.proximity[:, hit, :5] > 0).any(axis=(0, 1)).all()  # every front ray reads
        assert np.all(faulty.proximity[:, hit, :5] == 0.0)
        assert np.array_equal(faulty.proximity[:, hit, 5:], clean.proximity[:, hit, 5:])
        assert np.array_equal(faulty.proximity[:, ~hit], clean.proximity[:, ~hit])
        assert np.array_equal(faulty.rab, clean.rab)

    def test_pmax_saturates_front(self):
        faults, hit = alternating(FaultType.PMAX)
        clean, faulty = still_logs(faults)
        assert (clean.proximity[:, hit, :5] < 1).all()
        assert np.all(faulty.proximity[:, hit, :5] == 1.0)
        assert np.array_equal(faulty.proximity[:, hit, 5:], clean.proximity[:, hit, 5:])
        assert np.array_equal(faulty.proximity[:, ~hit], clean.proximity[:, ~hit])

    def test_prand_in_unit_interval_and_redrawn(self):
        faults, hit = alternating(FaultType.PRAND)
        clean, faulty = still_logs(faults)
        front = faulty.proximity[:, hit, :5]
        assert np.all((front >= 0) & (front < 1))
        # a fresh draw for every robot in every cycle
        draws = front.reshape(-1, 5)
        assert len(np.unique(draws, axis=0)) == len(draws)
        assert np.array_equal(faulty.proximity[:, hit, 5:], clean.proximity[:, hit, 5:])
        assert np.array_equal(faulty.proximity[:, ~hit], clean.proximity[:, ~hit])

    def test_wheel_faults(self):
        faults = [FaultType.LW_H, FaultType.RW_H, FaultType.BW_H, FaultType.NONE, FaultType.NONE] * 2
        scale = {FaultType.LW_H: (0.5, 1.0), FaultType.RW_H: (1.0, 0.5), FaultType.BW_H: (0.5, 0.5)}
        expected = np.array([scale.get(f, (1.0, 1.0)) for f in faults])
        clean = run_trial(NORMAL_ENV, spinning_genome(), seed=4, duration=4.0)
        faulty = run_trial(NORMAL_ENV, spinning_genome(), faults=faults, seed=4, duration=4.0)
        # the bias-only controller commands the same speeds in every cycle
        assert np.all(clean.commands == clean.commands[0, 0])
        assert clean.commands[0, 0, 0] < 0 < clean.commands[0, 0, 1]
        assert np.array_equal(faulty.commands, clean.commands * expected)
        assert np.array_equal(
            faulty.linear_velocity, 0.5 * (faulty.commands[..., 0] + faulty.commands[..., 1])
        )

    def test_rofs_rebins_from_offset_neighbours(self):
        seed = 3
        faults, hit = alternating(FaultType.ROFS)
        clean, faulty = still_logs(faults, seed)
        # the trial's generator places the robots, then draws per cycle one
        # offset radius for each ROFS robot, then one offset angle for each
        rng = np.random.default_rng(seed)
        place_entities(rng, CROWDED)
        rab_range = CROWDED.rab_range
        for t in range(faulty.n_cycles):
            r = rng.uniform(0.75, 1.0, size=hit.sum()) * rab_range
            theta = rng.uniform(-np.pi, np.pi, size=hit.sum())
            offsets = np.stack([r * np.cos(theta), r * np.sin(theta)], axis=-1)
            shifted = neighbours(clean.poses[t])[hit] + offsets[:, None, :]
            expected = rab_of(shifted, rab_range)
            assert np.array_equal(faulty.rab[t, hit], expected)
        assert not np.array_equal(faulty.rab[:, hit], clean.rab[:, hit])
        assert np.array_equal(faulty.rab[:, ~hit], clean.rab[:, ~hit])
        assert np.array_equal(faulty.proximity, clean.proximity)

    def test_fault_enum_has_eight_variants(self):
        assert len(FaultType) == 8


class TestPlacement:
    def test_valid_placement_normal_env(self, rng):
        obstacles, poses = place_entities(rng, NORMAL_ENV)
        assert obstacles.shape == (0, 2)
        assert poses.shape == (10, 3)
        assert np.all(poses[:, :2] >= ROBOT_RADIUS)
        assert np.all(poses[:, :2] <= 4.0 - ROBOT_RADIUS)
        diff = poses[None, :, :2] - poses[:, None, :2]
        dist = np.hypot(diff[..., 0], diff[..., 1])
        np.fill_diagonal(dist, np.inf)
        assert dist.min() >= 2 * ROBOT_RADIUS

    def test_obstacles_do_not_overlap(self, rng):
        env = EnvironmentSpec(n_obstacles=6, arena_side=3.0)
        obstacles, _ = place_entities(rng, env)
        assert obstacles.shape == (6, 2)
        for i in range(6):
            for j in range(i + 1, 6):
                assert np.max(np.abs(obstacles[i] - obstacles[j])) >= 0.25
        assert np.all(obstacles >= 0.125)
        assert np.all(obstacles <= 3.0 - 0.125)

    def test_crowded_arena_raises(self):
        crowded = EnvironmentSpec(n_robots=10, arena_side=0.25)
        with pytest.raises(PlacementError):
            place_entities(np.random.default_rng(0), crowded)

    def test_most_crowded_grid_environment_places(self):
        """The largest swarm and the most boxes in the smallest arena of the
        environment grid place from every seed tried, so no environment that
        evolution draws raises PlacementError."""
        env = EnvironmentSpec(
            n_robots=max(SWARM_SIZES), arena_side=min(ARENA_SIDES), n_obstacles=max(OBSTACLE_COUNTS)
        )
        for seed in range(200):
            obstacles, poses = place_entities(np.random.default_rng(seed), env)
            assert obstacles.shape == (env.n_obstacles, 2)
            assert poses.shape == (env.n_robots, 3)


class TestRunTrial:
    def test_empty_genome_stays_put(self):
        log = run_trial(NORMAL_ENV, Genome(), seed=3, duration=10.0)
        assert log.n_cycles == 50
        assert np.array_equal(log.poses[0], log.poses[-1])
        assert np.all(log.commands == 0.0)
        assert np.array_equal(log.poses[0], log.final_poses)

    def test_replay_equality(self):
        g = spinning_genome()
        faults = [FaultType.PRAND] * 5 + [FaultType.ROFS] * 5
        a = run_trial(NORMAL_ENV, g, faults=faults, seed=9, duration=8.0)
        b = run_trial(NORMAL_ENV, g, faults=faults, seed=9, duration=8.0)
        assert np.array_equal(a.poses, b.poses)
        assert np.array_equal(a.proximity, b.proximity)
        assert np.array_equal(a.rab, b.rab)
        assert np.array_equal(a.commands, b.commands)

    def test_log_table_is_the_per_cycle_fields(self):
        names = [f.name for f in fields(TrialLog)]
        assert list(LOG_FIELDS) == names[names.index("poses") : names.index("final_poses")]
        # the 176 bytes per robot-cycle of a full log, TRIAL_BATCH_BYTES and the README
        assert 8 * sum(int(np.prod(shape)) for shape in LOG_FIELDS.values()) == 176
        log = run_trial(NORMAL_ENV, spinning_genome(), seed=2, duration=1.0)
        for name, shape in LOG_FIELDS.items():
            assert getattr(log, name).shape == (5, NORMAL_ENV.n_robots) + shape, name

    def test_two_thousand_cycles_for_400s(self):
        log = run_trial(EnvironmentSpec(n_robots=5), Genome(), seed=1, duration=400.0)
        assert log.n_cycles == 2000

    def test_robots_stay_inside_and_separated(self, rng):
        from qdswarm.genome import random_genome

        g = random_genome(rng)
        env = EnvironmentSpec(n_robots=15, arena_side=2.0, n_obstacles=2)
        log = run_trial(env, g, seed=21, duration=20.0)
        r = ROBOT_RADIUS
        assert np.all(log.poses[:, :, :2] >= r - 1e-12)
        assert np.all(log.poses[:, :, :2] <= 2.0 - r + 1e-12)
        for t in range(0, log.n_cycles, 7):
            xy = log.poses[t, :, :2]
            diff = xy[None] - xy[:, None]
            dist = np.hypot(diff[..., 0], diff[..., 1])
            np.fill_diagonal(dist, np.inf)
            assert dist.min() >= 2 * r - 1e-9

    def test_commands_respect_speed_bound(self, rng):
        from qdswarm.genome import random_genome

        g = random_genome(rng)
        faults = [FaultType.BW_H, FaultType.LW_H] * 5
        log = run_trial(NORMAL_ENV, g, faults=faults, seed=2, duration=10.0)
        assert np.all(np.abs(log.commands) <= NORMAL_ENV.max_linear_speed + 1e-15)

    def test_all_none_fault_equals_no_fault(self):
        g = spinning_genome()
        explicit = run_trial(NORMAL_ENV, g, faults=[FaultType.NONE] * 10, seed=4, duration=6.0)
        implicit = run_trial(NORMAL_ENV, g, faults=None, seed=4, duration=6.0)
        assert np.array_equal(explicit.poses, implicit.poses)
        assert np.array_equal(explicit.rab, implicit.rab)

    def test_fault_assignment_length_checked(self):
        with pytest.raises(ValueError):
            run_trial(NORMAL_ENV, Genome(), faults=[FaultType.NONE] * 3, seed=0, duration=2.0)

    @pytest.mark.parametrize("duration", [0.05, 0.1, 0.0, -1.0])
    def test_duration_under_one_cycle_rejected(self, duration):
        with pytest.raises(ValueError, match="under one 0.2 s control cycle"):
            run_trials([NORMAL_ENV], [Genome()], [None], [0], duration)
        assert run_trial(NORMAL_ENV, Genome(), seed=0, duration=0.15).n_cycles == 1


class TestSensorScaling:
    def test_bijective_on_endpoints(self):
        from qdswarm.sim import sensor_input_scale

        assert sensor_input_scale(0.0) == -1.0
        assert sensor_input_scale(1.0) == 1.0
        assert sensor_input_scale(0.5) == 0.0
        a = np.linspace(0, 1, 11)
        scaled = sensor_input_scale(a)
        assert np.all(scaled >= -1.0) and np.all(scaled <= 1.0)
        assert (scaled + 1.0) / 2.0 == pytest.approx(a, abs=1e-15)

