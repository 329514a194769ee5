from itertools import product

import numpy as np
import pytest

from conftest import make_log
from qdswarm.descriptors import (
    DESCRIPTORS,
    describe,
    geometric_median,
    spirit_actions,
    spirit_states,
)
from qdswarm.archive import Archive
from qdswarm.environment import (
    NORMAL_ENV,
    EnvironmentSpec,
    env_from_index,
    env_index,
)


def stationary_log(points, cycles=50, side=4.0):
    positions = np.tile(np.asarray(points, dtype=float)[None], (cycles, 1, 1))
    return make_log(positions, arena_side=side)


class TestHbd:
    def test_pinned_at_center(self):
        log = stationary_log([[2.0, 2.0], [2.0, 2.0]])
        hbd = describe("hbd", [log])
        n_side = int(np.ceil(4.0 / 0.11))
        assert hbd[0] == pytest.approx(0.0, abs=0)  # degenerate distribution
        assert hbd[1] == pytest.approx(0.0, abs=0)
        assert hbd[2] == pytest.approx(1.0 / n_side**2, abs=1e-15)

    def test_uniform_visitation_max_entropy(self):
        n_side = int(np.ceil(2.0 / 0.11))
        points = []
        for i in range(n_side):
            for j in range(n_side):
                points.append(
                    [min(i * 0.11 + 0.055, 1.999), min(j * 0.11 + 0.055, 1.999)]
                )
        positions = np.asarray(points)[:, None, :]
        log = make_log(positions, arena_side=2.0)
        hbd = describe("hbd", [log])
        assert hbd[0] == pytest.approx(1.0, abs=1e-12)
        assert hbd[2] == pytest.approx(1.0, abs=0)

    def test_trial_averaging_idempotent(self):
        log = stationary_log([[1.0, 1.0], [3.0, 2.0]])
        one = describe("hbd", [log])
        two = describe("hbd", [log, log])
        assert np.array_equal(one, two)

    def test_components_in_unit_interval(self, rng):
        for _ in range(10):
            positions = rng.uniform(0, 4, size=(30, 4, 2))
            log = make_log(positions)
            hbd = describe("hbd", [log])
            assert np.all(hbd >= 0.0) and np.all(hbd <= 1.0)

    def test_corner_robot_distance_feature(self):
        log = stationary_log([[0.0, 0.0]])
        assert describe("hbd", [log])[1] == pytest.approx(1.0, abs=1e-12)


class TestGeometricMedian:
    def test_single_point(self):
        p = np.array([[0.3, 0.7, -1.0]])
        assert np.array_equal(geometric_median(p), p[0])

    def test_identical_points(self):
        pts = np.tile([[0.25, 0.5]], (4, 1))
        assert geometric_median(pts) == pytest.approx([0.25, 0.5], abs=1e-9)

    def test_triangle_matches_grid_search(self):
        pts = np.array([[0.0, 0.0], [1.0, 0.0], [0.2, 0.9]])
        med = geometric_median(pts)
        xs = np.linspace(-0.1, 1.1, 1201)
        ys = np.linspace(-0.1, 1.1, 1201)
        gx, gy = np.meshgrid(xs, ys, indexing="ij")
        cost = np.zeros_like(gx)
        for p in pts:
            cost += np.hypot(gx - p[0], gy - p[1])
        best = np.unravel_index(np.argmin(cost), cost.shape)
        assert med[0] == pytest.approx(xs[best[0]], abs=1e-3)
        assert med[1] == pytest.approx(ys[best[1]], abs=1e-3)

    def test_median_beats_mean_on_outlier(self):
        pts = np.array([[0.0, 0.0], [0.1, 0.0], [0.0, 0.1], [5.0, 5.0]])
        med = geometric_median(pts)
        cost_med = sum(np.hypot(*(p - med)) for p in pts)
        cost_mean = sum(np.hypot(*(p - pts.mean(axis=0))) for p in pts)
        assert cost_med < cost_mean


class TestSdbc:
    def test_stationary_swarm_features(self):
        log = stationary_log([[1.0, 2.0], [3.0, 2.0]])
        sdbc = describe("sdbc", [log])
        assert sdbc[0] == 0.0  # mean |v|
        assert sdbc[1] == 0.0  # mean |omega|
        assert np.all(sdbc[5:7] == 0.0)  # velocity SDs exactly zero
        assert sdbc[7:] == pytest.approx(np.zeros(3), abs=1e-12)  # constant distances
        m = 4.0 * np.sqrt(2.0)
        assert sdbc[3] == pytest.approx(2.0 / m, abs=1e-12)  # pair distance
        assert sdbc[4] == pytest.approx(2.0 / m, abs=1e-12)  # nearest neighbour

    def test_single_trial_is_its_own_median(self):
        rng = np.random.default_rng(3)
        positions = rng.uniform(0, 4, size=(40, 3, 2))
        v = rng.uniform(-0.1, 0.1, size=(40, 3))
        log = make_log(positions, linear_velocity=v)
        one = describe("sdbc", [log])
        dup = describe("sdbc", [log, log, log])
        assert one == pytest.approx(dup, abs=1e-9)

    def test_components_in_unit_interval(self, rng):
        for _ in range(10):
            positions = rng.uniform(0, 4, size=(30, 4, 2))
            v = rng.uniform(-0.1, 0.1, size=(30, 4))
            w = rng.uniform(-2.2222, 2.2222, size=(30, 4))
            log = make_log(positions, linear_velocity=v, angular_velocity=w)
            sdbc = describe("sdbc", [log])
            assert np.all(sdbc >= 0.0) and np.all(sdbc <= 1.0)

    def test_single_robot_rejected(self):
        with pytest.raises(ValueError):
            describe("sdbc", [stationary_log([[1.0, 1.0]])])


class TestSpiritStatesActions:
    def test_state_bits(self):
        rab_far = np.ones(8)
        assert spirit_states(np.zeros(7), rab_far) == 0
        assert spirit_states(np.array([0.6, 0, 0, 0, 0, 0, 0]), rab_far) == 1
        assert spirit_states(np.array([0, 0, 0.6, 0, 0, 0, 0]), rab_far) == 2
        assert spirit_states(np.array([0, 0, 0, 0, 0.6, 0, 0]), rab_far) == 4
        assert spirit_states(np.array([0, 0, 0, 0, 0, 0, 0.6]), rab_far) == 8
        front_rab = np.ones(8)
        front_rab[0] = 0.4
        assert spirit_states(np.zeros(7), front_rab) == 16
        rear_rab = np.ones(8)
        rear_rab[4] = 0.4
        assert spirit_states(np.zeros(7), rear_rab) == 32
        # threshold is strict: boundary readings stay inactive
        assert spirit_states(np.full(7, 0.5), np.full(8, 0.5)) == 0

    def test_action_bins(self):
        vmax = 0.10
        assert spirit_actions(np.array([0.10, 0.10]), vmax) == 15
        assert spirit_actions(np.array([-0.10, -0.10]), vmax) == 0
        assert spirit_actions(np.array([-0.025, 0.0]), vmax) == 1 * 4 + 2
        assert spirit_actions(np.array([0.049, -0.051]), vmax) == 2 * 4 + 0


@pytest.mark.parametrize("kind", DESCRIPTORS)
def test_no_logs_is_an_error(kind):
    with pytest.raises(ValueError, match="at least one trial log is required"):
        describe(kind, [])


class TestComputeSpirit:
    def test_empty_log_gives_uniform(self):
        log = make_log(np.zeros((0, 2, 2)))
        profile = describe("spirit", [log])
        assert profile.shape == (64, 16)
        assert np.array_equal(profile, np.full((64, 16), 1.0 / 16.0))

    def test_counted_frequencies(self):
        commands = np.zeros((4, 1, 2))
        commands[0] = commands[1] = [0.10, 0.10]  # action 15
        commands[2] = commands[3] = [-0.10, -0.10]  # action 0
        positions = np.tile([[2.0, 2.0]], (4, 1, 1))
        log = make_log(positions, commands=commands)
        profile = describe("spirit", [log])
        assert profile[0, 15] == 0.5
        assert profile[0, 0] == 0.5
        assert profile[0, 1:15].sum() == 0.0
        assert np.array_equal(profile[1], np.full(16, 1.0 / 16.0))

    def test_blocks_always_sum_to_one(self, rng):
        for _ in range(5):
            n = int(rng.integers(2, 6))
            positions = rng.uniform(0, 4, size=(30, n, 2))
            prox = rng.uniform(0, 1, size=(30, n, 7))
            rab = rng.uniform(0, 1, size=(30, n, 8))
            commands = rng.uniform(-0.1, 0.1, size=(30, n, 2))
            log = make_log(positions, proximity=prox, rab=rab, commands=commands)
            profile = describe("spirit", [log])
            assert profile.sum(axis=1) == pytest.approx(np.ones(64), abs=1e-9)
            assert np.all(profile >= 0.0)

    def test_deterministic(self, rng):
        positions = rng.uniform(0, 4, size=(20, 3, 2))
        log = make_log(positions)
        assert np.array_equal(describe("spirit", [log]), describe("spirit", [log]))


class TestEnvDescriptor:
    def test_normal_environment_indices(self):
        assert env_index(NORMAL_ENV) == (1, 1, 2, 0, 2, 1)

    def test_bijection_over_all_4096(self):
        seen = set()
        count = 0
        for indices in product(range(4), repeat=6):
            env = env_from_index(indices)
            idx = env_index(env)
            assert idx == indices
            assert env_from_index(idx) == env
            seen.add(env)
            count += 1
        assert count == 4096
        assert len(seen) == 4096

    def test_flat_index_round_trip(self):
        archive = Archive.qed()
        for flat in (0, 1, 17, 4095):
            indices = np.unravel_index(flat, archive.dims)
            assert archive.key_of(env_index(env_from_index(indices))) == flat

    def test_non_member_attribute_rejected(self):
        with pytest.raises(ValueError):
            env_index(EnvironmentSpec(max_linear_speed=0.12))
