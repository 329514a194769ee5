import dataclasses

import numpy as np
import pytest

from conftest import make_log
from qdswarm.descriptors import _per_cycle_features, describe
from qdswarm.environment import EnvironmentSpec
from qdswarm.genome import Genome
from qdswarm.seeding import derive_seed
from qdswarm.tasks import (
    PATROL_DECAY_PER_CYCLE,
    TaskKind,
    evaluate_jobs,
    fitness,
    fitness_aggregation,
    fitness_border_patrolling,
    fitness_dispersion,
    fitness_flocking,
    fitness_patrolling,
    patrol_cell_trace,
)
from qdswarm.sim import MAX_ANGULAR_SPEED

T = 40
M4 = 4.0 * np.sqrt(2.0)


def stack_positions(points, cycles=T):
    return np.tile(np.asarray(points, dtype=float)[None, :, :], (cycles, 1, 1))


def linear_decay(value: float, cycles: int) -> float:
    """Patrol cell value after `cycles` unvisited control cycles."""
    return max(0.0, value - PATROL_DECAY_PER_CYCLE * cycles)


def test_speed_normalisation_reads_trial_env():
    # wheels at 0.05 m/s: half the default 0.10 m/s top speed, a quarter of 0.20
    positions = stack_positions([[2.0, 2.0], [2.3, 2.0]])
    slow = make_log(positions, commands=np.full((T, 2, 2), 0.05), angular_velocity=np.ones((T, 2)))
    fast = dataclasses.replace(slow, env=EnvironmentSpec(max_linear_speed=0.20))
    assert fitness_flocking(slow) == pytest.approx(0.5 * 0.5, abs=1e-12)
    assert fitness_flocking(fast) == pytest.approx(0.25 * 0.25, abs=1e-12)
    slow_features, fast_features = _per_cycle_features(slow), _per_cycle_features(fast)
    assert slow_features[:, 0] == pytest.approx(np.full(T, 0.5), abs=1e-12)
    assert fast_features[:, 0] == pytest.approx(np.full(T, 0.25), abs=1e-12)
    # the angular speed is normalised by the body's fixed cap in any env
    assert np.array_equal(slow_features[:, 1], np.full(T, 1.0 / MAX_ANGULAR_SPEED))
    assert np.array_equal(fast_features[:, 1], slow_features[:, 1])
    # each wheel lands in speed bin 3 of 4 at 0.10 m/s and in bin 2 at 0.20 m/s
    assert describe("spirit", [slow])[0, 3 * 4 + 3] == 1.0
    assert describe("spirit", [fast])[0, 2 * 4 + 2] == 1.0


class TestAggregation:
    def test_coincident_robots_score_one(self):
        log = make_log(stack_positions([[2.0, 2.0]] * 4))
        assert fitness_aggregation(log) == pytest.approx(1.0, abs=1e-9)

    def test_opposite_corners_score_half(self):
        log = make_log(stack_positions([[0.0, 0.0], [4.0, 4.0]]))
        assert fitness_aggregation(log) == pytest.approx(0.5, abs=1e-9)

    def test_single_robot_scores_one(self):
        log = make_log(stack_positions([[1.0, 3.0]]))
        assert fitness_aggregation(log) == pytest.approx(1.0, abs=1e-9)


class TestDispersion:
    def test_coincident_robots_score_zero(self):
        log = make_log(stack_positions([[2.0, 2.0]] * 3))
        assert fitness_dispersion(log) == pytest.approx(0.0, abs=1e-9)

    def test_two_robots_one_metre(self):
        log = make_log(stack_positions([[1.5, 2.0], [2.5, 2.0]]))
        assert fitness_dispersion(log) == pytest.approx(1.0 / (2.0 * np.sqrt(2.0)), abs=1e-9)

    def test_corner_pinned_clamped_to_one(self):
        log = make_log(stack_positions([[0.0, 0.0], [4.0, 4.0]]))
        assert fitness_dispersion(log) == pytest.approx(1.0, abs=0)

    def test_single_robot_rejected(self):
        with pytest.raises(ValueError):
            fitness_dispersion(make_log(stack_positions([[2.0, 2.0]])))

    def test_antitone_with_aggregation(self):
        # moving two robots from coincident towards corner-pinned strictly
        # decreases aggregation and strictly increases dispersion (below the
        # clamp); the corner-pinned extreme saturates the clamp at 1
        spreads = [0.0, 0.5, 1.5, 2.5]
        agg, disp = [], []
        for s in spreads:
            offset = s / (2.0 * np.sqrt(2.0))
            pts = [[2.0 - offset, 2.0 - offset], [2.0 + offset, 2.0 + offset]]
            log = make_log(stack_positions(pts))
            agg.append(fitness_aggregation(log))
            disp.append(fitness_dispersion(log))
        assert all(a > b for a, b in zip(agg, agg[1:]))
        assert all(a < b for a, b in zip(disp, disp[1:]))
        corners = make_log(stack_positions([[0.0, 0.0], [4.0, 4.0]]))
        assert fitness_dispersion(corners) == 1.0
        assert fitness_aggregation(corners) < agg[-1]


class TestFlocking:
    def test_stationary_scores_zero(self):
        log = make_log(stack_positions([[2.0, 2.0], [2.3, 2.0]]))
        assert fitness_flocking(log) == pytest.approx(0.0, abs=0)

    def test_aligned_full_speed_neighbours_score_one(self):
        positions = stack_positions([[2.0, 2.0], [2.3, 2.0]])
        v = np.full((T, 2), 0.10)
        log = make_log(positions, linear_velocity=v)
        assert fitness_flocking(log) == pytest.approx(1.0, abs=1e-9)

    def test_out_of_range_pairs_score_zero(self):
        positions = stack_positions([[1.0, 2.0], [2.6, 2.0]])
        v = np.full((T, 2), 0.10)
        log = make_log(positions, linear_velocity=v)
        assert fitness_flocking(log) == pytest.approx(0.0, abs=0)

    def test_heading_difference_discounts(self):
        positions = stack_positions([[2.0, 2.0], [2.3, 2.0]])
        headings = np.zeros((T, 2))
        headings[:, 1] = np.pi / 4  # 45 degrees: reward factor 0.5
        v = np.full((T, 2), 0.10)
        log = make_log(positions, headings=headings, linear_velocity=v)
        assert fitness_flocking(log) == pytest.approx(0.5, abs=1e-9)

    def test_opposed_velocities_not_rewarded(self):
        positions = stack_positions([[2.0, 2.0], [2.3, 2.0]])
        v = np.tile(np.array([0.10, -0.10]), (T, 1))
        log = make_log(positions, linear_velocity=v)
        assert fitness_flocking(log) == pytest.approx(0.0, abs=0)

    def test_coordinated_reverse_rewarded(self):
        # both robots driving backwards keep max(0, Vi*Vj) positive
        positions = stack_positions([[2.0, 2.0], [2.3, 2.0]])
        v = np.full((T, 2), -0.10)
        log = make_log(positions, linear_velocity=v)
        assert fitness_flocking(log) == pytest.approx(1.0, abs=1e-9)


class TestPatrolling:
    def test_single_stationary_robot(self):
        log = make_log(stack_positions([[2.05, 2.05]], cycles=100))
        assert fitness_patrolling(log) == pytest.approx(0.01, abs=1e-9)
        assert fitness_border_patrolling(log) == pytest.approx(0.0, abs=0)

    def test_border_robot_counts_for_both(self):
        log = make_log(stack_positions([[0.1, 0.1]], cycles=100))
        assert fitness_patrolling(log) == pytest.approx(1.0 / 100.0, abs=1e-9)
        assert fitness_border_patrolling(log) == pytest.approx(1.0 / 36.0, abs=1e-9)

    def test_visit_only_at_cycle_zero_decays_to_zero(self):
        # 200 s = 1000 cycles of decay empties the cell exactly
        positions = np.tile([[3.5, 3.5]], (1001, 1, 1))
        positions[1:] = [[0.1, 0.1]]
        log = make_log(positions)
        trace = patrol_cell_trace(log)
        cell = trace[:, 8, 8]
        assert cell[0] == 1.0
        assert cell[500] == pytest.approx(0.5, abs=1e-12)
        assert cell[1000] == 0.0

    def test_decay_formula_exact(self):
        # a cell visited once, at cycle 0, reads max(0, 1 - 0.001 k) k cycles later
        positions = np.tile([[3.5, 3.5]], (5001, 1, 1))
        positions[1:] = [[0.1, 0.1]]
        cell = patrol_cell_trace(make_log(positions))[:, 8, 8]
        for k in (0, 1, 7, 400, 1000, 5000):
            assert cell[k] == max(0.0, 1.0 - 0.005 * 0.2 * k)

    def test_border_mask_has_36_cells(self):
        from qdswarm.tasks import BORDER_MASK

        assert BORDER_MASK.sum() == 36

    def test_trace_shared_between_fitnesses(self):
        rng = np.random.default_rng(5)
        positions = rng.uniform(0, 4, size=(60, 3, 2))
        log = make_log(positions)
        trace = patrol_cell_trace(log)
        from qdswarm.tasks import BORDER_MASK

        assert fitness_patrolling(log) == pytest.approx(trace.mean(), abs=0)
        assert fitness_border_patrolling(log) == pytest.approx(trace[:, BORDER_MASK].mean(), abs=0)

    def test_values_bounded(self):
        rng = np.random.default_rng(8)
        positions = rng.uniform(0, 4, size=(80, 5, 2))
        log = make_log(positions)
        trace = patrol_cell_trace(log)
        assert np.all(trace >= 0.0)
        assert np.all(trace <= 1.0)

    @pytest.mark.parametrize("cycles, robots", [(60, 1), (1001, 3), (300, 20)])
    def test_trace_matches_per_cycle_oracle(self, cycles, robots):
        rng = np.random.default_rng(cycles + robots)
        # a few positions fall outside the arena to exercise the edge clipping
        positions = rng.uniform(-0.2, 4.2, size=(cycles, robots, 2))
        log = make_log(positions)
        cells = np.clip((positions // 0.4).astype(int), 0, 9)
        expected = np.zeros((cycles, 10, 10))
        last_visit = {}
        for t in range(cycles):
            for i, j in cells[t]:
                last_visit[i, j] = t
            for (i, j), visit in last_visit.items():
                expected[t, i, j] = linear_decay(1.0, t - visit)
        assert np.array_equal(patrol_cell_trace(log), expected)


class TestAllFitnessesBounded:
    def test_random_logs_in_unit_interval(self):
        rng = np.random.default_rng(99)
        for _ in range(10):
            n = int(rng.integers(2, 8))
            positions = rng.uniform(0, 4, size=(30, n, 2))
            headings = rng.uniform(-np.pi, np.pi, size=(30, n))
            v = rng.uniform(-0.1, 0.1, size=(30, n))
            log = make_log(positions, headings=headings, linear_velocity=v)
            for task in TaskKind:
                value = fitness(task, log)
                assert 0.0 <= value <= 1.0, task


class TestPerformance:
    """Mean fitness over seeds: one `evaluate_jobs` job per genome."""

    ENV = EnvironmentSpec(n_robots=5, arena_side=2.0)

    def score(self, seeds, duration):
        job = (TaskKind.AGGREGATION, self.ENV, Genome(), None, seeds, duration, None)
        ((perf, descriptor),) = evaluate_jobs([job])
        assert descriptor is None
        return perf

    def test_single_seed_equals_single_trial(self):
        from qdswarm.sim import run_trial

        p = self.score([11], duration=4.0)
        log = run_trial(self.ENV, Genome(), seed=11, duration=4.0)
        assert p == fitness_aggregation(log)

    def test_identical_seeds_collapse(self):
        p1 = self.score([7], duration=4.0)
        pk = self.score([7] * 4, duration=4.0)
        assert pk == pytest.approx(p1, abs=1e-15)

    def test_mean_matches_streaming_mean(self):
        seeds = [derive_seed(0, "perf", t) for t in range(50)]
        values = [self.score([s], duration=2.0) for s in seeds]
        combined = self.score(seeds, duration=2.0)
        assert combined == pytest.approx(np.mean(values), abs=1e-12)

    def test_empty_seeds_rejected(self):
        with pytest.raises(ValueError):
            self.score([], duration=400.0)
