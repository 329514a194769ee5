from itertools import combinations
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats as sps

from qdswarm.stats import (
    KDE_GRIDSIZE,
    StatResult,
    cliffs_delta,
    kde_grid_2d,
    linear_fit,
    magnitude_label,
    signature,
    wilcoxon_rank_sum,
)


def brute_force_ranksum_p(x, y):
    """Independent oracle: enumerate every assignment of the pooled ranks."""
    x = np.asarray(x, float)
    y = np.asarray(y, float)
    n, total = len(x), len(x) + len(y)
    ranks = sps.rankdata(np.concatenate([x, y]))
    observed = abs(ranks[:n].sum() - n * (total + 1) / 2.0)
    hits = 0
    count = 0
    for subset in combinations(range(total), n):
        count += 1
        if abs(sum(ranks[i] for i in subset) - n * (total + 1) / 2.0) >= observed - 1e-12:
            hits += 1
    return hits / count


class TestWilcoxon:
    def test_identical_samples_give_one(self):
        assert wilcoxon_rank_sum([1.0, 2.0, 3.0], [1.0, 2.0, 3.0]) == 1.0

    def test_separated_triples(self):
        assert wilcoxon_rank_sum([1, 2, 3], [4, 5, 6]) == pytest.approx(0.1, abs=1e-15)

    def test_two_sided_symmetry(self, rng):
        for _ in range(20):
            x = rng.normal(0, 1, int(rng.integers(2, 6)))
            y = rng.normal(0.5, 1, int(rng.integers(2, 6)))
            assert wilcoxon_rank_sum(x, y) == pytest.approx(wilcoxon_rank_sum(y, x), abs=1e-15)

    def test_matches_brute_force_small_samples(self, rng):
        for _ in range(40):
            n = int(rng.integers(1, 6))
            m = int(rng.integers(1, 6))
            x = np.round(rng.normal(0, 1, n), 1)
            y = np.round(rng.normal(0.5, 1, m), 1)
            assert wilcoxon_rank_sum(x, y) == brute_force_ranksum_p(x, y)

    def test_all_tied_values(self):
        assert wilcoxon_rank_sum([2.0] * 4, [2.0] * 5) == 1.0
        assert wilcoxon_rank_sum([2.0] * 40, [2.0] * 50) == 1.0

    def test_matches_scipy_asymptotic_with_ties(self, rng):
        for _ in range(25):
            n, m = rng.integers(7, 40, 2)
            x = np.round(rng.normal(0, 1, n), 1)
            y = np.round(rng.normal(0.3, 1, m), 1)
            ref = sps.mannwhitneyu(
                x, y, alternative="two-sided", method="asymptotic", use_continuity=True
            ).pvalue
            assert wilcoxon_rank_sum(x, y) == pytest.approx(ref, abs=1e-12)

    def test_empty_sample_rejected(self):
        with pytest.raises(ValueError):
            wilcoxon_rank_sum([], [1.0])

    @given(
        x=st.lists(st.integers(-3, 3), min_size=1, max_size=8),
        y=st.lists(st.integers(-3, 3), min_size=1, max_size=8),
    )
    @settings(max_examples=200, deadline=None)
    def test_p_in_unit_interval_and_symmetric(self, x, y):
        p = wilcoxon_rank_sum(x, y)
        assert 0.0 < p <= 1.0
        assert p == pytest.approx(wilcoxon_rank_sum(y, x), abs=1e-12)


class TestCliffsDelta:
    def test_complete_dominance(self):
        result = cliffs_delta([4, 5, 6], [1, 2, 3])
        assert result.delta == 1.0
        assert result.magnitude == "large"

    def test_identical_multisets(self):
        result = cliffs_delta([1, 2, 2, 3], [1, 2, 2, 3])
        assert result.delta == 0.0
        assert result.magnitude == "negligible"

    def test_spec_pair_example(self):
        result = cliffs_delta([1, 2], [1, 2])
        assert result.delta == 0.0

    def test_antisymmetry_and_bounds(self, rng):
        for _ in range(30):
            x = rng.normal(0, 1, int(rng.integers(1, 8)))
            y = rng.normal(0.3, 1, int(rng.integers(1, 8)))
            fwd = cliffs_delta(x, y).delta
            rev = cliffs_delta(y, x).delta
            assert fwd == -rev
            assert abs(fwd) <= 1.0

    def test_matches_exhaustive_pair_count(self, rng):
        for _ in range(30):
            x = np.round(rng.normal(0, 1, int(rng.integers(1, 10))), 1)
            y = np.round(rng.normal(0, 1, int(rng.integers(1, 10))), 1)
            gt = sum(1 for a in x for b in y if a > b)
            lt = sum(1 for a in x for b in y if a < b)
            assert cliffs_delta(x, y).delta == (gt - lt) / (len(x) * len(y))

    def test_magnitude_thresholds(self):
        assert magnitude_label(0.10) == "negligible"
        assert magnitude_label(0.11) == "small"
        assert magnitude_label(0.27) == "small"
        assert magnitude_label(0.28) == "medium"
        assert magnitude_label(0.42) == "medium"
        assert magnitude_label(0.43) == "large"
        assert magnitude_label(-0.9) == "large"

    def test_result_contains_p_value(self):
        result = cliffs_delta([1, 2, 3], [4, 5, 6])
        assert isinstance(result, StatResult)
        assert result.p_value == pytest.approx(0.1, abs=1e-15)


class TestLinearFit:
    def test_exact_line(self):
        x = np.linspace(-0.5, 0.0, 60)
        y = 0.17 * x
        slope, corr = linear_fit(x, y)
        assert slope == pytest.approx(0.17, abs=1e-9)
        assert corr == pytest.approx(1.0, abs=1e-12)

    def test_constant_y_convention(self):
        slope, corr = linear_fit([0.0, 1.0, 2.0], [0.3, 0.3, 0.3])
        assert slope == 0.0
        assert corr == 0.0

    def test_degenerate_x_signalled(self):
        with pytest.raises(ValueError):
            linear_fit([1.0, 1.0, 1.0], [0.0, 1.0, 2.0])

    def test_matches_polyfit(self, rng):
        x = rng.normal(0, 1, 100)
        y = 0.4 * x + rng.normal(0, 0.2, 100)
        slope, corr = linear_fit(x, y)
        assert slope == pytest.approx(np.polyfit(x, y, 1)[0], abs=1e-10)
        assert corr == pytest.approx(np.corrcoef(x, y)[0, 1], abs=1e-10)


class TestKde:
    def test_grid_integrates_to_one(self, rng):
        x = rng.normal(0, 0.2, 400)
        y = rng.normal(0, 0.1, 400)
        gx, gy, density = kde_grid_2d(x, y)
        dx = gx[1] - gx[0]
        dy = gy[1] - gy[0]
        assert float(density.sum() * dx * dy) == pytest.approx(1.0, abs=0.02)

    def test_density_nonnegative_and_shaped(self, rng):
        x = rng.uniform(-1, 0, 50)
        y = rng.uniform(0, 1, 50)
        gx, gy, density = kde_grid_2d(x, y)
        assert density.shape == (KDE_GRIDSIZE, KDE_GRIDSIZE)
        assert np.all(density >= 0.0)

    def test_scott_bandwidth_used(self):
        rng = np.random.default_rng(3)
        x = rng.normal(0, 1.0, 1250)
        y = rng.normal(0, 1.0, 1250)
        gx, gy, _ = kde_grid_2d(x, y)
        h = 1250 ** (-1.0 / 6.0) * np.std(x, ddof=1)
        assert gx[0] == pytest.approx(x.min() - 3 * h, abs=1e-12)
        assert gx[-1] == pytest.approx(x.max() + 3 * h, abs=1e-12)


def record(impact, resilience, distance=0.0):
    return SimpleNamespace(impact=impact, resilience=resilience, distance=distance)


class TestSignature:
    def test_exact_line_slope(self):
        records = [record(-0.5 + 0.01 * i, 0.17 * (-0.5 + 0.01 * i)) for i in range(50)]
        result = signature(records, "impact", "resilience")
        assert result.slope == pytest.approx(0.17, abs=1e-9)
        assert result.correlation == pytest.approx(1.0, abs=1e-12)
        assert result.density.shape == (100, 100)

    def test_extreme_impacts_excluded_from_fit(self):
        base = [record(-0.4 + 0.01 * i, 0.2 * (-0.4 + 0.01 * i)) for i in range(40)]
        outliers = [record(-0.9, 5.0), record(-0.9, -5.0), record(-0.8, 3.0)]
        clean = signature(base, "impact", "resilience")
        with_outliers = signature(base + outliers, "impact", "resilience")
        assert with_outliers.slope == pytest.approx(clean.slope, abs=1e-12)

    def test_too_few_records_rejected(self):
        with pytest.raises(ValueError):
            signature([record(0.0, 0.0)], "impact", "resilience")

    def test_degenerate_variance_signalled(self):
        records = [record(-0.1, 0.3), record(-0.1, 0.5), record(-0.1, 0.7)]
        with pytest.raises(ValueError):
            signature(records, "impact", "resilience")

    def test_distance_fields_work(self):
        rng = np.random.default_rng(8)
        records = [
            record(float(-0.4 * rng.random()), float(rng.random()), float(rng.random()))
            for _ in range(30)
        ]
        result = signature(records, "impact", "distance")
        assert result.x_field == "impact"
        assert result.y_field == "distance"
