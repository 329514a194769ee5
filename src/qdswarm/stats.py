"""Nonparametric statistics and signature analysis for recovery records.

Provides the two-sided Wilcoxon rank-sum test (exact permutation distribution
for small samples, tie- and continuity-corrected normal approximation
otherwise), Cliff's delta with Vargha-Delaney magnitude labels, and the
regression + kernel-density "signature" plots of recovery metrics.
"""

import math
from dataclasses import dataclass
from itertools import combinations

import numpy as np

EXACT_LIMIT = 12  # exact permutation enumeration up to this total sample size

MAGNITUDE_THRESHOLDS = ((0.43, "large"), (0.28, "medium"), (0.11, "small"))

IMPACT_CUTOFF = -0.5  # signature fits leave out performance drops beyond 50%

KDE_EXTEND = 3.0  # bandwidths the density grid reaches beyond the data
KDE_GRIDSIZE = 100  # points per axis of the density grid


@dataclass(frozen=True)
class StatResult:
    p_value: float
    delta: float
    magnitude: str


def wilcoxon_rank_sum(x, y) -> float:
    """Two-sided Wilcoxon rank-sum p-value.

    Uses the exact permutation distribution of the rank sum when the combined
    sample size is at most 12, and the normal approximation with tie and
    continuity corrections beyond that. Fully tied data gives p = 1.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    n, m = len(x), len(y)
    if n < 1 or m < 1:
        raise ValueError("both samples must be non-empty")
    combined = np.concatenate([x, y])
    total = n + m
    # a group of c tied values ending at sorted rank r shares the mid-rank r - (c - 1) / 2
    _, group, tie_counts = np.unique(combined, return_inverse=True, return_counts=True)
    ranks = (np.cumsum(tie_counts) - (tie_counts - 1) / 2)[group]
    w = float(ranks[:n].sum())
    mu = n * (total + 1) / 2.0

    if total <= EXACT_LIMIT:
        observed = abs(w - mu)
        count = 0
        n_comb = 0
        for subset in combinations(range(total), n):
            n_comb += 1
            if abs(ranks[list(subset)].sum() - mu) >= observed - 1e-12:
                count += 1
        return count / n_comb

    tie_term = float(((tie_counts**3) - tie_counts).sum())
    variance = n * m / 12.0 * ((total + 1) - tie_term / (total * (total - 1)))
    if variance <= 0:
        return 1.0
    if w == mu:
        return 1.0
    z = (w - mu - 0.5 * math.copysign(1.0, w - mu)) / math.sqrt(variance)
    return min(1.0, math.erfc(abs(z) / math.sqrt(2.0)))


def magnitude_label(delta: float) -> str:
    for threshold, label in MAGNITUDE_THRESHOLDS:
        if abs(delta) >= threshold:
            return label
    return "negligible"


def cliffs_delta(x, y) -> StatResult:
    """Cliff's delta effect size with its rank-sum p-value.

    delta = (#{x_i > y_j} - #{x_i < y_j}) / (|x| |y|); the magnitude label
    follows the 0.11 / 0.28 / 0.43 thresholds.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if len(x) < 1 or len(y) < 1:
        raise ValueError("both samples must be non-empty")
    greater = int((x[:, None] > y[None, :]).sum())
    less = int((x[:, None] < y[None, :]).sum())
    delta = (greater - less) / (len(x) * len(y))
    return StatResult(
        p_value=wilcoxon_rank_sum(x, y), delta=delta, magnitude=magnitude_label(delta)
    )


# ---------------------------------------------------------------------------
# Regression + KDE signatures


def linear_fit(x, y) -> tuple[float, float]:
    """Ordinary least-squares slope of y on x and the Pearson correlation.

    Raises on degenerate x variance; constant y gives (0, 0) by convention.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if len(x) < 2:
        raise ValueError("need at least two points")
    if np.all(x == x[0]):
        raise ValueError("slope undefined: x has zero variance")
    if np.all(y == y[0]):
        return 0.0, 0.0
    var_x = float(np.var(x))
    cov = float(np.mean((x - x.mean()) * (y - y.mean())))
    slope = cov / var_x
    var_y = float(np.var(y))
    correlation = 0.0 if var_y == 0 else cov / math.sqrt(var_x * var_y)
    return slope, correlation


def kde_grid_2d(x, y):
    """Gaussian product-kernel density on a KDE_GRIDSIZE x KDE_GRIDSIZE grid.

    Bandwidth follows Scott's rule for d = 2: n^(-1/6) times the per-axis
    sample standard deviation. The grid spans the data extended by KDE_EXTEND
    bandwidths so the density integrates to ~1 over the grid.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    n = len(x)
    if n < 2:
        raise ValueError("need at least two points")
    factor = n ** (-1.0 / 6.0)
    hx = max(factor * float(np.std(x, ddof=1)), 1e-9)
    hy = max(factor * float(np.std(y, ddof=1)), 1e-9)
    gx = np.linspace(x.min() - KDE_EXTEND * hx, x.max() + KDE_EXTEND * hx, KDE_GRIDSIZE)
    gy = np.linspace(y.min() - KDE_EXTEND * hy, y.max() + KDE_EXTEND * hy, KDE_GRIDSIZE)
    ux = (gx[:, None] - x[None, :]) / hx
    uy = (gy[:, None] - y[None, :]) / hy
    phi_x = np.exp(-0.5 * ux * ux) / math.sqrt(2.0 * math.pi)
    phi_y = np.exp(-0.5 * uy * uy) / math.sqrt(2.0 * math.pi)
    density = (phi_x @ phi_y.T) / (n * hx * hy)
    return gx, gy, density


@dataclass
class SignatureResult:
    x_field: str
    y_field: str
    slope: float
    correlation: float
    x_grid: np.ndarray
    y_grid: np.ndarray
    density: np.ndarray


def signature(records, x_field: str, y_field: str) -> SignatureResult:
    """Regression and density signature of one recovery metric against another.

    Records with an impact below IMPACT_CUTOFF (performance drops beyond
    50%) are excluded from the slope/correlation fit; the density grid uses
    all records.
    """
    records = list(records)
    if len(records) < 2:
        raise ValueError("need at least two records")
    xs = np.array([getattr(r, x_field) for r in records], dtype=float)
    ys = np.array([getattr(r, y_field) for r in records], dtype=float)
    keep = np.array([getattr(r, "impact", 0.0) >= IMPACT_CUTOFF for r in records])
    if keep.sum() < 2:
        raise ValueError("fewer than two records after the impact cut")
    slope, correlation = linear_fit(xs[keep], ys[keep])
    gx, gy, density = kde_grid_2d(xs, ys)
    return SignatureResult(
        x_field=x_field,
        y_field=y_field,
        slope=slope,
        correlation=correlation,
        x_grid=gx,
        y_grid=gy,
        density=density,
    )
