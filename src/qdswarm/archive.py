"""Behaviour-performance archives: fixed grids and CVT tessellations.

One archive class holds at most one elite per cell and only replaces an
incumbent on a strict performance improvement. Grid indexing serves the
hand-coded descriptor (16^3 bins) and the environment descriptor (4^6 bins);
CVT indexing partitions higher-dimensional descriptor spaces into 4096 cells
around the centroids of Lloyd's k-means over a seed cloud.

The CVT arithmetic is exact with respect to its plain reference forms: a
lookup returns the full scan's argmin of squared distances, bit for bit, by
screening the centroids with one matrix-vector product and ranking only the
few within a proven rounding bound of the best; the Lloyd cluster sums carry
the bits of `np.add.reduceat` over the sorted rows.

A Lloyd assignment returns the argmin of the float64 chunk product
`norms - 2 points @ centroids.T`, bit for bit, on whatever BLAS kernel runs
it, while scoring in float32 at half the bytes. One bound, `_score_error`,
covers the rounding of a score in either precision. A point whose best
float32 score beats the rest by more than the two bounds takes it; the few
within them rank their candidates by float64 distance. Each point keeps
bounds on its scores from the pass that decided it, and a centroid whose
bits did not change keeps its scores, so after the first pass a point is
scored against the centroids that moved, and against all of them only when
its bounds leave its label open. A chunk with a tie within the float64
bounds, a non-finite value, or values that could overflow float32 is
scored again, whole, by the float64 product itself, so exact ties,
duplicated centroids and midpoints keep its lowest-index tie-break. Only
the clusters whose points changed are summed again.
"""

import csv
import os
from dataclasses import dataclass, field, fields
from typing import Callable, Optional

import numpy as np

from .environment import EnvironmentSpec, N_LEVELS
from .genome import Genome, load_genome, save_genome

ARCHIVE_CAPACITY = 4096
CVT_ALGORITHMS = ("sdbc", "spirit")
HBD_BINS = 16
SIMPLEX_BLOCK = 16  # values per probability-simplex block of a spirit seed point
ASSIGN_CHUNK = 2048  # seed points per nearest-centroid block
SHORT_SEGMENT = 8  # largest Lloyd cluster whose sum is added rank by rank
SUM_BLOCK = 1 << 16  # values per block of the Lloyd sums, norms and shifts
CVT_TOL = 1e-6  # Lloyd stops once no centroid moves this far
FLOAT64_ROUNDING = (2.0**-53, 2.0**-1073)  # (unit, tiny) of `_score_error`
FLOAT32_ROUNDING = (2.0**-24, 2.0**-125)
TABLE_BLOCK = 512  # table rows formatted per block


@dataclass
class Elite:
    """One archive cell's occupant and its evaluation metadata."""

    genome: Genome
    performance: float
    descriptor: object = None
    env: EnvironmentSpec = None


def hbd_bins(descriptor) -> tuple[int, ...]:
    """Bin a [0,1]^3 descriptor into 16 bins per dimension."""
    d = np.asarray(descriptor, dtype=float)
    return tuple(int(min(HBD_BINS - 1, max(0, np.floor(v * HBD_BINS)))) for v in d)


def qed_bins(index) -> tuple[int, ...]:
    """An environment descriptor is already its per-attribute level indices."""
    return tuple(int(i) for i in index)


@dataclass
class Archive:
    """Sparse archive holding at most one elite per cell.

    A descriptor maps to its cell key either through a fixed grid (`binner`
    then row-major flattening over `dims`) or, when `centroids` is set,
    through the nearest centroid. Build one with :meth:`hbd`, :meth:`qed`
    or :meth:`cvt`. A CVT archive works out its centroids' squared norms
    once, into `norms`, for the lookups.
    """

    dims: tuple[int, ...] = ()
    binner: Optional[Callable] = None
    centroids: Optional[np.ndarray] = None
    cells: dict[int, Elite] = field(default_factory=dict)
    norms: Optional[np.ndarray] = field(default=None, init=False, repr=False)

    def __post_init__(self):
        if self.centroids is not None:
            self.centroids = np.asarray(self.centroids, dtype=float)
            self.norms = _squared_norms(self.centroids)

    @classmethod
    def hbd(cls) -> "Archive":
        return cls(dims=(HBD_BINS,) * 3, binner=hbd_bins)

    @classmethod
    def qed(cls) -> "Archive":
        return cls(dims=(N_LEVELS,) * 6, binner=qed_bins)

    @classmethod
    def cvt(cls, centroids) -> "Archive":
        return cls(centroids=centroids)

    @property
    def capacity(self) -> int:
        if self.centroids is not None:
            return len(self.centroids)
        return int(np.prod(self.dims))

    def key_of(self, descriptor) -> int:
        if self.centroids is not None:
            return nearest_centroid(descriptor, self.centroids, self.norms)
        # row-major; ValueError for a bin outside the grid or of the wrong length
        return int(np.ravel_multi_index(self.binner(descriptor), self.dims))

    def try_insert(self, key: int, elite: Elite) -> bool:
        """Place `elite` at `key` on a strict improvement; incumbents win ties."""
        incumbent = self.cells.get(key)
        if incumbent is None or elite.performance > incumbent.performance:
            self.cells[key] = elite
            return True
        return False

    @property
    def coverage(self) -> int:
        return len(self.cells)


def make_archive(algorithm: str, centroids) -> Archive:
    """Empty archive of an algorithm: hbd and qed grids, or a CVT over
    `centroids` for sdbc and spirit."""
    if algorithm == "hbd":
        return Archive.hbd()
    if algorithm == "qed":
        return Archive.qed()
    if algorithm in CVT_ALGORITHMS:
        return Archive.cvt(centroids)
    raise ValueError(f"unknown archive kind {algorithm!r}")


# ---------------------------------------------------------------------------
# CVT construction


def nearest_centroid(descriptor, centroids, norms=None) -> int:
    """Index of the Euclidean-nearest centroid; ties go to the lowest index.

    The result is that of the full scan `argmin(((centroids - d) ** 2).sum(axis=1))`,
    bit for bit. One matrix-vector product scores every centroid by
    `norms - 2 centroids @ d`, which is its squared distance minus |d|^2 up to
    a bounded rounding error. Only the centroids scoring within that bound of
    the best can be the full scan's answer, and only they are ranked by the
    full scan's own expression. `norms` are the centroids' squared norms;
    pass them when looking up many descriptors in one centroid set.
    """
    d = np.asarray(descriptor, dtype=float).ravel()
    c = np.asarray(centroids, dtype=float)
    if norms is None:
        norms = _squared_norms(c)
    scores = c @ d
    scores *= -2.0
    scores += norms
    # A computed score and a full-scan distance each err by at most
    # `_score_error` (their exact values differ by |d|^2 alone), so every
    # full-scan minimiser scores within twice their sum of the best score.
    # A NaN score makes the threshold NaN and leaves no candidate, so the
    # full scan ranks them all.
    reach = np.sqrt(norms.max()) + np.sqrt(d @ d)
    slack = 4.0 * _score_error(len(d), reach, *FLOAT64_ROUNDING)
    cand = np.flatnonzero(scores <= scores.min() + slack)
    if not cand.size:
        cand = np.arange(len(c))
    dist = ((c[cand] - d) ** 2).sum(axis=1)
    return int(cand[np.argmin(dist)])


def _score_error(dim: int, reach, unit: float, tiny: float):
    """A bound on the rounding error of a score `|c|^2 - 2 c @ x`, and of a
    squared distance `((c - x) ** 2).sum()`, worked out in a float format of
    unit roundoff `unit` over `dim` coordinates; `reach` bounds |x| + |c|,
    one value or one per point.

    With g_m = m unit / (1 - m unit), a float sum of m products is within
    g_m sum|x_i y_i| of exact, in any summation order and with or without
    FMA. A score's product and norm then carry g_dim reach^2 together and
    their sum one unit more; a distance's difference, square and sum carry
    g_(dim+2) reach^2. The bound is g_(dim+4) reach^2, whose spare covers
    the rounding of the reach and of the bound itself, and in float32 the
    conversion of x and c (see `_Float32Screen`). Underflow adds at most
    `tiny` per coordinate: 2^-1073 in float64, where it is gradual, and
    2^-125 in float32, where a product and a sum may each flush to zero.
    """
    n = dim + 4
    return n * unit / (1.0 - n * unit) * reach * reach + n * tiny


def _row_blocks(n: int, size: int):
    """Slices of `size` consecutive rows covering `n` rows."""
    return (slice(start, start + size) for start in range(0, n, size))


def _squared_norms(rows) -> np.ndarray:
    """`(rows**2).sum(axis=1)`, bit for bit, squaring about SUM_BLOCK values
    at a time. (Blocks of ASSIGN_CHUNK rows, 16 MiB at 1024 dimensions, let
    glibc's heap grow by about 32 MB over ten desk spirit builds.)"""
    norms = np.empty(len(rows))
    for block in _row_blocks(len(rows), max(1, SUM_BLOCK // rows.shape[1])):
        np.square(rows[block]).sum(axis=1, out=norms[block])
    return norms


def sample_simplex_blocks(rng, count: int, dim: int) -> np.ndarray:
    """Seed points whose consecutive SIMPLEX_BLOCK-sized slices each lie on
    the probability simplex (uniformly, via normalised exponentials).

    The points fill one array ASSIGN_CHUNK rows at a time. They have the
    bits of one `rng.exponential(1.0, (count, dim // SIMPLEX_BLOCK,
    SIMPLEX_BLOCK))` draw normalised per slice, and leave `rng` in that
    draw's state: the unit exponential is the standard one, drawn in the
    same order, and each slice is normalised on its own.
    """
    if dim % SIMPLEX_BLOCK:
        raise ValueError("dim must be a multiple of the block size")
    points = np.empty((count, dim))
    for rows in _row_blocks(count, ASSIGN_CHUNK):
        block = points[rows].reshape(-1, dim // SIMPLEX_BLOCK, SIMPLEX_BLOCK)
        rng.standard_exponential(out=block)
        block /= block.sum(axis=2, keepdims=True)
    return points


def _assign_exact(block, centroids, norms, out) -> None:
    """Write to `out` the argmin of each row of the float64 score block
    `norms - 2.0 * (block @ centroids.T)`. `block` is always a whole
    reference chunk, rows [i ASSIGN_CHUNK, (i + 1) ASSIGN_CHUNK) of the
    cloud: a BLAS kernel may group a product's sums by its shape, so the
    product of another block need not have the reference's bits."""
    scores = np.empty((len(block), len(centroids)))
    # in place; equal to norms - 2.0 * (block @ centroids.T) bit for bit:
    # scaling by -2 is exact, and (-b) + a is a - b in IEEE arithmetic
    np.matmul(block, centroids.T, out=scores)
    scores *= -2.0
    scores += norms
    np.argmin(scores, axis=1, out=out)


def _best_two(scores):
    """Each row's argmin, lowest and second-lowest score (float64), found
    through `scores` in place and left as they were."""
    rows = np.arange(len(scores))
    best = np.argmin(scores, axis=1)
    low = scores[rows, best]
    scores[rows, best] = np.inf
    second = scores.min(axis=1)
    scores[rows, best] = low
    return best, low.astype(float), second.astype(float)


class _Float32Screen:
    """The Lloyd assignment of one seed cloud, kept across the passes of a
    build. Each pass (`assign`) writes to `labels` the argmin of the float64
    chunk product `norms - 2 points @ centroids.T`, ASSIGN_CHUNK points at a
    time, with ties to the lowest index: the bits of `_assign_exact`.

    Scores are worked out in float32, from the centroids times -2 and their
    squared norms converted once per build and refreshed where a centroid
    moved (`move`). A float32 score errs from the exact `|c|^2 - 2 c @ x` by
    at most the float32 `_score_error` over the reach |x| + max|c| + 2
    sqrt(dim) 2^-102: converting a coordinate v to float32 moves it by at
    most 2^-24 max(|v|, 2^-102), so x and c move by at most 2^-24 times
    their norm plus sqrt(dim) 2^-102, and the scaling by -2 is exact. The
    float64 score of `_assign_exact` errs by at most the float64 bound E64.

    Each point keeps, from the float32 scores that last decided it, an
    upper bound on its own centroid's exact score and a lower bound on
    every other centroid's (`upper`, `lower`: the best and second-best
    score plus and minus the float32 bound, whose spare in float32 units
    covers their float64 rounding). A centroid whose bits did not change
    keeps its exact scores, so the bounds outlive a pass. A point whose
    own centroid did not move keeps it when its upper bound beats by more
    than 2 E64 both its old lower bound and the moved centroids' (their
    lowest float32 score less the float32 bound); a point whose own
    centroid moved takes the best moved centroid when that one's upper
    bound beats its old lower bound and the other moved centroids' by the
    same margin. Either way its float64 score is the lowest. So a pass
    scores every point against the moved centroids only, and the points
    these bounds leave open against every centroid, as the first pass does
    with every centroid moved and no point bounded.

    Against every centroid, a point whose best float32 score beats its
    second best by more than twice the two bounds (its margin) takes it.
    The others (the band) rank the centroids scoring within the margin of
    their best by float64 distance, take the nearest when it beats the
    rest by more than four float64 bounds, and keep no lower bound, so
    the next pass scores them against every centroid again. A chunk with a
    tie within the float64 bounds, a non-finite value, a reach of 2^63 or
    more (at which a float32 score could overflow), or a band whose
    candidates would outgrow the score block goes whole to `_assign_exact`
    after the score block is freed, and its points keep no lower bound.

    Besides the cloud and the centroids, a build holds a float32 copy of
    the centroids, a float32 block of points being converted (at most a
    quarter of the full score block's bytes: it is sized from the full k
    once per build, so a pass over a few moved centroids still multiplies
    large blocks) and 32 bytes per point: its label, its two bounds and its
    norm. A pass adds one (ASSIGN_CHUNK, k) float32 score block and a
    float32 copy of the moved centroids.
    """

    def __init__(self, points, centroids):
        n = len(points)
        k, dim = centroids.shape
        rows = min(ASSIGN_CHUNK, n)
        self.points, self.centroids = points, centroids
        self.norms = _squared_norms(centroids)
        self.radii = np.sqrt(_squared_norms(points))
        self.labels = np.full(n, -1, dtype=np.int64)
        self.upper = np.empty(n)
        self.lower = np.full(n, -np.inf)  # -inf: scored against every centroid next pass
        self.moved = np.arange(k)
        self.scaled = np.multiply(centroids, -2.0, dtype=np.float32)
        self.norms32 = self.norms.astype(np.float32)
        # points are converted a quarter of the full score block's bytes at a time, at most
        self.buffer = np.empty((min(rows, max(1, rows * k // (4 * dim))), dim), np.float32)
        self.score_shape = (rows, k)
        self.scores = None

    def assign(self) -> np.ndarray:
        """One pass over the chunks; returns the mask of the clusters whose
        members changed."""
        k = len(self.centroids)
        moved = self.moved
        mask = np.zeros(k, dtype=bool)
        mask[moved] = True
        if len(moved) == k:
            columns = moved, mask, self.scaled, self.norms32
        else:
            columns = moved, mask, self.scaled[moved], self.norms32[moved]
        largest = np.sqrt(self.norms.max())
        changed = np.zeros(k, dtype=bool)
        for chunk in _row_blocks(len(self.points), ASSIGN_CHUNK):
            old = self.labels[chunk].copy()
            reach = self.radii[chunk] + largest
            if not (reach.max() < 2.0**63 and self._screen(chunk, reach, columns)):
                self.scores = None
                _assign_exact(self.points[chunk], self.centroids, self.norms, self.labels[chunk])
                self.lower[chunk] = -np.inf
            new = self.labels[chunk]
            switched = new != old
            changed[new[switched]] = True
            changed[old[switched & (old >= 0)]] = True
        self.scores = None
        return changed

    def move(self, moved) -> None:
        """Take the new values of the centroid rows `moved`, changed in place."""
        for block in _row_blocks(len(moved), max(1, SUM_BLOCK // self.buffer.shape[1])):
            ids = moved[block]
            values = self.centroids[ids]
            self.norms[ids] = _squared_norms(values)
            self.scaled[ids] = np.multiply(values, -2.0, dtype=np.float32)
        self.norms32[moved] = self.norms[moved]
        self.moved = moved

    def _screen(self, chunk, reach, columns) -> bool:
        """Label the points of `chunk` and update their bounds; return False
        when a label is not proven."""
        dim = self.centroids.shape[1]
        labels, upper, lower = self.labels[chunk], self.upper[chunk], self.lower[chunk]
        rows = np.arange(chunk.start, chunk.start + len(labels))
        exact = _score_error(dim, reach, *FLOAT64_ROUNDING)
        error = _score_error(dim, reach + 2.0 * np.sqrt(dim) * 2.0**-102, *FLOAT32_ROUNDING)
        todo = np.flatnonzero(lower == -np.inf)
        if len(todo) < len(rows):
            moved, mask, scaled, norms = columns
            best, low, second = _best_two(self._scores(rows, scaled, norms))
            own_moved = mask[labels]
            top = np.where(own_moved, low + error, upper)
            rest = np.minimum(lower, np.where(own_moved, second, low) - error)
            proven = top + 2.0 * exact < rest
            labels[proven] = np.where(own_moved, moved[best], labels)[proven]
            upper[proven] = top[proven]
            lower[proven] = rest[proven]
            todo = np.flatnonzero(~proven)
        if not todo.size:
            return True
        scores = self._scores(rows[todo], self.scaled, self.norms32)
        best, low, second = _best_two(scores)
        margin = 2.0 * (error[todo] + exact[todo])
        labels[todo] = best
        upper[todo] = low + error[todo]
        lower[todo] = second - error[todo]
        band = np.flatnonzero(~(second - low > margin))
        if not band.size:
            return True
        lower[todo[band]] = -np.inf
        nearest = self._rank(rows[todo[band]], scores[band], low[band] + margin[band], exact[todo[band]])
        if nearest is None:
            return False
        labels[todo[band]] = nearest
        return True

    def _scores(self, rows, scaled, norms):
        """The float32 scores of the points `rows` (ascending) against the
        centroids `scaled` (times -2) of squared norms `norms`, in the score
        block."""
        if self.scores is None:
            self.scores = np.empty(self.score_shape, np.float32)
        scores = self.scores.reshape(-1)[: len(rows) * len(scaled)].reshape(len(rows), len(scaled))
        for part in _row_blocks(len(rows), len(self.buffer)):
            index = rows[part]
            points = self.buffer[: len(index)]
            if index[-1] - index[0] == len(index) - 1:  # a run of rows converts from a view
                np.copyto(points, self.points[index[0] : index[-1] + 1])
            else:  # others are gathered about SUM_BLOCK float64 values at a time
                for block in _row_blocks(len(index), max(1, SUM_BLOCK // points.shape[1])):
                    np.copyto(points[block], self.points[index[block]])
            np.matmul(points, scaled.T, out=scores[part])
        scores += norms
        return scores

    def _rank(self, rows, scores, limit, exact):
        """The float64-nearest centroid of each point of `rows` among those
        scoring at most its `limit`, or None when one does not beat the rest
        by four float64 bounds `exact`. The candidates (their float32 scores
        and mask, then their float64 differences) take at most the score
        block's bytes again, or 2 SUM_BLOCK float64 values; None beyond."""
        capacity, k = self.score_shape
        if 5 * len(rows) > 4 * capacity:
            return None
        owner, cols = np.nonzero(scores <= limit[:, None])
        if len(cols) * self.centroids.shape[1] > max(capacity * k // 4, SUM_BLOCK):
            return None
        diff = np.take(self.centroids, cols, axis=0)
        diff -= np.take(self.points, rows[owner], axis=0)
        diff *= diff
        dist = diff.sum(axis=1)
        starts = np.flatnonzero(np.diff(owner, prepend=-1))
        nearest = np.minimum.reduceat(dist, starts)
        at_min = dist == np.repeat(nearest, np.diff(starts, append=len(dist)))
        runner_up = np.minimum.reduceat(np.where(at_min, np.inf, dist), starts)
        if at_min.sum() > len(rows) or not (runner_up - nearest > 4.0 * exact).all():
            return None
        return cols[at_min]


def _label_means(points, order, counts) -> np.ndarray:
    """The sums of consecutive clusters of rows: cluster i holds the next
    `counts[i]` rows listed in `order`, in ascending row order. Each sum has
    the bits of `np.add.reduceat` along axis 0 over the cluster's rows (its
    segment); an empty cluster sums to zeros.

    For a segment of s rows a0..a(s-1), reduceat adds each column as
    `a0 + (((a1 + a2) + a3) + ...)` while s <= SHORT_SEGMENT; beyond that
    its pairwise summation takes over. Short segments are therefore added
    rank by rank, vectorised across segments. Longer ones go to reduceat
    about SUM_BLOCK values at a time: reduceat sums each segment on its
    own, so grouping them leaves the bits alone, and the small blocks stay
    in cache where one sorted copy of the cloud would not.
    """
    present = np.flatnonzero(counts)
    sizes = counts[present]
    starts = np.cumsum(sizes) - sizes
    sums = np.zeros((len(counts), points.shape[1]))
    short = sizes <= SHORT_SEGMENT
    sums[present[short]] = points[order[starts[short]]]
    # a short segment's later rows are summed in rank order, then join its first
    multi = short & (sizes > 1)
    tail_starts, tail_sizes = starts[multi] + 1, sizes[multi] - 1
    tail = points[order[tail_starts]]
    for rank in range(1, SHORT_SEGMENT - 1):
        more = tail_sizes > rank
        tail[more] += points[order[tail_starts[more] + rank]]
    sums[present[multi]] += tail
    # long segments back to back; one call takes those starting in one block
    long_labels, long_sizes = present[~short], sizes[~short]
    rows = order[np.repeat(~short, sizes)]
    offsets = np.cumsum(long_sizes) - long_sizes
    bounds = np.append(offsets, len(rows))
    block_rows = max(1, SUM_BLOCK // points.shape[1])
    firsts = np.flatnonzero(np.diff(offsets // block_rows, prepend=-1))
    for a, b in zip(firsts, [*firsts[1:], len(offsets)]):
        block = points[rows[bounds[a] : bounds[b]]]
        sums[long_labels[a:b]] = np.add.reduceat(block, offsets[a:b] - bounds[a], axis=0)
    return sums


def _max_shift(new, old) -> float:
    """`np.linalg.norm(new - old, axis=1).max()`, bit for bit, about
    SUM_BLOCK values at a time."""
    shifts = []
    for rows in _row_blocks(len(new), max(1, SUM_BLOCK // new.shape[1])):
        diff = new[rows] - old[rows]
        diff *= diff
        shifts.append(np.sqrt(diff.sum(axis=1)).max())
    return float(np.max(shifts))


def _move_to_means(points, labels, centroids, changed):
    """Move each cluster of the mask `changed` to the mean of its points, in
    place; an empty one stays put. Returns the clusters whose centroid bits
    changed and the largest shift, 0.0 when none moved.

    Clusters whose points did not change keep their centroid: it is already
    the mean of the same rows, bit for bit, or an empty cell's (on the first
    pass, whose labels start unassigned, every occupied cluster changed).
    The others are summed (in the bits of `np.add.reduceat` over their
    rows in ascending order) about SUM_BLOCK values of centroids at a time,
    so that no (k, dim) array of sums is held beside the centroids.
    """
    clusters = np.flatnonzero(changed)
    rows = np.flatnonzero(changed[labels])
    members = (np.cumsum(changed) - 1)[labels[rows]]
    order = rows[np.argsort(members, kind="stable")]
    counts = np.bincount(members, minlength=len(clusters))
    ends = np.cumsum(counts)
    moved, shift = [np.empty(0, dtype=np.int64)], 0.0
    for block in _row_blocks(len(clusters), max(1, SUM_BLOCK // points.shape[1])):
        ids, sizes, stops = clusters[block], counts[block], ends[block]
        means = _label_means(points, order[stops[0] - sizes[0] : stops[-1]], sizes)
        occupied = sizes > 0
        np.divide(means, sizes[:, None], out=means, where=occupied[:, None])
        old = centroids[ids]
        means[~occupied] = old[~occupied]
        shift = max(shift, _max_shift(means, old))
        moved.append(ids[(means.view(np.int64) != old.view(np.int64)).any(axis=1)])
        centroids[ids] = means
    return np.concatenate(moved), shift


def _lloyd(points, centroids, max_iter: int) -> np.ndarray:
    """Lloyd's iterations over `points` from `centroids`, which move in
    place: each cell moves to the mean of its points (an empty one stays
    put) until no centroid moves CVT_TOL or more, or `max_iter` passes.

    The bits are those of the plain loop that assigns every point by the
    float64 chunk product and sums every cluster. After the first pass only
    the centroids that moved are scored again (`_Float32Screen`), and only
    the clusters whose points changed are summed again; a pass that moves
    no centroid shifts by exactly 0 and ends the loop.
    """
    screen = _Float32Screen(points, centroids)
    for _ in range(max_iter):
        moved, shift = _move_to_means(points, screen.labels, centroids, screen.assign())
        if shift < CVT_TOL:
            break
        screen.move(moved)
    return centroids


def generate_cvt_centroids(
    k: int,
    dim: int,
    n_seeds: int,
    seed: int = 0,
    simplex_blocks: bool = False,
    max_iter: int = 100,
) -> np.ndarray:
    """Lloyd's k-means over a uniform seed cloud (`_lloyd`).

    With `simplex_blocks`, seeds are drawn per SIMPLEX_BLOCK values uniformly on
    the probability simplex, so centroids inherit unit block sums. Iteration
    stops when the largest centroid shift falls below CVT_TOL. Besides the
    cloud, a build holds one (ASSIGN_CHUNK, k) score block, in float32 but
    for a chunk that falls back to float64, the centroids, a float32 copy of
    them and of the ones that moved, and 32 bytes per seed.
    """
    if n_seeds < k:
        raise ValueError(f"need at least k={k} seed points, got {n_seeds}")
    rng = np.random.default_rng(seed)
    if simplex_blocks:
        points = sample_simplex_blocks(rng, n_seeds, dim)
    else:
        points = rng.random((n_seeds, dim))
    # Lloyd starts from a uniform distinct subset of the cloud: on uniform
    # clouds this matches k-means++ seeding at a fraction of its O(k n d) cost.
    return _lloyd(points, points[np.sort(rng.choice(len(points), size=k, replace=False))], max_iter)


# ---------------------------------------------------------------------------
# Persistence


def _table_cell(v) -> str:
    return "" if v is None else repr(float(v)) if isinstance(v, float) else str(v)


def _table_block(rows: list, width: int) -> str:
    """The lines of `rows`, formatted column by column; a row of other than
    `width` cells, a cell that needs quoting, or a row that would be a blank
    line raises ValueError.

    A column of floats goes through one `map(repr)` (a float's repr never
    needs quoting, nor is it empty), a column of strings stays as it is, and
    any other column is formatted cell by cell with `_table_cell`; each
    non-float column is scanned once for a character that needs quoting."""
    if set(map(len, rows)) != {width}:
        row = next(row for row in rows if len(row) != width)
        raise ValueError(f"table row {row!r} has {len(row)} cells for {width} columns")
    if width == 0:
        raise ValueError(f"table row {rows[0]!r} is a blank line, which needs CSV quoting")
    columns = []
    for column in zip(*rows):
        types = set(map(type, column))
        if types == {float}:
            column = map(repr, column)
        else:
            if types != {str}:
                column = list(map(_table_cell, column))
            text = "".join(column)
            if "," in text or '"' in text or "\r" in text or "\n" in text:
                cell = next(c for c in column if any(char in c for char in ',"\r\n'))
                raise ValueError(f"table cell {cell!r} needs CSV quoting, which tables never use")
            if width == 1 and "" in column:
                row = rows[column.index("")]
                raise ValueError(f"table row {row!r} is a blank line, which needs CSV quoting")
        columns.append(column)
    return "\r\n".join(map(",".join, zip(*columns))) + "\r\n"


def write_table(path, header: str, columns, rows) -> None:
    """Write a table: the provenance `header` line (none when empty), the
    column names, then `rows` (sequences of cells), in blocks of
    TABLE_BLOCK rows.

    Each line is its cells joined by "," and ended by CRLF. A float cell is
    written as `repr(float(v))`, so numpy scalars print as plain numbers;
    None is an empty cell, and anything else goes through `str`. The format
    has no quoting: a cell holding ",", '"', CR or LF, or a row that would
    be a blank line, raises ValueError, and so does a row of more or fewer
    cells than `columns`.
    """
    with open(path, "w", encoding="utf-8", newline="") as fh:
        if header:
            fh.write(header.rstrip("\n") + "\n")
        fh.write(_table_block([list(columns)], len(columns)))
        rows = iter(rows)
        while block := [row for _, row in zip(range(TABLE_BLOCK), rows)]:
            fh.write(_table_block(block, len(columns)))


def read_table(path):
    """Yield one dict per row of a :func:`write_table` table."""
    with open(path, encoding="utf-8") as fh:
        yield from csv.DictReader(line for line in fh if not line.startswith("#"))


_ENV_FIELDS = fields(EnvironmentSpec)


def save_archive(archive, directory, header: str = "") -> None:
    """Write the archive index CSV plus one genome file per elite, and a CVT
    archive's centroids as `centroids.npy`.

    Index columns: cell key, performance, the six environment attributes the
    elite was evaluated in, and its genome file name.
    """
    os.makedirs(os.path.join(directory, "genomes"), exist_ok=True)
    rows = []
    for key in sorted(archive.cells):
        elite = archive.cells[key]
        env = elite.env if elite.env is not None else EnvironmentSpec()
        name = f"cell_{key:05d}.txt"
        save_genome(elite.genome, os.path.join(directory, "genomes", name))
        # each attribute through its field type: EnvironmentSpec(arena_side=4) writes 4.0
        attributes = [f.type(getattr(env, f.name)) for f in _ENV_FIELDS]
        rows.append([key, float(elite.performance), *attributes, name])
    columns = ["key", "performance", *(f.name for f in _ENV_FIELDS), "genome_file"]
    write_table(os.path.join(directory, "index.csv"), header, columns, rows)
    if archive.centroids is not None:
        np.save(os.path.join(directory, "centroids.npy"), archive.centroids)


def load_archive(directory, kind: str):
    """Load an archive saved by :func:`save_archive`.

    `kind` is one of hbd/sdbc/spirit/qed; CVT kinds require the `centroids.npy`
    saved next to the index. Descriptors are not persisted and are left None.
    """
    centroids = None
    if kind in CVT_ALGORITHMS:
        centroids = np.load(os.path.join(directory, "centroids.npy"))
    archive = make_archive(kind, centroids)
    for row in read_table(os.path.join(directory, "index.csv")):
        env = EnvironmentSpec(**{f.name: f.type(row[f.name]) for f in _ENV_FIELDS})
        genome = load_genome(os.path.join(directory, "genomes", row["genome_file"]))
        archive.cells[int(row["key"])] = Elite(genome, float(row["performance"]), env=env)
    return archive
