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
    # Screen slack. With u = 2^-53 and g_m = m u / (1 - m u), a float sum of
    # m products is within g_m sum|x_i y_i| of exact, in any summation order
    # and with or without FMA. Let n = len(d), M the largest centroid norm
    # and R = M + |d|. A computed score is then within g_(n+1) R^2 of
    # |c_i - d|^2 - |d|^2 (norm and product carry g_n each, the subtraction
    # one u), and a full-scan distance is within g_(n+2) R^2 of |c_i - d|^2
    # (difference, square, then the sum). So every full-scan minimiser
    # scores within 2 (g_(n+1) + g_(n+2)) R^2 < 4 g_(n+3) R^2 of the best
    # score. The spare g covers the rounding of M, |d| and the threshold, and
    # 4 (n + 3) 2^-1074 covers underflow. A NaN score makes the threshold NaN
    # and leaves no candidate, so the full scan ranks them all.
    n = len(d)
    gamma = (n + 3) * 2.0**-53 / (1.0 - (n + 3) * 2.0**-53)
    reach = np.sqrt(norms.max()) + np.sqrt(d @ d)
    slack = 4.0 * gamma * reach * reach + 4.0 * (n + 3) * 2.0**-1074
    cand = np.flatnonzero(scores <= scores.min() + slack)
    if not cand.size:
        cand = np.arange(len(c))
    dist = ((c[cand] - d) ** 2).sum(axis=1)
    return int(cand[np.argmin(dist)])


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


def _assign(points, centroids) -> np.ndarray:
    """Nearest-centroid labels, ASSIGN_CHUNK points at a time into one
    reused score block."""
    norms = _squared_norms(centroids)
    labels = np.empty(len(points), dtype=np.int64)
    scores = np.empty((min(ASSIGN_CHUNK, len(points)), len(centroids)))
    for rows in _row_blocks(len(points), ASSIGN_CHUNK):
        block = points[rows]
        out = scores[: len(block)]
        # in place; equal to norms - 2.0 * (block @ centroids.T) bit for bit:
        # scaling by -2 is exact, and (-b) + a is a - b in IEEE arithmetic
        np.matmul(block, centroids.T, out=out)
        out *= -2.0
        out += norms
        np.argmin(out, axis=1, out=labels[rows])
    return labels


def _label_means(points, labels, k) -> tuple[np.ndarray, np.ndarray]:
    """Per-label sums and counts. Each sum has the bits of `np.add.reduceat`
    along axis 0 over the label's rows (its segment) in ascending row order.

    For a segment of s rows a0..a(s-1), reduceat adds each column as
    `a0 + (((a1 + a2) + a3) + ...)` while s <= SHORT_SEGMENT; beyond that
    its pairwise summation takes over. Short segments are therefore added
    rank by rank, vectorised across segments. Longer ones go to reduceat
    about SUM_BLOCK values at a time: reduceat sums each segment on its
    own, so grouping them leaves the bits alone, and the small blocks stay
    in cache where one sorted copy of the cloud would not.
    """
    order = np.argsort(labels, kind="stable")
    counts = np.bincount(labels, minlength=k)
    present = np.flatnonzero(counts)
    sizes = counts[present]
    starts = np.cumsum(sizes) - sizes
    sums = np.zeros((k, points.shape[1]))
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
    return sums, counts


def _max_shift(new, old) -> float:
    """`np.linalg.norm(new - old, axis=1).max()`, bit for bit, about
    SUM_BLOCK values at a time."""
    shifts = []
    for rows in _row_blocks(len(new), max(1, SUM_BLOCK // new.shape[1])):
        diff = new[rows] - old[rows]
        diff *= diff
        shifts.append(np.sqrt(diff.sum(axis=1)).max())
    return float(np.max(shifts))


def generate_cvt_centroids(
    k: int,
    dim: int,
    n_seeds: int,
    seed: int = 0,
    simplex_blocks: bool = False,
    max_iter: int = 100,
) -> np.ndarray:
    """Lloyd's k-means over a uniform seed cloud.

    With `simplex_blocks`, seeds are drawn per SIMPLEX_BLOCK values uniformly on
    the probability simplex, so centroids inherit unit block sums. Iteration
    stops when the largest centroid shift falls below CVT_TOL. Besides the
    cloud, a build holds one (ASSIGN_CHUNK, k) score block and two (k, dim)
    arrays at a time.
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
    centroids = points[np.sort(rng.choice(len(points), size=k, replace=False))]
    for _ in range(max_iter):
        sums, counts = _label_means(points, _assign(points, centroids), k)
        # each occupied cell moves to its mean; an empty one stays put
        occupied = counts > 0
        np.divide(sums, counts[:, None], out=sums, where=occupied[:, None])
        sums[~occupied] = centroids[~occupied]
        shift = _max_shift(sums, centroids)
        centroids = sums
        if shift < CVT_TOL:
            break
    return centroids


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
