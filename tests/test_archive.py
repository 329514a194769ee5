import ast
import hashlib
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
import qdswarm.archive as archive_module
from qdswarm.archive import (
    ASSIGN_CHUNK,
    TABLE_BLOCK,
    Archive,
    Elite,
    _assign,
    _Float32Screen,
    _label_means,
    _squared_norms,
    generate_cvt_centroids,
    hbd_bins,
    load_archive,
    nearest_centroid,
    read_table,
    sample_simplex_blocks,
    save_archive,
    write_table,
)
from qdswarm.environment import (
    ATTRIBUTE_SETS,
    NORMAL_ENV,
    EnvironmentSpec,
    env_from_index,
    env_index,
    generate_environment,
)
from qdswarm.genome import Genome, random_genome


class TestCvtGeneration:
    def test_single_centroid_is_seed_mean(self):
        # the seed cloud is the function's first draw from default_rng(seed)
        points = np.random.default_rng(4).random((500, 3))
        centroids = generate_cvt_centroids(1, 3, 500, seed=4)
        assert centroids[0] == pytest.approx(points.mean(axis=0), abs=1e-12)

    def test_simplex_seed_blocks_sum_to_one(self):
        rng = np.random.default_rng(0)
        seeds = sample_simplex_blocks(rng, 200, 1024)
        sums = seeds.reshape(200, 64, 16).sum(axis=2)
        assert sums == pytest.approx(np.ones((200, 64)), abs=1e-12)
        assert np.all(seeds >= 0.0)

    def test_centroid_blocks_preserved_under_lloyd(self):
        centroids = generate_cvt_centroids(
            32, 64, 300, seed=2, simplex_blocks=True, max_iter=5
        )
        sums = centroids.reshape(32, 4, 16).sum(axis=2)
        assert sums == pytest.approx(np.ones((32, 4)), abs=1e-9)

    def test_too_few_seeds_rejected(self):
        with pytest.raises(ValueError):
            generate_cvt_centroids(10, 2, 5)

    def test_deterministic(self):
        a = generate_cvt_centroids(8, 3, 200, seed=5)
        b = generate_cvt_centroids(8, 3, 200, seed=5)
        assert np.array_equal(a, b)

    def test_chunked_draw_is_the_one_call_draw(self):
        count = 5000  # two full chunks and a partial one
        assert count % ASSIGN_CHUNK
        chunked, one_call = np.random.default_rng(9), np.random.default_rng(9)
        points = sample_simplex_blocks(chunked, count, 64)
        expected = oracles.sample_simplex_blocks(one_call, count, 64)
        assert points.tobytes() == expected.tobytes()
        assert chunked.random() == one_call.random()


class TestCvtMemory:
    """A build holds the cloud, one (ASSIGN_CHUNK, k) score block and two
    (k, dim) arrays."""

    @pytest.mark.parametrize(
        "k, dim, n_seeds",
        [(512, 64, 2 * ASSIGN_CHUNK + 500), (512, 1024, 1024)],
        ids=["score-blocks-dominate", "centroid-arrays-dominate"],
    )
    def test_peak_is_cloud_score_block_and_two_centroid_arrays(self, k, dim, n_seeds):
        bound = 8 * (n_seeds * dim + min(ASSIGN_CHUNK, n_seeds) * k + 2 * k * dim)
        tracemalloc.start()
        try:
            generate_cvt_centroids(k, dim, n_seeds, seed=3, simplex_blocks=True, max_iter=4)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 1.1 * bound

    def test_sdbc_peak_counts_a_float32_score_block(self):
        """An sdbc-shaped build, whose peak is its score block: the bound
        counts that block at 4 bytes a score, which a float64 block breaks."""
        k, dim, n_seeds = 4096, 10, 2 * ASSIGN_CHUNK + 500
        bound = 8 * (n_seeds * dim + 2 * k * dim) + 4 * min(ASSIGN_CHUNK, n_seeds) * k
        tracemalloc.start()
        try:
            generate_cvt_centroids(k, dim, n_seeds, seed=3, max_iter=4)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 1.1 * bound


def _sha256(array) -> str:
    return hashlib.sha256(np.ascontiguousarray(array).tobytes()).hexdigest()


class TestCvtPins:
    """SHA-256 of the centroid bits and of the keys of 200 query points, for a
    spirit-shaped and an sdbc-shaped CVT. Their Lloyd clusters range from 1
    row to hundreds (spirit) and to 29 (sdbc), so both the short-segment and
    the long-segment path of the per-cluster means are pinned. The third
    cloud ends in a partial ASSIGN_CHUNK block."""

    PINS = {
        "spirit": (
            (64, 1024, 2048, 5, True),
            "1fb6f26217138e6dbfa62387599d3055b1f89cdbf0913e7515974b828a05632e",
            "348d9a393d8c6d981b0ed208784c5c82e1e7c095a764d68ff1c692c12554d5a8",
        ),
        "sdbc": (
            (256, 10, 2048, 5, False),
            "89d40584e7768ce0e4a941e38582fe75219fd6cabb685628858e794fd69822c3",
            "74ae6bc73751d469c878cb04199c761d68df94c146a1262782f510899cab3662",
        ),
        # two full seed chunks and a partial one, in the draw and the assignment
        "spirit-chunks": (
            (64, 1024, 2 * 2048 + 500, 5, True),
            "2c9c4fe75566e62788bd51036f46465c5896d5d6fb7c098e9239142b55e3a43e",
            "1790ae2230c75a60247b313c85dca36f226a0ee08022bceb5f50182706833920",
        ),
    }

    @pytest.mark.parametrize("kind", sorted(PINS))
    def test_centroid_and_key_bits(self, kind):
        (k, dim, n_seeds, seed, simplex), centroid_digest, key_digest = self.PINS[kind]
        centroids = generate_cvt_centroids(
            k, dim, n_seeds, seed=seed, simplex_blocks=simplex, max_iter=6
        )
        rng = np.random.default_rng(11)
        queries = sample_simplex_blocks(rng, 200, dim) if simplex else rng.random((200, dim))
        archive = Archive.cvt(centroids)
        keys = np.array([archive.key_of(q) for q in queries], dtype=np.int64)
        assert _sha256(centroids) == centroid_digest
        assert _sha256(keys) == key_digest


class TestNearestCentroid:
    CENTROIDS = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])

    def test_exact_hit(self):
        for j in range(4):
            assert nearest_centroid(self.CENTROIDS[j], self.CENTROIDS) == j

    def test_midpoint_tie_breaks_low(self):
        centroids = np.array([[9.0, 9.0], [9.0, -9.0], [0.0, 0.0], [7.0, 7.0], [0.0, 0.0]])
        centroids[2] = [0.0, 0.0]
        centroids[4] = [1.0, 0.0]
        assert nearest_centroid([0.5, 0.0], centroids) == 2

    def test_spec_tie_example(self):
        # midpoint of centroids 2 and 7, all others far away
        centroids = np.full((8, 2), 50.0)
        centroids[2] = [0.0, 0.0]
        centroids[7] = [1.0, 0.0]
        assert nearest_centroid([0.5, 0.0], centroids) == 2

    def test_min_distance_invariant_under_permutation(self, rng):
        centroids = rng.random((20, 5))
        point = rng.random(5)
        base = np.linalg.norm(centroids[nearest_centroid(point, centroids)] - point)
        perm = rng.permutation(20)
        shuffled = centroids[perm]
        other = np.linalg.norm(shuffled[nearest_centroid(point, shuffled)] - point)
        assert base == pytest.approx(other, abs=0)


@st.composite
def lookups(draw):
    """A centroid set and a query whose nearest centroid may be an exact hit,
    an exact midpoint tie, or one of several duplicated rows; 1024-d sets
    are simplex-block points as in the spirit archive, and every coordinate
    is scaled by 1e-3, 1 or 1e3."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    dim = draw(st.sampled_from([1, 2, 3, 10, 1024]))
    k = draw(st.integers(1, 64))
    if dim == 1024:
        centroids = sample_simplex_blocks(rng, k, dim)
    else:  # quarter-integer grid: midpoints and their distances are exact
        centroids = rng.integers(-8, 9, size=(k, dim)) / 4.0
    kind = draw(st.sampled_from(["random", "hit", "midpoint", "duplicate"]))
    if kind == "duplicate":
        copies = rng.integers(0, k, size=draw(st.integers(1, 8)))
        slots = rng.integers(0, k + 1, size=copies.size)
        centroids = np.insert(centroids, slots, centroids[copies], axis=0)
    i, j = rng.integers(0, len(centroids), size=2)
    if kind == "random":
        query = sample_simplex_blocks(rng, 1, dim)[0] if dim == 1024 else rng.uniform(-2.5, 2.5, dim)
    elif kind == "midpoint":
        query = (centroids[i] + centroids[j]) / 2.0
    else:
        query = centroids[i].copy()
    scale = draw(st.sampled_from([1e-3, 1.0, 1e3]))
    return centroids * scale, query * scale


class TestScreenedLookup:
    """The screened lookup against the full-scan oracle, bit for bit."""

    @settings(max_examples=300, deadline=None)
    @given(lookups())
    def test_matches_full_scan(self, case):
        centroids, query = case
        want = oracles.nearest_centroid(query, centroids)
        assert nearest_centroid(query, centroids) == want
        assert Archive.cvt(centroids).key_of(query) == want

    def test_norms_follow_the_centroids(self):
        centroids = [[3.0, 4.0], [1.0, 0.0]]
        assert Archive(centroids=centroids).norms.tolist() == [25.0, 1.0]
        with pytest.raises(TypeError):
            Archive(centroids=centroids, norms=np.zeros(2))

    def test_duplicate_rows_resolve_to_the_lowest(self):
        centroids = np.array([[3.0, 3.0], [1.0, 1.0], [0.0, 0.0], [1.0, 1.0], [1.0, 1.0]])
        assert Archive.cvt(centroids).key_of([1.0, 1.0]) == 1
        assert Archive.cvt(centroids).key_of([0.75, 0.75]) == 1

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_query_falls_back_to_full_scan(self, bad):
        centroids = np.array([[0.0, 0.0], [1.0, 1.0], [2.0, 0.0]])
        query = np.array([1.0, bad])
        with np.errstate(invalid="ignore"):
            assert nearest_centroid(query, centroids) == oracles.nearest_centroid(query, centroids)


@st.composite
def assignments(draw):
    """A cloud and a centroid set for one Lloyd assignment: 1024-d
    simplex-block points as in the spirit archive or 10-d uniform ones, where
    some points may be exact hits on centroids, midpoints of two, or moved
    from a midpoint towards one by 1e-9 to 1e-5 of their distance (a near
    tie that float32 often cannot resolve and float64 can), and some
    centroid rows duplicated; every coordinate is scaled by 1e-3, 1 or 1e3.
    Some clouds run past one ASSIGN_CHUNK into a partial chunk."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    dim = draw(st.sampled_from([10, 1024]))
    count = draw(st.one_of(st.integers(1, 120), st.integers(ASSIGN_CHUNK + 1, ASSIGN_CHUNK + 120)))

    def cloud(n):
        return sample_simplex_blocks(rng, n, dim) if dim == 1024 else rng.random((n, dim))

    centroids = cloud(draw(st.integers(1, 64)))
    if draw(st.booleans()):
        copies = rng.integers(0, len(centroids), size=draw(st.integers(1, 8)))
        slots = rng.integers(0, len(centroids) + 1, size=copies.size)
        centroids = np.insert(centroids, slots, centroids[copies], axis=0)
    points = cloud(count)
    mix = draw(st.sampled_from([(1, 0, 0, 0), (0.8, 0.1, 0, 0.1), (0.4, 0.2, 0.2, 0.2)]))
    kind = rng.choice(4, size=count, p=mix)
    i, j = rng.integers(0, len(centroids), size=(2, count))
    points[kind == 1] = centroids[i[kind == 1]]
    points[kind >= 2] = (centroids[i[kind >= 2]] + centroids[j[kind >= 2]]) / 2.0
    moved = kind == 3
    step = rng.choice([-1.0, 1.0], size=moved.sum()) * 10.0 ** rng.uniform(-9, -5, size=moved.sum())
    points[moved] += step[:, None] * (centroids[j[moved]] - centroids[i[moved]])
    scale = draw(st.sampled_from([1e-3, 1.0, 1e3]))
    return points * scale, centroids * scale


def _screen(points, centroids):
    """The labels and the float64-ranked rows of one float32 screen pass."""
    labels = np.empty(len(points), dtype=np.int64)
    band = _Float32Screen(centroids, _squared_norms(centroids), len(points)).assign(points, labels)
    return labels, band


@pytest.fixture
def fallbacks(monkeypatch):
    """Row counts of the chunks that `_assign` hands to the float64 product."""
    chunks, exact = [], archive_module._assign_exact

    def counted(block, *args):
        chunks.append(len(block))
        exact(block, *args)

    monkeypatch.setattr(archive_module, "_assign_exact", counted)
    return chunks


class TestScreenedAssign:
    """The float32-screened Lloyd assignment against the float64 chunk
    product, bit for bit."""

    @settings(max_examples=200, deadline=None)
    @given(assignments())
    def test_matches_float64_assignment(self, case):
        points, centroids = case
        assert _assign(points, centroids).tobytes() == oracles.assign(points, centroids).tobytes()

    @pytest.mark.parametrize("steps, ranked", [(8, True), (11, True), (12, False), (16, False)])
    def test_rows_within_the_margin_are_ranked_in_float64(self, steps, ranked):
        """At the origin the scores are the centroids' squared norms, 1, 1 +
        steps 2^-23 and 2.25, all exact in float32. With reach 1.5 in one
        dimension the margin is 2 (g_5 (1.5)^2 + ...) in float32, about 11.25
        float32 steps of 2^-23, so a gap of 11 steps is ranked in float64 and
        one of 12 is decided in float32. The other points sit on the third
        centroid, far outside their margin."""
        centroids = np.array([[1.0], [np.sqrt(1.0 + steps * 2.0**-23)], [-1.5]])
        points = np.array([[0.0]] + [[-1.5]] * 7)
        labels, band = _screen(points, centroids)
        assert band.tolist() == ([0] if ranked else [])
        assert labels.tolist() == oracles.assign(points, centroids).tolist() == [0] + [2] * 7

    def test_tie_falls_back_to_float64(self, fallbacks):
        """A point on a duplicated centroid ties exactly, which only the
        float64 product resolves, to the lower index; the full chunk before
        it needs no fallback."""
        rng = np.random.default_rng(8)
        centroids = rng.random((40, 10))
        centroids[30] = 5.0  # far from every other point
        centroids = np.insert(centroids, 5, centroids[30], axis=0)
        points = rng.random((ASSIGN_CHUNK + 100, 10))
        points[ASSIGN_CHUNK + 7] = centroids[31]
        labels = _assign(points, centroids)
        assert labels.tobytes() == oracles.assign(points, centroids).tobytes()
        assert labels[ASSIGN_CHUNK + 7] == 5
        assert fallbacks == [100]

    @pytest.mark.parametrize("bad", [np.nan, np.inf, 1e30])
    def test_non_finite_or_huge_point_falls_back_to_float64(self, fallbacks, bad):
        rng = np.random.default_rng(9)
        centroids, points = rng.random((16, 10)), rng.random((50, 10))
        points[17, 3] = bad
        with np.errstate(invalid="ignore"):
            labels = _assign(points, centroids)
            assert labels.tobytes() == oracles.assign(points, centroids).tobytes()
        assert fallbacks == [50]


@st.composite
def labelled_clouds(draw):
    """Points labelled into k clusters of 0 to 40 rows each, in random row
    order, with magnitudes mixed over 16 decades."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    sizes = draw(st.lists(st.integers(0, 40), min_size=1, max_size=40).filter(any))
    labels = rng.permutation(np.repeat(np.arange(len(sizes)), sizes))
    dim = draw(st.sampled_from([1, 3, 16]))
    points = rng.standard_normal((len(labels), dim)) * 10.0 ** rng.integers(-8, 9, (len(labels), dim))
    return points, labels, len(sizes)


class TestLabelMeans:
    @settings(max_examples=200, deadline=None)
    @given(labelled_clouds())
    def test_matches_reduceat(self, cloud):
        points, labels, k = cloud
        sums, counts = _label_means(points, labels, k)
        want_sums, want_counts = oracles.label_means(points, labels, k)
        assert sums.tobytes() == want_sums.tobytes()
        assert np.array_equal(counts, want_counts)

    def test_long_clusters_over_several_blocks(self):
        # at 1024 columns a reduceat call takes the long clusters starting in
        # one 64-row block; one cluster here is longer than several blocks
        rng = np.random.default_rng(7)
        sizes = [9, 70, 3, 300, 40, 0, 65, 12, 1, 129]
        labels = rng.permutation(np.repeat(np.arange(len(sizes)), sizes))
        points = rng.standard_normal((len(labels), 1024)) * 10.0 ** rng.integers(-8, 9, (len(labels), 1024))
        sums, counts = _label_means(points, labels, len(sizes))
        want_sums, want_counts = oracles.label_means(points, labels, len(sizes))
        assert sums.tobytes() == want_sums.tobytes()
        assert np.array_equal(counts, want_counts)

    def test_signed_zeros_kept(self):
        points = np.array([[-0.0], [-0.0], [-0.0], [1.0], [-0.0]])
        labels = np.array([0, 0, 0, 2, 3])
        sums, _ = _label_means(points, labels, 4)
        want, _ = oracles.label_means(points, labels, 4)
        assert sums.tobytes() == want.tobytes()


class TestInsertion:
    def elite(self, perf):
        return Elite(genome=Genome(), performance=perf, descriptor=(0, 0, 0, 0, 0, 0), env=NORMAL_ENV)

    def test_empty_cell_accepts(self):
        archive = Archive.qed()
        elite = self.elite(0.1)
        assert archive.try_insert(archive.key_of(elite.descriptor), elite) is True
        assert archive.coverage == 1

    def test_tie_keeps_incumbent(self):
        archive = Archive.qed()
        first = self.elite(0.5)
        archive.try_insert(archive.key_of(first.descriptor), first)
        tie = self.elite(0.5)
        assert archive.try_insert(archive.key_of(tie.descriptor), tie) is False
        assert archive.cells[0] is first

    def test_improvement_replaces(self):
        archive = Archive.qed()
        incumbent = self.elite(0.6)
        archive.try_insert(archive.key_of(incumbent.descriptor), incumbent)
        better = self.elite(0.7)
        assert archive.try_insert(archive.key_of(better.descriptor), better) is True
        assert archive.cells[0] is better

    def test_worse_rejected(self):
        archive = Archive.qed()
        incumbent = self.elite(0.6)
        archive.try_insert(archive.key_of(incumbent.descriptor), incumbent)
        worse = self.elite(0.4)
        assert archive.try_insert(archive.key_of(worse.descriptor), worse) is False

    def test_cvt_insert_by_descriptor(self):
        centroids = np.array([[0.0, 0.0], [1.0, 1.0]])
        archive = Archive.cvt(centroids)
        e = Elite(genome=Genome(), performance=0.3, descriptor=np.array([0.9, 0.95]), env=NORMAL_ENV)
        assert archive.try_insert(archive.key_of(e.descriptor), e)
        assert 1 in archive.cells


class TestGridGeometry:
    def test_hbd_capacity(self):
        assert Archive.hbd().capacity == 4096

    def test_qed_capacity(self):
        assert Archive.qed().capacity == 4096

    def test_hbd_bins_boundaries(self):
        assert hbd_bins([0.0, 0.0, 0.0]) == (0, 0, 0)
        assert hbd_bins([1.0, 0.999, 0.5]) == (15, 15, 8)
        assert hbd_bins([0.0625, 0.0624, 0.9375]) == (1, 0, 15)

    @pytest.mark.parametrize(
        "archive, descriptor",
        [
            (Archive.hbd(), [0.5, 0.5]),
            (Archive.hbd(), [0.5, 0.5, 0.5, 0.5]),
            (Archive.qed(), (0, 1, 2, 3, 0, 4)),
            (Archive.qed(), (0, 1, 2, 3, 0, -1)),
            (Archive.qed(), (0, 1, 2)),
        ],
    )
    def test_key_of_rejects_bins_off_the_grid(self, archive, descriptor):
        with pytest.raises(ValueError):
            archive.key_of(descriptor)

    def test_qed_key_decodes_to_environment(self, rng):
        archive = Archive.qed()
        for _ in range(50):
            env = generate_environment(rng)
            key = archive.key_of(env_index(env))
            assert env_from_index(np.unravel_index(key, archive.dims)) == env


class TestGenerateEnvironment:
    def test_membership(self, rng):
        for _ in range(200):
            env = generate_environment(rng)
            for value, levels in zip(env.attributes(), ATTRIBUTE_SETS):
                assert value in levels

    def test_uniform_frequencies(self):
        rng = np.random.default_rng(123)
        counts = np.zeros((6, 4))
        for _ in range(40_960):
            env = generate_environment(rng)
            for j, idx in enumerate(env_index(env)):
                counts[j, idx] += 1
        assert np.all(np.abs(counts - 10_240) <= 400)

    def test_equal_seeds_equal_sequences(self):
        a = np.random.default_rng(9)
        b = np.random.default_rng(9)
        seq_a = [generate_environment(a) for _ in range(20)]
        seq_b = [generate_environment(b) for _ in range(20)]
        assert seq_a == seq_b


class TestPersistence:
    def test_round_trip_grid(self, tmp_path, rng):
        archive = Archive.qed()
        for _ in range(12):
            env = generate_environment(rng)
            elite = Elite(
                genome=random_genome(rng),
                performance=float(rng.random()),
                descriptor=env_index(env),
                env=env,
            )
            archive.try_insert(archive.key_of(elite.descriptor), elite)
        save_archive(archive, tmp_path, header="# test seed=1")
        loaded = load_archive(tmp_path, "qed")
        assert set(loaded.cells) == set(archive.cells)
        for key, elite in archive.cells.items():
            assert loaded.cells[key].genome == elite.genome
            assert loaded.cells[key].performance == elite.performance
            assert loaded.cells[key].env == elite.env

    def test_round_trip_cvt(self, tmp_path, rng):
        centroids = generate_cvt_centroids(16, 10, 200, seed=3)
        archive = Archive.cvt(centroids)
        for _ in range(6):
            elite = Elite(
                genome=random_genome(rng),
                performance=float(rng.random()),
                descriptor=rng.random(10),
                env=NORMAL_ENV,
            )
            archive.try_insert(archive.key_of(elite.descriptor), elite)
        save_archive(archive, tmp_path)
        assert (tmp_path / "centroids.npy").exists()
        assert not (tmp_path / "centroids.csv").exists()
        loaded = load_archive(tmp_path, "sdbc")
        assert loaded.centroids.tobytes() == centroids.tobytes()
        assert set(loaded.cells) == set(archive.cells)
        best = max(e.performance for e in archive.cells.values())
        assert max(e.performance for e in loaded.cells.values()) == best

    def test_index_writes_attributes_through_field_types(self, tmp_path, rng):
        archive = Archive.qed()
        env = EnvironmentSpec(arena_side=4, rab_range=1)
        archive.try_insert(7, Elite(genome=random_genome(rng), performance=1, env=env))
        save_archive(archive, tmp_path)
        (row,) = read_table(tmp_path / "index.csv")
        assert (row["performance"], row["arena_side"], row["rab_range"]) == ("1.0", "4.0", "1.0")
        assert row["n_robots"] == "10"
        loaded = load_archive(tmp_path, "qed").cells[7]
        assert loaded.env == EnvironmentSpec() and loaded.performance == 1.0

    def test_table_cell_format(self, tmp_path):
        rows = [[np.float64(0.1), None, 3], [1.0, "x", np.int64(2)]]
        write_table(tmp_path / "t.csv", "# provenance", ["a", "b", "c"], rows)
        assert (tmp_path / "t.csv").read_bytes() == b"# provenance\na,b,c\r\n0.1,,3\r\n1.0,x,2\r\n"
        assert list(read_table(tmp_path / "t.csv")) == [
            {"a": "0.1", "b": "", "c": "3"},
            {"a": "1.0", "b": "x", "c": "2"},
        ]
        write_table(tmp_path / "bare.csv", "", ["a"], [[2.5]])
        assert (tmp_path / "bare.csv").read_bytes() == b"a\r\n2.5\r\n"

    def test_table_bytes_of_edge_cells(self, tmp_path):
        """Signed zero, subnormal, large and small floats, nan, inf, numpy
        scalars, None and a string, pinned as the `csv.writer` table wrote them."""
        rows = [
            [-0.0, 5e-324, 1e16, 1e-05, float("nan"), float("inf")],
            [np.float64(0.1), np.float64(-1.5e-300), np.int64(-7), None, "plain", -float("inf")],
        ]
        write_table(tmp_path / "t.csv", "# qdswarm provenance", list("abcdef"), iter(rows))
        assert (tmp_path / "t.csv").read_bytes() == (
            b"# qdswarm provenance\na,b,c,d,e,f\r\n"
            b"-0.0,5e-324,1e+16,1e-05,nan,inf\r\n"
            b"0.1,-1.5e-300,-7,,plain,-inf\r\n"
        )

    @pytest.mark.parametrize("char", [",", '"', "\r", "\n"], ids=["comma", "quote", "cr", "lf"])
    def test_cell_that_needs_quoting_rejected(self, tmp_path, char):
        with pytest.raises(ValueError, match="quoting"):
            write_table(tmp_path / "t.csv", "", ["a", "b"], [[1, f"x{char}y"]])
        with pytest.raises(ValueError, match="quoting"):
            write_table(tmp_path / "t.csv", "", [f"a{char}", "b"], [])


    @pytest.mark.parametrize("char", [",", '"', "\r", "\n"], ids=["comma", "quote", "cr", "lf"])
    def test_cell_that_needs_quoting_past_the_first_block_rejected(self, tmp_path, char):
        rows = [[float(i), f"r{i}", i] for i in range(2 * TABLE_BLOCK)]
        rows[TABLE_BLOCK + 3][1] = f"x{char}y"
        with pytest.raises(ValueError, match="quoting"):
            write_table(tmp_path / "t.csv", "", ["a", "b", "c"], iter(rows))

    def test_blank_row_past_the_first_block_rejected(self, tmp_path):
        rows = [[float(i)] for i in range(TABLE_BLOCK + 5)]
        rows[-1] = [None]
        with pytest.raises(ValueError, match="quoting"):
            write_table(tmp_path / "t.csv", "", ["a"], rows)

    @pytest.mark.parametrize("bad", [0, TABLE_BLOCK + 3], ids=["wide-first", "short-later"])
    def test_row_of_another_width_rejected(self, tmp_path, bad):
        rows = [[float(i), f"r{i}"] for i in range(2 * TABLE_BLOCK)]
        rows[bad] = [*rows[bad], 3] if bad == 0 else rows[bad][:1]
        with pytest.raises(ValueError, match="cells for 2 columns") as raised:
            write_table(tmp_path / "t.csv", "", ["a", "b"], rows)
        assert str(raised.value).startswith(f"table row {rows[bad]!r} has {len(rows[bad])} cells")
        with pytest.raises(ValueError, match="3 cells for 2 columns"):
            write_table(tmp_path / "t.csv", "", ["a", "b"], [[1, 2, 3]])
        with pytest.raises(ValueError, match="2 cells for 1 columns"):
            write_table(tmp_path / "t.csv", "", ["a"], [[1], [1, 2]])

    def test_blocks_write_each_row_as_its_cells(self, tmp_path):
        """Several blocks whose columns hold floats, numpy floats, strings,
        ints, None among floats and strings among floats, against the cell
        rules applied row by row."""
        rng = np.random.default_rng(4)
        n = 2 * TABLE_BLOCK + 7
        values = rng.normal(size=n).tolist()
        rows = [
            [v, np.float64(-v), f"s{i}", i, None if i % 5 == 0 else v, "" if i % 7 else v]
            for i, v in enumerate(values)
        ]
        write_table(tmp_path / "t.csv", "", list("abcdef"), rows)

        def line(row):
            cells = ("" if v is None else repr(float(v)) if isinstance(v, float) else str(v)
                     for v in row)
            return ",".join(cells) + "\r\n"

        expected = "a,b,c,d,e,f\r\n" + "".join(map(line, rows))
        assert (tmp_path / "t.csv").read_bytes() == expected.encode()


def test_one_module_imports_csv():
    """Every table goes through `write_table` and `read_table`, so `archive`
    is the only module that imports `csv`; a second table writer fails here."""
    package = Path(__file__).resolve().parent.parent / "src" / "qdswarm"
    importers = []
    for path in sorted(package.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                modules = [node.module or ""]
            else:
                continue
            if "csv" in modules:
                importers.append(path.name)
    assert importers == ["archive.py"]
