import ast
from pathlib import Path

import numpy as np
import pytest

from qdswarm.archive import (
    Archive,
    Elite,
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
