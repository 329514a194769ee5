import numpy as np
import pytest

import qdswarm.tasks
from conftest import make_log
from qdswarm.archive import generate_cvt_centroids
from qdswarm.descriptors import describe
from qdswarm.environment import env_from_index, env_index
from qdswarm.evolve import EvolutionConfig, evolve
from qdswarm.genome import MutationParams
from qdswarm.seeding import trial_seeds


def tiny_config(**overrides):
    base = dict(
        task="aggregation",
        algorithm="qed",
        initial_population=8,
        generations=5,
        evals_per_generation=3,
        trials=1,
        seed=42,
        trial_duration=2.0,
    )
    base.update(overrides)
    return EvolutionConfig(**base)


def score_jobs(jobs):
    """`evaluate_jobs` stand-in: a deterministic pseudo-fitness from structure
    and seed, no simulation and no descriptor."""
    results = []
    for _, _, genome, _, seeds, _, _ in jobs:
        score = 0.13 * genome.hidden + 0.01 * len(genome.connections) + (seeds[0] % 977) / 1e5
        results.append((score % 1.0, None))
    return results


def describe_stub_logs(jobs):
    """`evaluate_jobs` stand-in: a random score and the job's descriptor of
    one random log, no simulation."""
    results = []
    for _, env, _, _, seeds, _, kind in jobs:
        rng = np.random.default_rng(seeds[0] % 2**32)
        positions = rng.uniform(0, env.arena_side, size=(10, env.n_robots, 2))
        v = rng.uniform(-0.1, 0.1, size=(10, env.n_robots))
        log = make_log(positions, arena_side=env.arena_side, linear_velocity=v)
        results.append((float(rng.random()), describe(kind, [log])))
    return results


@pytest.fixture
def stub_scores(monkeypatch):
    monkeypatch.setattr(qdswarm.tasks, "evaluate_jobs", score_jobs)


@pytest.fixture
def stub_logs(monkeypatch):
    monkeypatch.setattr(qdswarm.tasks, "evaluate_jobs", describe_stub_logs)


class TestEvolveBasics:
    def test_archive_size_bounds_after_init(self, stub_scores):
        result = evolve(tiny_config(generations=1, evals_per_generation=1))
        assert result.archive.coverage <= 8 + 1
        assert result.archive.coverage <= 4096

    def test_stats_row_count_and_monotone_coverage(self, stub_scores):
        result = evolve(tiny_config())
        assert len(result.stats) == 5 + 1
        coverages = [s.coverage for s in result.stats]
        assert all(a <= b for a, b in zip(coverages, coverages[1:]))
        assert result.stats[-1].evaluations == 8 + 5 * 3

    def test_per_cell_traces_non_decreasing(self, stub_scores):
        result = evolve(tiny_config(generations=30))
        last = {}
        for event in result.events:
            if event.key in last:
                assert event.performance > last[event.key]
            if event.previous is not None:
                assert event.performance > event.previous
            last[event.key] = event.performance

    def test_determinism_bit_identical(self, stub_scores):
        a = evolve(tiny_config())
        b = evolve(tiny_config())
        assert set(a.archive.cells) == set(b.archive.cells)
        for key in a.archive.cells:
            ea, eb = a.archive.cells[key], b.archive.cells[key]
            assert ea.performance == eb.performance
            assert ea.genome == eb.genome
        assert a.stats == b.stats
        assert a.events == b.events

    def test_qed_keys_decode_to_elite_environment(self, stub_scores):
        result = evolve(tiny_config())
        archive = result.archive
        for key, elite in archive.cells.items():
            assert archive.key_of(env_index(elite.env)) == key
            assert env_from_index(np.unravel_index(key, archive.dims)) == elite.env

    def test_evaluation_seeds_stable(self):
        assert trial_seeds(3, 1, "trial", 5) == trial_seeds(3, 1, "trial", 5)
        assert trial_seeds(3, 1, "trial", 5) != trial_seeds(3, 1, "trial", 6)
        assert trial_seeds(3, 1, "trial", 5) != trial_seeds(3, 2, "trial", 5)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            evolve(tiny_config(algorithm="bogus"))
        with pytest.raises(ValueError):
            evolve(tiny_config(generations=0))
        with pytest.raises(ValueError):
            evolve(tiny_config(algorithm="sdbc"))  # missing centroids


class TestEvolveSimulationBacked:
    def test_qed_small_real_run(self):
        config = tiny_config(initial_population=4, generations=2, evals_per_generation=2)
        result = evolve(config)
        assert result.archive.coverage >= 1
        for elite in result.archive.cells.values():
            assert 0.0 <= elite.performance <= 1.0

    def test_hbd_small_real_run(self):
        config = tiny_config(
            algorithm="hbd", initial_population=4, generations=2, evals_per_generation=2
        )
        result = evolve(config)
        assert result.archive.coverage >= 1
        for elite in result.archive.cells.values():
            assert np.all(np.asarray(elite.descriptor) >= 0.0)
            assert np.all(np.asarray(elite.descriptor) <= 1.0)

    def test_parallel_matches_serial(self):
        serial = evolve(tiny_config(initial_population=6, generations=2))
        parallel = evolve(tiny_config(initial_population=6, generations=2, n_jobs=2))
        assert set(serial.archive.cells) == set(parallel.archive.cells)
        for key in serial.archive.cells:
            assert (
                serial.archive.cells[key].performance
                == parallel.archive.cells[key].performance
            )
            assert serial.archive.cells[key].genome == parallel.archive.cells[key].genome
        assert serial.stats == parallel.stats


class TestEvolveCvt:
    def test_sdbc_mode_with_custom_logs(self, stub_logs):
        centroids = generate_cvt_centroids(32, 10, 300, seed=1)
        config = tiny_config(algorithm="sdbc", centroids=centroids, generations=3)
        result = evolve(config)
        assert 1 <= result.archive.coverage <= 32
        for elite in result.archive.cells.values():
            assert np.asarray(elite.descriptor).shape == (10,)

    def test_spirit_mode_with_custom_logs(self, stub_logs):
        centroids = generate_cvt_centroids(16, 1024, 64, seed=2, simplex_blocks=True, max_iter=3)
        config = tiny_config(algorithm="spirit", centroids=centroids, generations=2)
        result = evolve(config)
        assert result.archive.coverage >= 1
        for elite in result.archive.cells.values():
            assert np.asarray(elite.descriptor).shape == (64, 16)


class TestMutationRateConfig:
    def test_zero_rate_mutation_explores_nothing(self, stub_scores):
        from qdswarm.genome import random_genome
        from qdswarm.seeding import derive_rng

        params = MutationParams(
            node_add_rate=0.0,
            node_delete_rate=0.0,
            conn_add_rate=0.0,
            conn_delete_rate=0.0,
            conn_modify_rate=0.0,
            weight_rate=0.0,
        )
        result = evolve(tiny_config(mutation=params, generations=10))
        # all children are exact copies, so every elite genome must be one of
        # the initial random genomes
        init_genomes = {random_genome(derive_rng(42, "init", i)) for i in range(8)}
        for elite in result.archive.cells.values():
            assert elite.genome in init_genomes
