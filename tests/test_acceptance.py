"""Acceptance suite: one test per criterion, tolerances pinned.

Run with `pytest tests/test_acceptance.py -v -s` to see one pass line per
criterion. The two evolution-backed criteria use scaled-down runs (short
trials, small populations); the statistical and capacity criteria run at
full fidelity.
"""

import time
from itertools import combinations, product

import numpy as np
import pytest

import qdswarm.tasks
from conftest import make_log
from qdswarm.archive import Archive, generate_cvt_centroids
from qdswarm.environment import env_from_index, env_index
from qdswarm.evolve import EvolutionConfig, evolve
from qdswarm.experiment import resolve_config, stage_evolve, stage_faults, stage_reevaluate
from qdswarm.recovery import (
    evaluate_archive,
    fault_recovery_records,
    sample_combined_fault,
    spirit_distance,
)
from qdswarm.sim import FaultType
from qdswarm.stats import cliffs_delta, wilcoxon_rank_sum
from qdswarm.tasks import (
    TaskKind,
    fitness_aggregation,
    fitness_border_patrolling,
    fitness_dispersion,
    fitness_flocking,
    fitness_patrolling,
    patrol_cell_trace,
)

TOL = 1e-9


def constant_log(points, cycles=50, linear_velocity=None):
    positions = np.tile(np.asarray(points, dtype=float)[None], (cycles, 1, 1))
    return make_log(positions, linear_velocity=linear_velocity)


# ---------------------------------------------------------------------------
# Criterion 1: fitness oracles on degenerate configurations


def test_criterion_1_fitness_oracles():
    start = time.perf_counter()

    assert fitness_aggregation(constant_log([[2.0, 2.0]] * 5)) == pytest.approx(1.0, abs=TOL)
    assert fitness_aggregation(constant_log([[0.0, 0.0], [4.0, 4.0]])) == pytest.approx(
        0.5, abs=TOL
    )
    assert fitness_aggregation(constant_log([[1.0, 3.0]])) == pytest.approx(1.0, abs=TOL)

    assert fitness_dispersion(constant_log([[2.0, 2.0]] * 3)) == pytest.approx(0.0, abs=TOL)
    assert fitness_dispersion(constant_log([[1.5, 2.0], [2.5, 2.0]])) == pytest.approx(
        1.0 / (2.0 * np.sqrt(2.0)), abs=TOL
    )
    assert fitness_dispersion(constant_log([[0.0, 0.0], [4.0, 4.0]])) == pytest.approx(
        1.0, abs=TOL
    )

    assert fitness_flocking(constant_log([[2.0, 2.0], [2.3, 2.0]])) == pytest.approx(
        0.0, abs=TOL
    )
    forward = np.full((50, 2), 0.10)
    assert fitness_flocking(
        constant_log([[2.0, 2.0], [2.3, 2.0]], linear_velocity=forward)
    ) == pytest.approx(1.0, abs=TOL)
    assert fitness_flocking(
        constant_log([[1.0, 2.0], [2.6, 2.0]], linear_velocity=forward)
    ) == pytest.approx(0.0, abs=TOL)

    interior = constant_log([[2.05, 2.05]], cycles=100)
    assert fitness_patrolling(interior) == pytest.approx(0.01, abs=TOL)
    assert fitness_border_patrolling(interior) == pytest.approx(0.0, abs=TOL)

    # a cell visited only at cycle 0 decays to exactly zero after 200 s
    positions = np.tile([[3.5, 3.5]], (1001, 1, 1))
    positions[1:] = [[0.1, 0.1]]
    trace = patrol_cell_trace(make_log(positions))
    assert trace[1000, 8, 8] == pytest.approx(0.0, abs=TOL)
    assert trace[500, 8, 8] == pytest.approx(0.5, abs=TOL)

    elapsed = time.perf_counter() - start
    assert elapsed < 1.0, f"fitness oracles took {elapsed:.2f}s"
    print(f"\n[PASS] criterion 1: fitness oracles match hand values to 1e-9 ({elapsed:.2f}s)")


# ---------------------------------------------------------------------------
# Criterion 2: elitism across a 200-generation run on each task


def test_criterion_2_elitism_all_tasks(tmp_path_factory):
    base = tmp_path_factory.mktemp("elitism")
    for task in TaskKind:
        text = "\n".join(
            [
                f"task = {task.value}",
                "algorithm = hbd",
                "seed = 5",
                "replicates = 1",
                "evolve.initial_population = 20",
                "evolve.generations = 200",
                "evolve.evals_per_generation = 2",
                "evolve.trials = 1",
                "evolve.trial_duration = 10.0",
            ]
        )
        config = resolve_config(text, {"out": str(base / task.value)})
        stage_evolve(config, log=lambda *_: None)
        events_file = base / task.value / "rep00" / "events.csv"
        rows = [
            line.split(",")
            for line in events_file.read_text().splitlines()[2:]  # provenance + header
        ]
        assert rows, "no insertion events recorded"
        traces: dict[int, list[float]] = {}
        for _, key, previous, performance in rows:
            trace = traces.setdefault(int(key), [])
            if trace:
                assert float(performance) > trace[-1], f"{task}: cell {key} regressed"
            if previous:
                assert float(performance) > float(previous)
            trace.append(float(performance))
        stats_file = base / task.value / "rep00" / "stats.csv"
        stats_rows = stats_file.read_text().splitlines()[2:]
        assert len(stats_rows) == 201
        coverage = [int(r.split(",")[2]) for r in stats_rows]
        assert all(a <= b for a, b in zip(coverage, coverage[1:]))
    print("\n[PASS] criterion 2: per-cell performance non-decreasing over 200 generations x 5 tasks")


# ---------------------------------------------------------------------------
# Criterion 3: QED coverage with 30,000 stub evaluations


def test_criterion_3_qed_coverage_30000_evaluations(monkeypatch):
    def stub(jobs):
        results = []
        for _, _, genome, _, seeds, _, _ in jobs:
            score = 0.37 * genome.hidden + 0.011 * len(genome.connections) + seeds[0] % 1009 / 2e4
            results.append((score % 1.0, None))
        return results

    config = EvolutionConfig(
        task="aggregation",
        algorithm="qed",
        initial_population=2000,
        generations=1400,
        evals_per_generation=20,
        trials=1,
        seed=123,
    )
    monkeypatch.setattr(qdswarm.tasks, "evaluate_jobs", stub)
    start = time.perf_counter()
    result = evolve(config)
    elapsed = time.perf_counter() - start
    total_evals = 2000 + 1400 * 20
    assert total_evals == 30_000
    assert result.stats[-1].evaluations == 30_000
    coverage = result.archive.coverage
    assert coverage >= 4080, f"coverage {coverage} < 4080"
    print(
        f"\n[PASS] criterion 3: QED coverage {coverage}/4096 after 30,000 evaluations "
        f"({elapsed:.0f}s with fitness stub)"
    )


# ---------------------------------------------------------------------------
# Criterion 4: descriptor space capacities


def test_criterion_4_descriptor_capacity():
    assert Archive.hbd().capacity == 16**3 == 4096
    assert Archive.qed().capacity == 4**6 == 4096

    envs = [env_from_index(indices) for indices in product(range(4), repeat=6)]
    assert len(envs) == 4096
    assert len({env_index(e) for e in envs}) == 4096

    sdbc = generate_cvt_centroids(4096, 10, 20_000, seed=17, max_iter=10)
    assert sdbc.shape == (4096, 10)
    assert np.all((sdbc >= 0.0) & (sdbc <= 1.0))

    spirit = generate_cvt_centroids(
        4096, 1024, 8192, seed=18, simplex_blocks=True, max_iter=3
    )
    assert spirit.shape == (4096, 1024)
    block_sums = spirit.reshape(4096, 64, 16).sum(axis=2)
    assert np.max(np.abs(block_sums - 1.0)) <= 1e-6
    print("\n[PASS] criterion 4: HBD/SDBC/SPIRIT/QED spaces all have 4096 cells; block sums within 1e-6")


# ---------------------------------------------------------------------------
# Criterion 5: statistical kernels against brute force


def _brute_ranksum(x, y):
    pooled = np.concatenate([x, y])
    order = np.argsort(pooled, kind="stable")
    ranks = np.empty(len(pooled))
    sorted_vals = pooled[order]
    i = 0
    while i < len(pooled):
        j = i
        while j < len(pooled) and sorted_vals[j] == sorted_vals[i]:
            j += 1
        ranks[order[i:j]] = 0.5 * (i + j + 1)
        i = j
    n, total = len(x), len(pooled)
    mu = n * (total + 1) / 2.0
    observed = abs(ranks[:n].sum() - mu)
    hits = sum(
        1
        for subset in combinations(range(total), n)
        if abs(sum(ranks[k] for k in subset) - mu) >= observed - 1e-12
    )
    count = sum(1 for _ in combinations(range(total), n))
    return hits / count


def test_criterion_5_statistical_kernels_vs_brute_force():
    rng = np.random.default_rng(2024)
    for _ in range(200):
        n = int(rng.integers(1, 6))
        m = int(rng.integers(1, min(6, 11 - n)))
        assert n + m <= 10
        if rng.random() < 0.5:  # heavy ties
            x = rng.integers(0, 4, n).astype(float)
            y = rng.integers(0, 4, m).astype(float)
        else:
            x = np.round(rng.normal(0, 1, n), 1)
            y = np.round(rng.normal(0.4, 1, m), 1)
        assert wilcoxon_rank_sum(x, y) == _brute_ranksum(x, y)

    for _ in range(200):
        n = int(rng.integers(1, 12))
        m = int(rng.integers(1, 12))
        x = rng.integers(0, 6, n).astype(float)
        y = rng.integers(0, 6, m).astype(float)
        greater = sum(1 for a in x for b in y if a > b)
        less = sum(1 for a in x for b in y if a < b)
        assert cliffs_delta(x, y).delta == (greater - less) / (n * m)
    print("\n[PASS] criterion 5: rank-sum and Cliff's delta equal brute-force enumeration exactly")


# ---------------------------------------------------------------------------
# Criterion 6: behaviour-distance metric properties


def test_criterion_6_spirit_distance_metric():
    rng = np.random.default_rng(6)
    for _ in range(1000):
        a = rng.dirichlet(np.ones(16), size=64)
        b = rng.dirichlet(np.ones(16), size=64)
        c = rng.dirichlet(np.ones(16), size=64)
        assert spirit_distance(a, a) <= 1e-12
        dab = spirit_distance(a, b)
        assert dab >= 0.0
        assert abs(dab - spirit_distance(b, a)) <= 1e-12
        assert dab > 0.0  # distinct random profiles
        assert spirit_distance(a, c) <= dab + spirit_distance(b, c) + 1e-12

    uniform = np.full((64, 16), 1.0 / 16.0)
    deterministic = np.zeros((64, 16))
    deterministic[:, 5] = 1.0
    assert spirit_distance(uniform, deterministic) == pytest.approx(15.0 / 16.0, abs=1e-12)
    print("\n[PASS] criterion 6: distance metric properties hold on 1000 triples; 15/16 reproduced")


# ---------------------------------------------------------------------------
# Criterion 7: recovery inequality on an evolved archive


@pytest.fixture(scope="module")
def qed_archive_small():
    config = EvolutionConfig(
        task="aggregation",
        algorithm="qed",
        initial_population=40,
        generations=30,
        evals_per_generation=1,
        trials=1,
        seed=7,
        trial_duration=10.0,
    )
    return evolve(config).archive


def test_criterion_7_recovery_inequality(qed_archive_small):
    archive = qed_archive_small
    assert archive.coverage >= 50, f"archive too small: {archive.coverage}"
    rng = np.random.default_rng(71)
    faults = [sample_combined_fault(rng, 10) for _ in range(25)]
    normal = evaluate_archive(archive, "aggregation", trials=3, seed=70, duration=10.0, n_jobs=2)
    records = fault_recovery_records(
        archive, "aggregation", normal, faults, trials=3, seed=70, duration=10.0, n_jobs=2
    )
    for record in records:
        assert record.resilience >= record.impact, record.fault_id

    none_fault = np.array([FaultType.NONE] * 10, dtype=object)
    (neutral,) = fault_recovery_records(
        archive, "aggregation", normal, [none_fault], trials=3, seed=70, duration=10.0
    )
    assert neutral.impact == 0.0
    assert neutral.resilience == 0.0
    print(
        f"\n[PASS] criterion 7: resilience >= impact for 25/25 faults on a "
        f"{archive.coverage}-elite archive; all-NONE fault exactly neutral"
    )


# ---------------------------------------------------------------------------
# Criterion 8: recovery reduces the performance loss (desk scale)


def test_criterion_8_recovery_effect_aggregation():
    config = EvolutionConfig(
        task="aggregation",
        algorithm="qed",
        initial_population=50,
        generations=500,
        evals_per_generation=1,
        trials=1,
        seed=8,
        trial_duration=10.0,
    )
    start = time.perf_counter()
    archive = evolve(config).archive
    rng = np.random.default_rng(81)
    faults = [sample_combined_fault(rng, 10) for _ in range(25)]
    normal = evaluate_archive(archive, "aggregation", trials=2, seed=80, duration=10.0, n_jobs=2)
    records = fault_recovery_records(
        archive, "aggregation", normal, faults, trials=2, seed=80, duration=10.0, n_jobs=2
    )
    impacts = np.array([r.impact for r in records])
    resiliences = np.array([r.resilience for r in records])
    med_impact = float(np.median(impacts))
    med_resilience = float(np.median(resiliences))
    elapsed = time.perf_counter() - start
    assert med_resilience > med_impact, (med_resilience, med_impact)
    print(
        f"\n[PASS] criterion 8: median resilience {med_resilience:.4f} > median impact "
        f"{med_impact:.4f} on a {archive.coverage}-elite 500-generation archive ({elapsed:.0f}s)"
    )


# ---------------------------------------------------------------------------
# Criterion 9: byte-identical pipeline reruns


def test_criterion_9_pipeline_determinism(tmp_path_factory):
    base = tmp_path_factory.mktemp("determinism")
    text = "\n".join(
        [
            "task = dispersion",
            "algorithm = qed",
            "seed = 99",
            "replicates = 1",
            "evolve.initial_population = 6",
            "evolve.generations = 4",
            "evolve.evals_per_generation = 2",
            "evolve.trials = 1",
            "evolve.trial_duration = 4.0",
            "reevaluate.trials = 2",
            "faults.count = 3",
            "faults.trials = 1",
        ]
    )
    outputs = []
    for name in ("a", "b"):
        config = resolve_config(text, {"out": str(base / name)})
        quiet = lambda *_: None
        stage_evolve(config, log=quiet)
        stage_reevaluate(config, log=quiet)
        stage_faults(config, log=quiet)
        rep = base / name / "rep00"
        outputs.append(
            {
                "index": (rep / "archive" / "index.csv").read_bytes(),
                "records": (rep / "records.csv").read_bytes(),
                "stats": (rep / "stats.csv").read_bytes(),
                "reeval": (rep / "reevaluation.csv").read_bytes(),
            }
        )
    for key in outputs[0]:
        assert outputs[0][key] == outputs[1][key], f"{key} differs between reruns"
    print("\n[PASS] criterion 9: archive index, stats, reevaluation, and record CSVs byte-identical")
