import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qdswarm.archive import Elite, Archive, generate_cvt_centroids
from qdswarm.descriptors import DESCRIPTORS
from qdswarm.environment import NORMAL_ENV, EnvironmentSpec
from qdswarm.evolve import EvolutionConfig, evolve
from qdswarm.genome import (
    FIRST_HIDDEN_ID,
    N_INPUTS,
    Connection,
    Genome,
    behaviour_key,
    random_genome,
)
from qdswarm.recovery import (
    RecoveryRecord,
    _elite_groups,
    _run_elites,
    evaluate_archive,
    fault_recovery_records,
    project_archive,
    proportional_change,
    sample_combined_fault,
    spirit_distance,
)
from qdswarm.sim import FaultType
from qdswarm.tasks import TaskKind, evaluate_jobs

DUR = 2.0
TRIALS = 2
# every fault type but NONE on at least one robot: sensor noise (PRAND),
# RAB offsets (ROFS), stuck proximity rays and wheel faults
MIXED_FAULT = [FaultType(i) for i in (6, 2, 3, 4, 5, 0, 1, 6, 2, 7)]


def small_archive(n_elites=5, seed=0):
    rng = np.random.default_rng(seed)
    archive = Archive.qed()
    key = 0
    while archive.coverage < n_elites:
        elite = Elite(
            genome=random_genome(rng),
            performance=float(rng.random()),
            descriptor=None,
            env=NORMAL_ENV,
        )
        archive.try_insert(key, elite)
        key += 7
    return archive


def scores_of(results):
    """{key: performance} of `evaluate_archive`'s {key: (performance, profile)}."""
    return {key: perf for key, (perf, _) in results.items()}


def spy_on_jobs(monkeypatch):
    """Record every job that `tasks.evaluate_jobs` runs in this process."""
    import qdswarm.tasks as tasks

    jobs_seen = []
    original = tasks.evaluate_jobs

    def spy(jobs):
        jobs_seen.extend(jobs)
        return original(jobs)

    monkeypatch.setattr(tasks, "evaluate_jobs", spy)
    return jobs_seen


class TestSampleCombinedFault:
    def test_none_frequency(self):
        rng = np.random.default_rng(1)
        count = sum(
            int(np.sum(sample_combined_fault(rng, 10) == FaultType.NONE)) for _ in range(250)
        )
        assert abs(count - 312.5) <= 50  # binomial 3 sigma around 2500/8

    def test_most_faults_hit_seven_to_ten_robots(self):
        rng = np.random.default_rng(2)
        hits = 0
        for _ in range(250):
            fault = sample_combined_fault(rng, 10)
            if int(np.sum(fault != FaultType.NONE)) >= 7:
                hits += 1
        assert hits >= 225  # P(Binom(10, 7/8) >= 7) ~ 0.99

    def test_fixed_seed_reproducible(self):
        a = sample_combined_fault(np.random.default_rng(5), 10)
        b = sample_combined_fault(np.random.default_rng(5), 10)
        assert np.array_equal(a, b)

    def test_length_and_membership(self):
        fault = sample_combined_fault(np.random.default_rng(3), 7)
        assert len(fault) == 7
        assert all(isinstance(f, FaultType) for f in fault)


class TestRecoverImpactResilience:
    """The recovery metrics of `fault_recovery_records` against the
    per-elite scores of `evaluate_archive` on the same trial seeds."""

    def test_singleton_archive_returns_its_elite(self):
        archive = small_archive(1)
        fault = [FaultType.BW_H] * 10
        normal = evaluate_archive(archive, "aggregation", None, TRIALS, 0, DUR)
        (record,) = fault_recovery_records(archive, "aggregation", normal, [fault], TRIALS, 0, DUR)
        assert record.best_key == 0

    def test_all_none_fault_is_neutral(self):
        archive = small_archive(4)
        none_fault = [FaultType.NONE] * 10
        normal = evaluate_archive(archive, "aggregation", None, TRIALS, 0, DUR)
        (record,) = fault_recovery_records(
            archive, "aggregation", normal, [none_fault], TRIALS, 0, DUR
        )
        assert record.impact == 0.0
        assert record.resilience == 0.0
        faulted = evaluate_archive(archive, "aggregation", none_fault, TRIALS, 0, DUR)
        assert scores_of(normal) == scores_of(faulted)
        for key, (_, profile) in normal.items():
            assert faulted[key][1].tobytes() == profile.tobytes()

    def test_recovered_dominates_transferred(self):
        archive = small_archive(5)
        rng = np.random.default_rng(9)
        normal = evaluate_archive(archive, "aggregation", None, TRIALS, 0, DUR)
        best_key = max(sorted(normal), key=lambda k: normal[k][0])
        faults = [sample_combined_fault(rng, 10) for _ in range(3)]
        records = fault_recovery_records(archive, "aggregation", normal, faults, TRIALS, 0, DUR)
        for fault, record in zip(faults, records):
            scores = scores_of(evaluate_archive(archive, "aggregation", fault, TRIALS, 0, DUR))
            assert record.recovered == max(scores.values())
            assert record.recovered >= scores[best_key]

    def test_resilience_geq_impact_exhaustive(self):
        archive = small_archive(5)
        rng = np.random.default_rng(11)
        normal = evaluate_archive(archive, "aggregation", None, TRIALS, 0, DUR)
        best_key = max(sorted(normal), key=lambda k: normal[k][0])
        faults = [sample_combined_fault(rng, 10) for _ in range(4)]
        records = fault_recovery_records(archive, "aggregation", normal, faults, TRIALS, 0, DUR)
        for fault, record in zip(faults, records):
            faulty = scores_of(evaluate_archive(archive, "aggregation", fault, TRIALS, 0, DUR))
            imp = proportional_change(faulty[best_key], normal[best_key][0])
            res = proportional_change(max(faulty.values()), normal[best_key][0])
            assert (record.impact, record.resilience) == (imp, res)
            assert res >= imp

    def test_proportional_change_values(self):
        assert proportional_change(0.8, 0.8) == 0.0
        assert proportional_change(0.6, 0.8) == pytest.approx(-0.25, abs=1e-15)
        with pytest.raises(ZeroDivisionError):
            proportional_change(0.5, 0.0)

    def test_empty_archive_rejected(self):
        with pytest.raises(ValueError):
            evaluate_archive(Archive.qed(), "aggregation", None, TRIALS, 0, DUR)


class TestSpiritDistance:
    def test_identity(self):
        p = np.random.default_rng(0).dirichlet(np.ones(16), size=64)
        assert spirit_distance(p, p) == 0.0

    def test_uniform_vs_deterministic(self):
        uniform = np.full((64, 16), 1.0 / 16.0)
        deterministic = np.zeros((64, 16))
        deterministic[:, 3] = 1.0
        assert spirit_distance(uniform, deterministic) == pytest.approx(15.0 / 16.0, abs=1e-15)

    def test_disjoint_supports(self):
        p = np.zeros((64, 16))
        q = np.zeros((64, 16))
        p[:, 0] = 1.0
        q[:, 1] = 1.0
        assert spirit_distance(p, q) == 1.0

    def test_metric_properties_sample(self):
        rng = np.random.default_rng(42)
        for _ in range(50):
            a, b, c = (rng.dirichlet(np.ones(16), size=64) for _ in range(3))
            dab = spirit_distance(a, b)
            assert dab == pytest.approx(spirit_distance(b, a), abs=1e-15)
            assert dab >= 0.0
            assert spirit_distance(a, c) <= dab + spirit_distance(b, c) + 1e-12

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            spirit_distance(np.zeros((64, 16)), np.zeros((32, 16)))


class TestProjection:
    CENTROIDS = generate_cvt_centroids(8, 1024, 32, seed=1, simplex_blocks=True, max_iter=2)

    @staticmethod
    def fault_free(archive):
        """The elites' fault-free (performance, policy profile) over one trial."""
        groups = _elite_groups(archive)
        return _run_elites(evaluate_jobs, archive, groups, "aggregation", None, 1, 0, DUR, "spirit")

    def test_single_elite(self):
        projected = project_archive(self.fault_free(small_archive(1)), self.CENTROIDS)
        assert projected.coverage == 1
        assert projected.diversity == 0.0

    def test_identical_behaviours_share_a_centroid(self):
        profile = np.full((64, 16), 1.0 / 16.0)
        projected = project_archive({0: (0.5, profile), 9: (0.4, profile)}, self.CENTROIDS)
        assert projected.coverage == 1
        (kept,) = projected.cells.values()
        assert kept[0] == 0  # the better performer's source key

    def test_three_point_diversity_matches_hand_mean(self):
        normal = self.fault_free(small_archive(6, seed=3))
        # centroids at the elites' own profiles give each distinct profile its own cell
        centroids = np.array([profile.ravel() for _, profile in normal.values()])
        projected = project_archive(normal, centroids)
        assert projected.coverage >= 3
        reps = [projected.cells[c][2] for c in sorted(projected.cells)]
        total, pairs = 0.0, 0
        for i in range(len(reps)):
            for j in range(i + 1, len(reps)):
                total += spirit_distance(reps[i], reps[j])
                pairs += 1
        assert projected.diversity == pytest.approx(total / pairs, abs=1e-12)


class TestFaultRecoveryRecords:
    def test_record_batch_structure(self):
        archive = small_archive(4)
        rng = np.random.default_rng(21)
        faults = [sample_combined_fault(rng, 10) for _ in range(3)]
        normal = evaluate_archive(archive, "aggregation", None, TRIALS, 0, DUR)
        records = fault_recovery_records(
            archive, "aggregation", normal, faults, trials=TRIALS, seed=0, duration=DUR
        )
        assert len(records) == 3
        for r in records:
            assert isinstance(r, RecoveryRecord)
            assert r.task == "aggregation"
            assert len(r.faults) == 10
            assert 0.0 <= r.recovered_norm <= 1.0
            assert 0.0 <= r.distance <= 1.0
            assert r.resilience >= r.impact
            assert r.best_key in archive.cells

    def test_all_none_fault_record_is_zero(self):
        archive = small_archive(3)
        records = fault_recovery_records(
            archive,
            "aggregation",
            evaluate_archive(archive, "aggregation", None, TRIALS, 0, DUR),
            [np.array([FaultType.NONE] * 10)],
            trials=TRIALS,
            seed=0,
            duration=DUR,
        )
        assert records[0].impact == 0.0
        assert records[0].resilience == 0.0
        assert records[0].distance == 0.0

    def test_zero_normal_best_rejected_before_faulty_runs(self, monkeypatch):
        archive = Archive.qed()
        archive.try_insert(0, Elite(genome=Genome(), performance=0.0, env=NORMAL_ENV))
        jobs_seen = spy_on_jobs(monkeypatch)
        normal = evaluate_archive(archive, "flocking", None, 1, 0, DUR)
        assert [job[3] for job in jobs_seen] == [None]
        jobs_seen.clear()
        with pytest.raises(ValueError, match="flocking"):
            fault_recovery_records(
                archive,
                "flocking",
                normal,
                [np.array([FaultType.NONE] * 10)],
                trials=1,
                seed=0,
                duration=DUR,
            )
        assert jobs_seen == []

    def test_profiles_only_the_compared_elites(self, monkeypatch):
        """The normal scores and profiles are given, so the records run no
        fault-free job: only one job per elite and fault."""
        archive = small_archive(6)
        rng = np.random.default_rng(21)
        faults = [sample_combined_fault(rng, 10) for _ in range(2)]
        normal = evaluate_archive(archive, "aggregation", None, TRIALS, 0, DUR)
        jobs_seen = spy_on_jobs(monkeypatch)
        records = fault_recovery_records(
            archive, "aggregation", normal, faults, trials=TRIALS, seed=0, duration=DUR, n_jobs=1
        )
        assert len(records) == 2
        assert [job for job in jobs_seen if job[3] is None] == []
        faulty = [job for job in jobs_seen if job[3] is not None]
        assert len(faulty) == len(jobs_seen) == 2 * 6
        assert all(job[6] is None for job in faulty)

    def test_no_faults_no_records(self):
        archive = small_archive(2)
        normal = evaluate_archive(archive, "aggregation", None, TRIALS, 0, DUR)
        assert fault_recovery_records(archive, "aggregation", normal, [], TRIALS, 0, DUR) == []


# ---------------------------------------------------------------------------
# One job per distinct controller


def live_units(genome):
    """Outputs and the hidden units with a path to an output, by fixed point."""
    live = set(range(N_INPUTS, FIRST_HIDDEN_ID))
    grown = True
    while grown:
        feeding = {
            c.source for c in genome.connections if c.target in live and c.source >= N_INPUTS
        }
        grown = not feeding <= live
        live |= feeding
    return live


@st.composite
def padded_genomes(draw):
    """A random genome and a copy with hidden units appended after its own:
    unconnected ones, and dead ones fed from inputs, live units or other
    dead units, which never feed a live unit; the copy's connections are
    shuffled."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    genome = random_genome(rng)
    padded_hidden = genome.hidden + draw(st.integers(1, 3))
    n_nodes = FIRST_HIDDEN_ID + padded_hidden
    live = live_units(genome)
    dead = [unit for unit in range(FIRST_HIDDEN_ID, n_nodes) if unit not in live]
    pairs = {(c.source, c.target) for c in genome.connections}
    connections = list(genome.connections)
    for _ in range(draw(st.integers(0, 8))):
        pair = (int(rng.integers(0, n_nodes)), dead[int(rng.integers(0, len(dead)))])
        if pair not in pairs:
            pairs.add(pair)
            connections.append(Connection(*pair, float(rng.uniform(-2.0, 2.0))))
    rng.shuffle(connections)
    return genome, Genome(padded_hidden, tuple(connections))


class TestBehaviourKey:
    @settings(max_examples=40, deadline=None)
    @given(padded_genomes())
    def test_dead_units_change_neither_key_nor_results(self, genomes):
        """Every task and descriptor kind, fault free and under a fault that
        mixes sensor and wheel faults, bit for bit; each genome is evaluated
        alone, so their weight matrices differ in size."""
        genome, padded = genomes
        assert behaviour_key(padded) == behaviour_key(genome)
        assert padded.hidden > genome.hidden

        def results(g):
            jobs = [
                (task, NORMAL_ENV, g, fault, [3, 4], 3.0, kind)
                for task in TaskKind
                for kind in (None, *DESCRIPTORS)
                for fault in (None, MIXED_FAULT)
            ]
            return [
                (np.float64(score).tobytes(), None if d is None else d.tobytes())
                for score, d in evaluate_jobs(jobs)
            ]

        assert results(padded) == results(genome)

    def test_weights_are_part_of_the_key(self):
        """Any change of a live weight's bits, the sign of a zero included,
        gives another key; a dead unit's weight does not."""
        base = [Connection(0, 16, 0.5), Connection(18, 17, -1.0), Connection(3, 18, 0.0)]
        key = behaviour_key(Genome(2, tuple(base)))
        for index, weight in ((0, 0.5000000000000001), (1, 1.0), (2, -0.0)):
            changed = list(base)
            changed[index] = Connection(base[index].source, base[index].target, weight)
            assert behaviour_key(Genome(2, tuple(changed))) != key
        dead = base + [Connection(1, 19, 2.0)]
        assert behaviour_key(Genome(2, tuple(dead))) == key
        assert behaviour_key(Genome(2, (Connection(1, 19, 2.0),))) == frozenset()


@pytest.fixture(scope="module")
def evolved_archive():
    """A small evolved QED archive, in which many elites share a controller."""
    config = EvolutionConfig(
        task="aggregation",
        algorithm="qed",
        initial_population=20,
        generations=60,
        evals_per_generation=1,
        trials=1,
        seed=1,
        trial_duration=2.0,
    )
    return evolve(config).archive


class TestOneJobPerController:
    def test_groups_partition_the_cells_by_key(self, evolved_archive):
        cells = evolved_archive.cells
        groups = _elite_groups(evolved_archive)
        assert sorted(key for group in groups for key in group) == sorted(cells)
        assert all(group == sorted(group) for group in groups)
        assert [group[0] for group in groups] == sorted(group[0] for group in groups)
        keys = [{behaviour_key(cells[k].genome) for k in group} for group in groups]
        assert all(len(key) == 1 for key in keys)
        assert len(set.union(*keys)) == len(groups) < 0.75 * len(cells)
        # the key merges genomes that differ, not only copies
        assert any(len({cells[k].genome for k in group}) > 1 for group in groups)

    @pytest.mark.parametrize(
        "task, fault, kind",
        [
            ("aggregation", None, "spirit"),
            ("flocking", MIXED_FAULT, None),
            ("dispersion", None, "sdbc"),
        ],
    )
    def test_grouped_equals_one_job_per_elite(self, evolved_archive, task, fault, kind):
        """Scores and descriptors bit for bit against one job per elite."""
        keys = sorted(evolved_archive.cells)
        args = (task, fault, TRIALS, 5, 10.0, kind)
        grouped = _run_elites(evaluate_jobs, evolved_archive, _elite_groups(evolved_archive), *args)
        alone = _run_elites(evaluate_jobs, evolved_archive, [[k] for k in keys], *args)
        assert list(grouped) == list(alone) == keys

        def bits(results):
            return {
                key: (np.float64(score).tobytes(), None if d is None else d.tobytes())
                for key, (score, d) in results.items()
            }

        assert bits(grouped) == bits(alone)

    def test_each_pass_simulates_every_controller_once(self, evolved_archive, monkeypatch):
        controllers = {behaviour_key(e.genome) for e in evolved_archive.cells.values()}
        jobs_seen = spy_on_jobs(monkeypatch)
        normal = evaluate_archive(evolved_archive, "aggregation", None, 1, 0, DUR)
        simulated = [behaviour_key(job[2]) for job in jobs_seen]
        assert len(simulated) == len(controllers) and set(simulated) == controllers
        jobs_seen.clear()
        faults = [np.array(MIXED_FAULT), sample_combined_fault(np.random.default_rng(3), 10)]
        fault_recovery_records(evolved_archive, "aggregation", normal, faults, 1, 0, DUR)
        for fault in faults:
            simulated = [behaviour_key(job[2]) for job in jobs_seen if job[3] is fault]
            assert len(simulated) == len(controllers) and set(simulated) == controllers
        assert len(jobs_seen) == len(faults) * len(controllers)
