import json
import sys
from dataclasses import astuple

import numpy as np
import pytest

from qdswarm.archive import load_archive, read_table
from qdswarm.cli import main
from qdswarm.descriptors import DESCRIPTORS, describe
from qdswarm.environment import NORMAL_ENV
from qdswarm.experiment import (
    STAGE_FILES,
    ConfigError,
    config_hash,
    load_records_csv,
    parse_config_text,
    read_provenance,
    resolve_config,
    stage_analyze,
)
from qdswarm.recovery import fault_recovery_records, sample_combined_fault
from qdswarm.seeding import derive_rng, derive_seed, trial_seeds
from qdswarm.sim import run_trials

TINY = """
task = aggregation
algorithm = qed
seed = 11
replicates = 1
evolve.initial_population = 5
evolve.generations = 3
evolve.evals_per_generation = 2
evolve.trials = 1
evolve.trial_duration = 2.0
reevaluate.trials = 2
faults.count = 2
faults.trials = 1
"""


def write_cfg(tmp_path, text=TINY, name="exp.cfg"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


class TestConfig:
    def test_parse_rejects_unknown_keys(self):
        with pytest.raises(ConfigError):
            parse_config_text("no.such.key = 3")

    def test_parse_rejects_duplicates(self):
        with pytest.raises(ConfigError):
            parse_config_text("seed = 1\nseed = 2")

    def test_parse_rejects_garbage(self):
        with pytest.raises(ConfigError):
            parse_config_text("just some words")

    def test_comments_and_blanks_ignored(self):
        values = parse_config_text("# hello\n\nseed = 3  # trailing\n")
        assert values == {"seed": "3"}

    def test_presets_differ(self):
        desk = resolve_config("desk")
        paper = resolve_config("paper")
        assert desk["evolve.generations"] == 1000
        assert paper["evolve.generations"] == 30000
        assert paper["evolve.trials"] == 50

    def test_overrides_win(self):
        config = resolve_config("desk", "seed = 5", {"seed": 9, "out": "/tmp/zzz"})
        assert config["seed"] == 9
        assert config["out"] == "/tmp/zzz"

    def test_bad_type_rejected(self):
        with pytest.raises(ConfigError):
            resolve_config("desk", "seed = banana")

    def test_hash_excludes_out(self):
        a = resolve_config("desk", TINY, {"out": "/tmp/a"})
        b = resolve_config("desk", TINY, {"out": "/tmp/b"})
        assert config_hash(a) == config_hash(b)
        c = resolve_config("desk", TINY, {"seed": 99})
        assert config_hash(a) != config_hash(c)

    def test_auto_cvt_seeds(self):
        sdbc = resolve_config("desk", "algorithm = sdbc")
        assert int(sdbc["cvt.seeds"]) == 20_000
        spirit = resolve_config("paper", "algorithm = spirit")
        assert int(spirit["cvt.seeds"]) == 1_000_000
        explicit = resolve_config("desk", "algorithm = sdbc\ncvt.seeds = 5000")
        assert int(explicit["cvt.seeds"]) == 5000


class TestPipeline:
    def test_full_pipeline_and_resume(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path)
        out = str(tmp_path / "run")
        assert main(["evolve", "--config", cfg, "--out", out]) == 0
        assert main(["reevaluate", "--out", out]) == 0
        assert main(["faults", "--out", out]) == 0
        assert main(["analyze", "--out", out]) == 0

        rep = tmp_path / "run" / "rep00"
        assert (rep / "archive" / "index.csv").exists()
        assert (rep / "stats.csv").exists()
        assert (rep / "records.csv").exists()
        assert (tmp_path / "run" / "analysis" / "signatures.csv").exists()

        # provenance headers carry the config hash and seed
        meta = read_provenance(rep / "records.csv")
        assert meta["seed"] == "11"
        assert meta["algorithm"] == "qed"

        # the best-performance search scans every cell of the archive
        index_rows = [
            line
            for line in (rep / "archive" / "index.csv").read_text().splitlines()
            if line and not line.startswith(("#", "key,"))
        ]
        reeval_rows = [
            line
            for line in (rep / "reevaluation.csv").read_text().splitlines()
            if line and not line.startswith(("#", "key,"))
        ]
        assert len(reeval_rows) == len(index_rows)

        # stats.csv has one row per generation plus the init row
        stats_lines = [
            line
            for line in (rep / "stats.csv").read_text().splitlines()
            if line and not line.startswith("#")
        ]
        assert len(stats_lines) == 1 + (3 + 1)
        coverage = [int(line.split(",")[2]) for line in stats_lines[1:]]
        assert all(a <= b for a, b in zip(coverage, coverage[1:]))

        # rerunning a completed stage is a verified no-op
        before = (rep / "archive" / "index.csv").read_bytes()
        capsys.readouterr()
        assert main(["evolve", "--config", cfg, "--out", out]) == 0
        assert "skipping" in capsys.readouterr().out
        assert (rep / "archive" / "index.csv").read_bytes() == before

    def test_evolve_manifest_lists_only_evolve_outputs(self, tmp_path):
        cfg = write_cfg(tmp_path)
        out = str(tmp_path / "run")
        assert main(["evolve", "--config", cfg, "--out", out]) == 0
        assert main(["reevaluate", "--out", out]) == 0
        rep = tmp_path / "run" / "rep00"
        (rep / "evolve.done").unlink()
        assert main(["evolve", "--config", cfg, "--out", out]) == 0
        listed = set(json.loads((rep / "evolve.done").read_text())["files"])
        genomes = {str(p.relative_to(rep)) for p in (rep / "archive" / "genomes").iterdir()}
        assert genomes
        assert listed == {"archive/index.csv", "stats.csv", "events.csv"} | genomes

    def test_edited_evolve_output_reruns_evolve(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path)
        out = str(tmp_path / "run")
        assert main(["evolve", "--config", cfg, "--out", out]) == 0
        stats = tmp_path / "run" / "rep00" / "stats.csv"
        original = stats.read_bytes()
        stats.write_bytes(original + b"edited\n")
        capsys.readouterr()
        assert main(["evolve", "--config", cfg, "--out", out]) == 0
        assert "skipping" not in capsys.readouterr().out
        assert stats.read_bytes() == original

    @pytest.mark.parametrize(
        "content", ["null", "[]", "{}", '{"stage": "evolve"}', '{"files": []}', "{"]
    )
    def test_malformed_manifest_is_stale(self, tmp_path, capsys, content):
        """A manifest that is not a JSON `{"files": {name: digest}}` counts as
        missing: evolve reruns to the same bytes, and faults asks for the
        reevaluate stage before it writes anything."""
        cfg = write_cfg(tmp_path)
        out = str(tmp_path / "run")
        rep = tmp_path / "run" / "rep00"
        assert main(["evolve", "--config", cfg, "--out", out]) == 0
        manifest = rep / "evolve.done"
        written = manifest.read_bytes()
        outputs = {name: (rep / name).read_bytes() for name in json.loads(written)["files"]}
        manifest.write_text(content)
        capsys.readouterr()
        assert main(["evolve", "--config", cfg, "--out", out]) == 0
        assert "skipping" not in capsys.readouterr().out
        assert manifest.read_bytes() == written
        assert {name: (rep / name).read_bytes() for name in outputs} == outputs

        assert main(["reevaluate", "--out", out]) == 0
        (rep / "reevaluate.done").write_text(content)
        capsys.readouterr()
        assert main(["faults", "--out", out]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "run the reevaluate stage" in err
        assert not (rep / "records.csv").exists()

    def test_byte_identical_across_directories(self, tmp_path):
        cfg = write_cfg(tmp_path)
        out_a = str(tmp_path / "a")
        out_b = str(tmp_path / "b")
        for out in (out_a, out_b):
            assert main(["evolve", "--config", cfg, "--out", out]) == 0
            assert main(["reevaluate", "--out", out]) == 0
            assert main(["faults", "--out", out]) == 0
        for name in ("archive/index.csv", "stats.csv", "events.csv", "records.csv"):
            a = (tmp_path / "a" / "rep00" / name).read_bytes()
            b = (tmp_path / "b" / "rep00" / name).read_bytes()
            assert a == b, name

    def test_records_csv_round_trip(self, tmp_path):
        cfg = write_cfg(tmp_path)
        out = str(tmp_path / "run")
        for command in (["evolve", "--config", cfg], ["reevaluate"], ["faults"]):
            assert main([*command, "--out", out]) == 0
        config = resolve_config("desk", (tmp_path / "run" / "config.txt").read_text())
        rep = tmp_path / "run" / "rep00"
        # the faults, seeds and fault ids that the faults stage draws for replicate 0
        fault_rng = derive_rng(config["seed"], "faults", 0)
        faults = [sample_combined_fault(fault_rng, NORMAL_ENV.n_robots) for _ in range(2)]
        # the normal scores and profiles that the faults stage reads back from
        # reevaluate's output
        profiles = np.load(rep / "reevaluation_profiles.npy")
        normal = {
            int(row["key"]): (float(row["performance"]), profile)
            for row, profile in zip(read_table(rep / "reevaluation.csv"), profiles, strict=True)
        }
        expected = fault_recovery_records(
            load_archive(rep / "archive", "qed"),
            config["task"],
            normal,
            faults,
            trials=config["faults.trials"],
            seed=derive_seed(derive_seed(config["seed"], "replicate", 0), "recovery"),
            duration=config["evolve.trial_duration"],
            fault_ids=["00-000", "00-001"],
        )

        def exact(record):
            """Fields of `record`, floats as hex so that equality is bit-for-bit."""
            return [float(v).hex() if isinstance(v, float) else v for v in astuple(record)]

        algorithm, records = load_records_csv(rep / "records.csv")
        assert algorithm == "qed"
        assert len(records) == config["faults.count"] == 2
        assert [exact(r) for r in records] == [exact(r) for r in expected]
        assert all(type(r.faults) is tuple and type(r.best_key) is int for r in records)

    def test_projection_cvt_built_once(self, tmp_path, monkeypatch):
        """The projection builds one CVT for all replicates and, reading the
        reevaluate stage's profiles, simulates nothing."""
        import qdswarm.sim

        cfg = write_cfg(tmp_path, TINY.replace("replicates = 1", "replicates = 2"))
        out = str(tmp_path / "run")
        assert main(["evolve", "--config", cfg, "--out", out]) == 0
        assert main(["reevaluate", "--out", out]) == 0
        calls, simulations = [], []

        def counting_cvt(k, dim, n_seeds, seed, **kwargs):
            calls.append((k, dim, n_seeds, seed))
            return np.full((2, dim), 1.0 / 16)

        def counting_sim(*args, **kwargs):
            simulations.append(args)
            raise AssertionError("the projection ran a simulation")

        monkeypatch.setattr("qdswarm.experiment.generate_cvt_centroids", counting_cvt)
        # every qdswarm module namespace that holds one of the simulator's entry points
        for name, module in list(sys.modules.items()):
            for attr in ("run_trial", "run_trials"):
                if name.startswith("qdswarm") and getattr(module, attr, None) is getattr(
                    qdswarm.sim, attr
                ):
                    monkeypatch.setattr(module, attr, counting_sim)
        assert main(["export", "--out", out, "--what", "projection"]) == 0
        assert len(calls) == 1
        assert simulations == []
        for rep in ("rep00", "rep01"):
            assert (tmp_path / "run" / rep / "projection_summary.csv").exists()

    def test_stored_profiles_are_the_spirit_descriptors(self, tmp_path):
        # at seed 11 every elite of the tiny archive has the same profile; at
        # seed 12 they differ, so a row in the wrong order shows
        cfg = write_cfg(tmp_path, TINY.replace("seed = 11", "seed = 12"))
        out = str(tmp_path / "run")
        assert main(["evolve", "--config", cfg, "--out", out]) == 0
        assert main(["reevaluate", "--out", out]) == 0
        config = resolve_config("desk", (tmp_path / "run" / "config.txt").read_text())
        rep = tmp_path / "run" / "rep00"
        archive = load_archive(rep / "archive", "qed")
        keys = [int(row["key"]) for row in read_table(rep / "reevaluation.csv")]
        profiles = np.load(rep / "reevaluation_profiles.npy")
        assert profiles.shape == (len(keys), 64, 16) and profiles.dtype == np.float64
        assert len({profile.tobytes() for profile in profiles}) > 1
        # the trials that the reevaluate stage runs for replicate 0
        n = config["reevaluate.trials"]
        seed = derive_seed(derive_seed(config["seed"], "replicate", 0), "recovery")
        for key, profile in zip(keys, profiles, strict=True):
            logs = run_trials(
                [NORMAL_ENV] * n,
                [archive.cells[key].genome] * n,
                [None] * n,
                trial_seeds(n, seed, "recovery-trial"),
                config["evolve.trial_duration"],
            )
            assert profile.tobytes() == describe("spirit", logs).tobytes()

    @pytest.mark.parametrize("damage", ["deleted", "byte-flipped", "unlisted"])
    def test_faults_and_projection_reject_missing_or_stale_profiles(
        self, tmp_path, capsys, damage
    ):
        cfg = write_cfg(tmp_path)
        out = str(tmp_path / "run")
        rep = tmp_path / "run" / "rep00"
        assert main(["evolve", "--config", cfg, "--out", out]) == 0
        assert main(["reevaluate", "--out", out]) == 0
        profiles = rep / "reevaluation_profiles.npy"
        if damage == "deleted":
            profiles.unlink()
        elif damage == "byte-flipped":
            data = bytearray(profiles.read_bytes())
            data[-1] ^= 0x01
            profiles.write_bytes(bytes(data))
        else:  # a manifest as written before the reevaluate stage stored profiles
            manifest = rep / "reevaluate.done"
            recorded = json.loads(manifest.read_text())
            del recorded["files"]["reevaluation_profiles.npy"]
            manifest.write_text(json.dumps(recorded))
        capsys.readouterr()
        for command in (["faults"], ["export", "--what", "projection"]):
            assert main([*command, "--out", out]) == 2
            err = capsys.readouterr().err
            assert err.startswith("error:") and "reevaluate" in err
        assert not (rep / "records.csv").exists()
        assert not list(rep.glob("projection*.csv"))

    def test_export_triallog(self, tmp_path):
        cfg = write_cfg(tmp_path)
        out = str(tmp_path / "run")
        assert main(["evolve", "--config", cfg, "--out", out]) == 0
        assert main(["export", "--out", out, "--what", "triallog"]) == 0
        rep = tmp_path / "run" / "rep00"
        (export,) = rep.glob("trial_cell_*.csv")
        provenance, columns, *rows = export.read_text().splitlines()
        assert provenance == (rep / "archive" / "index.csv").read_text().splitlines()[0]
        assert columns == "cycle,robot,x,y,heading,vl,vr"
        # one row per (cycle, robot): 2.0 s of 0.2 s control cycles, 10 robots
        assert len(rows) == 10 * NORMAL_ENV.n_robots
        assert [row.split(",")[:2] for row in rows[9:11]] == [["0", "9"], ["1", "0"]]

    def test_export_descriptors_read_back_bit_identical(self, tmp_path):
        cfg = write_cfg(tmp_path)
        out = str(tmp_path / "run")
        assert main(["evolve", "--config", cfg, "--out", out]) == 0
        assert main(["export", "--out", out, "--what", "descriptors"]) == 0
        config = resolve_config("desk", (tmp_path / "run" / "config.txt").read_text())
        rep = tmp_path / "run" / "rep00"
        archive = load_archive(rep / "archive", "qed")
        key = max(archive.cells, key=lambda k: (archive.cells[k].performance, -k))
        # the trials that the export runs for replicate 0's best elite
        n = config["reevaluate.trials"]
        seed = derive_seed(derive_seed(config["seed"], "replicate", 0), "export")
        logs = run_trials(
            [NORMAL_ENV] * n,
            [archive.cells[key].genome] * n,
            [None] * n,
            trial_seeds(n, seed),
            config["evolve.trial_duration"],
        )
        run_hash = read_provenance(rep / "archive" / "index.csv")["config_hash"]
        for kind in DESCRIPTORS:
            path = rep / f"descriptor_{kind}_{key:05d}.csv"
            assert read_provenance(path)["config_hash"] == run_hash == config_hash(config)
            rows = list(read_table(path))
            expected = describe(kind, logs).ravel()
            assert [(row["kind"], int(row["dimension"])) for row in rows] == [
                (kind, i) for i in range(len(expected))
            ]
            values = np.array([float(row["value"]) for row in rows])
            assert values.tobytes() == expected.tobytes()

    def test_faults_requires_reevaluation(self, tmp_path):
        cfg = write_cfg(tmp_path)
        out = str(tmp_path / "run")
        assert main(["evolve", "--config", cfg, "--out", out]) == 0
        assert main(["faults", "--out", out]) != 0

    def test_faults_rejects_reevaluation_of_another_config(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path)
        out = str(tmp_path / "run")
        records = tmp_path / "run" / "rep00" / "records.csv"
        assert main(["evolve", "--config", cfg, "--out", out]) == 0
        assert main(["reevaluate", "--out", out, "--seed", "12"]) == 0
        capsys.readouterr()
        assert main(["faults", "--out", out, "--seed", "13"]) == 2
        assert capsys.readouterr().err.startswith("error:")
        assert not records.exists()
        assert main(["faults", "--out", out, "--seed", "12"]) == 0
        assert records.exists()

    def test_faults_rejects_edited_reevaluation(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path)
        out = str(tmp_path / "run")
        rep = tmp_path / "run" / "rep00"
        assert main(["evolve", "--config", cfg, "--out", out]) == 0
        assert main(["reevaluate", "--out", out]) == 0
        reevaluation = rep / "reevaluation.csv"
        provenance_line, columns, first, rest = reevaluation.read_bytes().split(b"\n", 3)
        edited = first.split(b",")[0] + b",2.0\r"  # no fitness exceeds 1
        reevaluation.write_bytes(b"\n".join([provenance_line, columns, edited, rest]))
        capsys.readouterr()
        assert main(["faults", "--out", out]) == 2
        assert capsys.readouterr().err.startswith("error:")
        assert not (rep / "records.csv").exists()

    def test_faults_rejects_reevaluation_of_other_cells(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path)
        out = str(tmp_path / "run")
        rep = tmp_path / "run" / "rep00"
        assert main(["evolve", "--config", cfg, "--out", out]) == 0
        assert main(["reevaluate", "--out", out]) == 0
        index = rep / "archive" / "index.csv"
        lines = index.read_bytes().splitlines(keepends=True)
        assert len(lines) > 3  # provenance, columns and at least two elites
        index.write_bytes(b"".join(lines[:-1]))
        capsys.readouterr()
        assert main(["faults", "--out", out]) == 2
        assert capsys.readouterr().err.startswith("error:")
        assert not (rep / "records.csv").exists()

    @pytest.mark.parametrize("damage", ["row deleted", "genome edited", "header damaged"])
    def test_archive_read_stages_require_a_verified_archive(self, tmp_path, capsys, damage):
        cfg = write_cfg(tmp_path)
        out = str(tmp_path / "run")
        rep = tmp_path / "run" / "rep00"
        assert main(["evolve", "--config", cfg, "--out", out]) == 0
        index = rep / "archive" / "index.csv"
        if damage == "row deleted":
            index.write_bytes(b"".join(index.read_bytes().splitlines(keepends=True)[:-1]))
        elif damage == "genome edited":
            genome = sorted((rep / "archive" / "genomes").iterdir())[-1]
            text = genome.read_text()
            genome.write_text("1\n" if text == "0\n" else "0\n")
        else:
            index.write_text(index.read_text().replace("max_linear_speed", "max_speed"))
        capsys.readouterr()
        for command in (["reevaluate"], ["faults"], ["export"]):
            assert main([*command, "--out", out]) == 2
            err = capsys.readouterr().err
            assert err.startswith("error:") and "run the evolve stage" in err
        assert not (rep / "reevaluation.csv").exists()
        assert not list(rep.glob("trial_cell_*.csv"))

    def test_faults_rejects_an_archive_edited_after_reevaluate(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path)
        out = str(tmp_path / "run")
        rep = tmp_path / "run" / "rep00"
        assert main(["evolve", "--config", cfg, "--out", out]) == 0
        assert main(["reevaluate", "--out", out]) == 0
        genome = sorted((rep / "archive" / "genomes").iterdir())[0]
        genome.write_text(genome.read_text() + "\n")  # the same genome, other bytes
        capsys.readouterr()
        assert main(["faults", "--out", out]) == 2
        assert "run the evolve stage" in capsys.readouterr().err
        assert not (rep / "records.csv").exists()

    def test_evolve_rejects_another_config_in_same_out(self, tmp_path, capsys):
        out = str(tmp_path / "run")
        assert main(["evolve", "--config", write_cfg(tmp_path), "--out", out]) == 0
        stored = (tmp_path / "run" / "config.txt").read_text()
        other = write_cfg(tmp_path, TINY.replace("aggregation", "dispersion"), "other.cfg")
        capsys.readouterr()
        assert main(["evolve", "--config", other, "--out", out]) == 2
        assert capsys.readouterr().err.startswith("error:")
        assert (tmp_path / "run" / "config.txt").read_text() == stored

    @pytest.mark.parametrize("threads", ["0", "-3"])
    def test_threads_below_one_rejected(self, tmp_path, capsys, monkeypatch, threads):
        def no_work(*args, **kwargs):
            raise AssertionError("a stage started")

        for stage in ("stage_evolve", "stage_reevaluate", "stage_faults"):
            monkeypatch.setattr(f"qdswarm.cli.{stage}", no_work)
        for command in ("evolve", "reevaluate", "faults"):
            out = str(tmp_path / "run")
            assert main([command, "--out", out, "--threads", threads]) == 2
            assert capsys.readouterr().err == "error: --threads must be >= 1\n"
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize("command", ["analyze", "export"])
    def test_analyze_takes_no_threads(self, tmp_path, command):
        with pytest.raises(SystemExit) as exc:
            main([command, "--out", str(tmp_path / "run"), "--threads", "2"])
        assert exc.value.code == 2

    def test_unknown_config_key_exits_nonzero(self, tmp_path, capsys):
        bad = tmp_path / "bad.cfg"
        bad.write_text("nope = 1\n")
        code = main(["evolve", "--config", str(bad), "--out", str(tmp_path / "x")])
        assert code == 2
        assert capsys.readouterr().err.startswith("error:")

    def test_missing_config_file_exits_2(self, tmp_path, capsys):
        out = tmp_path / "run"
        assert main(["evolve", "--config", str(tmp_path / "missing.cfg"), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1
        assert not out.exists()

    @pytest.mark.parametrize(
        "old, new",
        [
            ("algorithm = qed", "algorithm = sdbc\ncvt.seeds = 100"),
            ("algorithm = qed", "algorithm = spirit\ncvt.seeds = 4095"),
            ("evolve.trial_duration = 2.0", "evolve.trial_duration = 0.05"),
            ("evolve.trial_duration = 2.0", "evolve.trial_duration = -1"),
        ],
        ids=["sdbc-seeds-below-capacity", "spirit-seeds-below-capacity", "under-one-cycle",
             "negative-duration"],
    )
    def test_invalid_config_rejected_before_config_written(self, tmp_path, capsys, old, new):
        cfg = write_cfg(tmp_path, TINY.replace(old, new))
        assert main(["evolve", "--config", cfg, "--out", str(tmp_path / "run")]) == 2
        key = new.splitlines()[-1].split(" = ")[0]
        assert capsys.readouterr().err.startswith(f"error: {key} must be at least")
        assert not (tmp_path / "run" / "config.txt").exists()

    @pytest.mark.parametrize("iterations", ["0", "-3"])
    def test_cvt_without_lloyd_iterations_rejected(self, tmp_path, capsys, iterations):
        # with no Lloyd iteration the random seed subset would become the centroids
        cfg = write_cfg(tmp_path, TINY + f"cvt.iterations = {iterations}\n")
        assert main(["evolve", "--config", cfg, "--out", str(tmp_path / "run")]) == 2
        assert capsys.readouterr().err == "error: cvt.iterations must be >= 1\n"
        assert not (tmp_path / "run" / "config.txt").exists()

    def test_export_of_empty_cell_names_it(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path)
        out = str(tmp_path / "run")
        assert main(["evolve", "--config", cfg, "--out", out]) == 0
        archive_dir = tmp_path / "run" / "rep00" / "archive"
        empty = min(set(range(4096)) - set(load_archive(archive_dir, "qed").cells))
        capsys.readouterr()
        assert main(["export", "--out", out, "--cell", str(empty)]) == 2
        assert capsys.readouterr().err == f"error: {archive_dir} has no elite at cell {empty}\n"

    def test_projection_of_an_empty_cell_ignores_the_cell(self, tmp_path, monkeypatch):
        """The projection reads no genome, so `--cell` of an empty cell does
        not stop it, and it writes what an export without `--cell` writes."""
        cfg = write_cfg(tmp_path)
        out = str(tmp_path / "run")
        rep = tmp_path / "run" / "rep00"
        assert main(["evolve", "--config", cfg, "--out", out]) == 0
        assert main(["reevaluate", "--out", out]) == 0
        monkeypatch.setattr(
            "qdswarm.experiment.generate_cvt_centroids",
            lambda k, dim, n_seeds, seed, **kwargs: np.full((2, dim), 1.0 / 16),
        )
        empty = min(set(range(4096)) - set(load_archive(rep / "archive", "qed").cells))
        names = ("projection.csv", "projection_summary.csv")
        assert main(["export", "--out", out, "--what", "projection"]) == 0
        default = [(rep / name).read_bytes() for name in names]
        for name in names:
            (rep / name).unlink()
        assert main(["export", "--out", out, "--what", "projection", "--cell", str(empty)]) == 0
        assert [(rep / name).read_bytes() for name in names] == default

    def test_manifest_missing_a_stage_file_reruns_the_stage(self, tmp_path, capsys):
        """A reevaluate manifest written before the stage stored its profiles
        is stale: reevaluate reruns by itself, and faults then succeeds."""
        cfg = write_cfg(tmp_path)
        out = str(tmp_path / "run")
        rep = tmp_path / "run" / "rep00"
        assert main(["evolve", "--config", cfg, "--out", out]) == 0
        assert main(["reevaluate", "--out", out]) == 0
        manifest = rep / "reevaluate.done"
        written = manifest.read_bytes()
        outputs = [(rep / name).read_bytes() for name in STAGE_FILES["reevaluate"]]
        recorded = json.loads(written)
        del recorded["files"]["reevaluation_profiles.npy"]
        manifest.write_text(json.dumps(recorded))
        capsys.readouterr()
        assert main(["reevaluate", "--out", out]) == 0
        assert "skipping" not in capsys.readouterr().out
        assert manifest.read_bytes() == written
        assert [(rep / name).read_bytes() for name in STAGE_FILES["reevaluate"]] == outputs
        assert main(["faults", "--out", out]) == 0
        assert (rep / "records.csv").exists()


class TestAnalyze:
    def _records_csv(self, path, algorithm, rows):
        lines = [
            f"# qdswarm config_hash=deadbeef0000 seed=1 algorithm={algorithm} task=aggregation",
            "task,fault_id,fault_codes,impact,recovered_perf,recovered_perf_norm,"
            "resilience,distance,best_cell_key",
        ]
        for i, (imp, rec, res, dist) in enumerate(rows):
            lines.append(
                f"aggregation,{i:03d},NONE;NONE,{imp!r},{rec!r},{rec!r},{res!r},{dist!r},0"
            )
        path.write_text("\n".join(lines) + "\n")

    @pytest.mark.parametrize("damage", ["no rows", "missing column", "short row", "bad cell"])
    def test_malformed_records_exit_2_naming_the_file(self, tmp_path, capsys, damage):
        path = tmp_path / "records.csv"
        self._records_csv(path, "qed", [(-0.1, 0.5, -0.05, 0.2), (-0.3, 0.4, -0.2, 0.1)])
        lines = path.read_text().splitlines()
        if damage == "no rows":
            lines = lines[:2]
        elif damage == "missing column":  # drop recovered_perf
            lines = [",".join(line.split(",")[:4] + line.split(",")[5:]) for line in lines]
        elif damage == "short row":
            lines[-1] = lines[-1].rsplit(",", 1)[0]
        else:  # the last row's impact cell
            cells = lines[-1].split(",")
            lines[-1] = ",".join(cells[:3] + ["abc"] + cells[4:])
        path.write_text("\n".join(lines) + "\n")
        out = tmp_path / "run"
        assert main(["analyze", "--out", str(out), str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and str(path) in err
        assert not (out / "analysis").exists()

    def test_bad_record_set_after_a_good_one_leaves_no_analysis(self, tmp_path, capsys):
        rows = [(-0.1, 0.5, -0.05, 0.2), (-0.3, 0.4, -0.2, 0.1)]
        self._records_csv(tmp_path / "a.csv", "qed", rows)
        self._records_csv(tmp_path / "b.csv", "hbd", rows)
        bad = tmp_path / "b.csv"
        bad.write_text(bad.read_text().replace(",-0.3,", ",abc,"))
        out = tmp_path / "run"
        assert main(["analyze", "--out", str(out), str(tmp_path / "a.csv"), str(bad)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and str(bad) in err and "impact" in err
        assert not (out / "analysis").exists()

    def test_single_set_has_no_pairwise_tables(self, tmp_path):
        rng = np.random.default_rng(0)
        rows = [
            (-0.4 * rng.random(), rng.random(), -0.2 * rng.random(), rng.random())
            for _ in range(20)
        ]
        self._records_csv(tmp_path / "r.csv", "qed", rows)
        stage_analyze([tmp_path / "r.csv"], tmp_path / "analysis", log=lambda *_: None)
        assert (tmp_path / "analysis" / "signatures.csv").exists()
        assert not (tmp_path / "analysis" / "stats_tables.csv").exists()

    def test_two_algorithms_get_pairwise_tables(self, tmp_path):
        rng = np.random.default_rng(1)
        rows_a = [
            (-0.4 * rng.random(), rng.random(), -0.1 * rng.random(), rng.random())
            for _ in range(20)
        ]
        rows_b = [
            (-0.4 * rng.random(), rng.random(), -0.3 * rng.random(), rng.random())
            for _ in range(20)
        ]
        self._records_csv(tmp_path / "a.csv", "qed", rows_a)
        self._records_csv(tmp_path / "b.csv", "hbd", rows_b)
        stage_analyze(
            [tmp_path / "a.csv", tmp_path / "b.csv"], tmp_path / "analysis", log=lambda *_: None
        )
        table = (tmp_path / "analysis" / "stats_tables.csv").read_text().splitlines()
        rows = [line for line in table if line and not line.startswith("#")]
        # header + (1 algorithm pair) x (2 metrics)
        assert len(rows) == 1 + 2
        assert "resilience" in rows[1] or "resilience" in rows[2]
