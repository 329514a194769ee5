"""Experiment configuration, orchestration, and file persistence.

Configuration is a flat key = value text format with dotted section keys;
unknown keys are errors. The `preset` key picks the other keys' defaults:
`desk` (default, runs on a workstation) or `paper` (the full-scale budget).
A run stores its resolved config, preset included, as `config.txt`; the
config hash leaves out `out` and `preset`. Every CSV is written by
:func:`~qdswarm.archive.write_table` and starts with a provenance header line
with the config hash and master seed: `archive/index.csv`, `stats.csv`,
`events.csv`, `reevaluation.csv`, `reevaluation_summary.csv`, `records.csv`,
`projection.csv`, `projection_summary.csv`, the exports `trial_cell_*.csv`
and `descriptor_*.csv`, and the `analysis/` files `signatures.csv`,
`signature_*.csv` and `stats_tables.csv`. The numpy arrays are a CVT
archive's centroids, `archive/centroids.npy`, and the elites' fault-free
policy profiles, `reevaluation_profiles.npy`, which `faults` and `export
--what projection` read. Each pipeline stage writes a `.done` manifest of
output hashes so that rerunning a completed stage verifies the files and
becomes a no-op.
"""

import hashlib
import json
from dataclasses import fields
from pathlib import Path

import numpy as np

from .archive import (
    ARCHIVE_CAPACITY,
    CVT_ALGORITHMS,
    generate_cvt_centroids,
    load_archive,
    read_table,
    save_archive,
    write_table,
)
from .environment import NORMAL_ENV
from .evolve import DESCRIPTOR_DIMS, EvolutionConfig, GenerationStats, InsertionEvent, evolve
from .descriptors import DESCRIPTORS, describe
from .recovery import (
    RecoveryRecord,
    _argbest,
    evaluate_archive,
    fault_recovery_records,
    project_archive,
    sample_combined_fault,
)
from .seeding import derive_rng, derive_seed, trial_seeds
from .sim import CONTROL_DT, run_trial, run_trials
from .stats import cliffs_delta, signature
from .tasks import TaskKind

# key -> (type, desk default, paper default); cvt.seeds "auto" resolves per
# algorithm (behaviour-space dimensionality drives the seed-cloud size)
CONFIG_KEYS = {
    "preset": (str, "desk", "paper"),
    "task": (str, "aggregation", "aggregation"),
    "algorithm": (str, "qed", "qed"),
    "seed": (int, 0, 0),
    "replicates": (int, 1, 5),
    "out": (str, "runs/experiment", "runs/experiment"),
    "evolve.initial_population": (int, 200, 2000),
    "evolve.generations": (int, 1000, 30000),
    "evolve.evals_per_generation": (int, 20, 80),
    "evolve.trials": (int, 5, 50),
    "evolve.trial_duration": (float, 400.0, 400.0),
    "cvt.seeds": (str, "auto", "auto"),
    "cvt.iterations": (int, 20, 100),
    "reevaluate.trials": (int, 10, 10),
    "faults.count": (int, 25, 50),
    "faults.trials": (int, 10, 10),
}

AUTO_CVT_SEEDS = {
    "desk": {"sdbc": 20_000, "spirit": 8192},
    "paper": {"sdbc": 100_000, "spirit": 1_000_000},
}

PRESETS = ("desk", "paper")

PROFILES = "reevaluation_profiles.npy"  # the reevaluate stage's policy profiles


class ConfigError(ValueError):
    pass


def parse_config_text(text: str) -> dict:
    """Parse key = value lines; '#' starts a comment; unknown keys error."""
    values = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {raw!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if key not in CONFIG_KEYS:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        if key in values:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        values[key] = value
    return values


def resolve_config(file_text: str = "", overrides: dict | None = None) -> dict:
    """Merge the preset's defaults, config file values, and overrides (None
    is none); the preset is the overrides', else the file's, else `desk`."""
    values = parse_config_text(file_text)
    for key, value in (overrides or {}).items():
        if key not in CONFIG_KEYS:
            raise ConfigError(f"unknown override {key!r}")
        if value is not None:
            values[key] = str(value)
    preset = values.get("preset", "desk")
    if preset not in PRESETS:
        raise ConfigError(f"unknown preset {preset!r}")
    column = 1 + PRESETS.index(preset)
    config = {key: spec[column] for key, spec in CONFIG_KEYS.items()}
    for key, raw in values.items():
        config[key] = _coerce(key, raw)
    _validate(config)
    # materialize the seed-cloud size so stored configs are self-contained
    if config["cvt.seeds"] == "auto" and config["algorithm"] in CVT_ALGORITHMS:
        config["cvt.seeds"] = str(AUTO_CVT_SEEDS[preset][config["algorithm"]])
    return config


def _coerce(key: str, raw: str):
    kind = CONFIG_KEYS[key][0]
    try:
        if kind is int:
            return int(raw)
        if kind is float:
            return float(raw)
    except ValueError:
        raise ConfigError(f"key {key!r}: cannot parse {raw!r}") from None
    return raw


def _validate(config: dict) -> None:
    TaskKind(config["task"])
    if config["algorithm"] not in DESCRIPTOR_DIMS:
        raise ConfigError(f"unknown algorithm {config['algorithm']!r}")
    # every integer key but the seed is a count
    for key, (kind, *_) in CONFIG_KEYS.items():
        if kind is int and key != "seed" and config[key] < 1:
            raise ConfigError(f"{key} must be >= 1")
    # a trial shorter than one control cycle would have no cycles to score
    if not CONTROL_DT <= config["evolve.trial_duration"] < np.inf:
        raise ConfigError(
            f"evolve.trial_duration must be at least one {CONTROL_DT} s control cycle, "
            f"got {config['evolve.trial_duration']!r}"
        )
    if config["cvt.seeds"] != "auto":
        try:
            seeds = int(config["cvt.seeds"])
        except ValueError:
            raise ConfigError(
                f"cvt.seeds must be an integer or 'auto', got {config['cvt.seeds']!r}"
            ) from None
        if config["algorithm"] in CVT_ALGORITHMS and seeds < ARCHIVE_CAPACITY:
            raise ConfigError(
                f"cvt.seeds must be at least the {ARCHIVE_CAPACITY} archive cells "
                f"for {config['algorithm']}, got {seeds}"
            )


def config_text(config: dict) -> str:
    lines = []
    for key in sorted(CONFIG_KEYS):
        value = config[key]
        lines.append(f"{key} = {value!r}" if isinstance(value, float) else f"{key} = {value}")
    return "\n".join(lines) + "\n"


def config_hash(config: dict) -> str:
    """Hash of :func:`config_text` without its `out` line, the run's place,
    and its `preset` line, whose defaults are written out as their own keys."""
    text = config_text(config)
    lines = [line for line in text.splitlines() if not line.startswith(("out =", "preset ="))]
    return hashlib.sha256("\n".join(lines).encode("utf-8")).hexdigest()[:12]


def provenance(config: dict) -> str:
    return (
        f"# qdswarm config_hash={config_hash(config)} seed={config['seed']} "
        f"algorithm={config['algorithm']} task={config['task']}"
    )


def read_provenance(path) -> dict:
    with open(path, encoding="utf-8") as fh:
        first = fh.readline().strip()
    fields = {}
    if first.startswith("# qdswarm"):
        for token in first.split()[2:]:
            key, _, value = token.partition("=")
            fields[key] = value
    return fields


# ---------------------------------------------------------------------------
# Stage manifests


def _file_hash(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 16), b""):
            h.update(block)
    return h.hexdigest()


def _manifest_path(directory, stage: str) -> Path:
    return Path(directory) / f"{stage}.done"


# The files each stage writes, which its manifest must list; the evolve
# stage's manifest also lists every other file of its archive.
STAGE_FILES = {
    "evolve": ["archive/index.csv", "stats.csv", "events.csv"],
    "reevaluate": ["reevaluation.csv", "reevaluation_summary.csv", PROFILES],
    "faults": ["records.csv"],
}


def stage_is_complete(directory, stage: str) -> bool:
    """True when the stage manifest exists, lists every file of
    `STAGE_FILES[stage]`, and all recorded hashes match. A manifest written
    before the stage wrote one of its files today is stale, so the stage
    reruns, and so is one that is not a JSON `{"files": {name: digest}}`."""
    manifest = _manifest_path(directory, stage)
    if not manifest.exists():
        return False
    try:
        recorded = json.loads(manifest.read_text())
    except ValueError:
        return False
    files = recorded.get("files") if isinstance(recorded, dict) else None
    if not isinstance(files, dict) or not files.keys() >= set(STAGE_FILES[stage]):
        return False
    for name, digest in files.items():
        path = Path(directory) / name
        if not path.exists() or _file_hash(path) != digest:
            return False
    return True


def write_manifest(directory, stage: str, files) -> None:
    digests = {name: _file_hash(Path(directory) / name) for name in files}
    _manifest_path(directory, stage).write_text(
        json.dumps({"stage": stage, "files": digests}, indent=2, sort_keys=True) + "\n"
    )


# ---------------------------------------------------------------------------
# Stages


def _replicates(config: dict, stage: str, log):
    """Yield (rep, rep_dir, rep_seed, archive, header) of each replicate that
    `stage` has still to run: the replicate loop of every stage but analyze.
    It logs and skips a replicate whose `stage` manifest verifies, and loads
    the archive (not for evolve) only once `evolve.done` verifies. It writes
    the manifest when the loop body returns, after the outputs it lists; a
    body that raises ends the loop first, so that replicate reruns. `export`
    has no `STAGE_FILES` entry: it skips nothing and writes no manifest."""
    header = provenance(config)
    for rep in range(config["replicates"]):
        rep_dir = Path(config["out"]) / f"rep{rep:02d}"
        if stage in STAGE_FILES and stage_is_complete(rep_dir, stage):
            log(f"{stage}: {rep_dir} already complete, skipping")
            continue
        archive = None
        if stage != "evolve":
            if not stage_is_complete(rep_dir, "evolve"):
                raise FileNotFoundError(f"{rep_dir} has no verified archive; run the evolve stage")
            archive = load_archive(rep_dir / "archive", config["algorithm"])
        yield rep, rep_dir, derive_seed(config["seed"], "replicate", rep), archive, header
        if stage in STAGE_FILES:
            archive_files = (rep_dir / "archive").rglob("*") if stage == "evolve" else ()
            listed = {str(p.relative_to(rep_dir)) for p in archive_files if p.is_file()}
            write_manifest(rep_dir, stage, listed | set(STAGE_FILES[stage]))


def _write_dataclasses(path, header: str, cls, items) -> None:
    """One row per item of dataclass `cls`, one column per field."""
    names = [f.name for f in fields(cls)]
    write_table(path, header, names, ([getattr(item, name) for name in names] for item in items))


def _build_centroids(config: dict, algorithm: str, n_seeds, seed: int) -> np.ndarray | None:
    """CVT of the sdbc or spirit behaviour space, one centroid per archive
    cell; None for the grid-indexed algorithms."""
    if algorithm not in CVT_ALGORITHMS:
        return None
    return generate_cvt_centroids(
        k=ARCHIVE_CAPACITY,
        dim=DESCRIPTOR_DIMS[algorithm],
        n_seeds=int(n_seeds),
        seed=seed,
        simplex_blocks=algorithm == "spirit",
        max_iter=config["cvt.iterations"],
    )


def stage_evolve(config: dict, n_jobs: int = 1, log=print) -> None:
    """Evolve one archive per replicate; writes archive/, stats.csv, events.csv."""
    out = Path(config["out"])
    stored = out / "config.txt"
    # a run directory holds one configuration: resuming under another would
    # stamp the new config.txt over outputs of the old one
    previous = resolve_config(stored.read_text()) if stored.exists() else config
    differ = sorted(key for key in CONFIG_KEYS if key != "out" and previous[key] != config[key])
    if differ:
        raise ConfigError(
            f"{stored} was written for another configuration (it differs in "
            f"{', '.join(differ)}); choose a new --out"
        )
    out.mkdir(parents=True, exist_ok=True)
    stored.write_text(config_text(config))
    for _, rep_dir, rep_seed, _, header in _replicates(config, "evolve", log):
        rep_dir.mkdir(parents=True, exist_ok=True)
        centroids = _build_centroids(
            config, config["algorithm"], config["cvt.seeds"], derive_seed(rep_seed, "cvt")
        )
        evo = EvolutionConfig(
            task=config["task"],
            algorithm=config["algorithm"],
            initial_population=config["evolve.initial_population"],
            generations=config["evolve.generations"],
            evals_per_generation=config["evolve.evals_per_generation"],
            trials=config["evolve.trials"],
            seed=rep_seed,
            trial_duration=config["evolve.trial_duration"],
            centroids=centroids,
            n_jobs=n_jobs,
        )
        result = evolve(evo)
        archive_dir = rep_dir / "archive"
        archive_dir.mkdir(exist_ok=True)
        save_archive(result.archive, archive_dir, header=header)
        _write_dataclasses(rep_dir / "stats.csv", header, GenerationStats, result.stats)
        _write_dataclasses(rep_dir / "events.csv", header, InsertionEvent, result.events)
        log(f"evolve: {rep_dir} coverage={result.archive.coverage}")


def stage_reevaluate(config: dict, n_jobs: int = 1, log=print) -> None:
    """Re-score every elite in the normal operating environment; its (64, 16)
    policy profiles follow `reevaluation.csv`'s key order."""
    for _, rep_dir, rep_seed, archive, header in _replicates(config, "reevaluate", log):
        normal = evaluate_archive(
            archive,
            config["task"],
            fault=None,
            trials=config["reevaluate.trials"],
            seed=derive_seed(rep_seed, "recovery"),
            duration=config["evolve.trial_duration"],
            n_jobs=n_jobs,
        )
        scores = {key: perf for key, (perf, _) in sorted(normal.items())}
        best_key, _ = _argbest(scores)
        mean = float(np.mean(list(scores.values())))
        write_table(rep_dir / "reevaluation.csv", header, ["key", "performance"], scores.items())
        np.save(rep_dir / PROFILES, np.stack([normal[key][1] for key in scores]))
        write_table(
            rep_dir / "reevaluation_summary.csv",
            header,
            ["best_key", "best", "mean"],
            [[best_key, scores[best_key], mean]],
        )
        log(f"reevaluate: {rep_dir} best={scores[best_key]:.4f} mean={mean:.4f}")


# records.csv column -> (RecoveryRecord field, parser of its cell); the
# fault tuple is written joined by ";"
RECORD_COLUMNS = {
    "task": ("task", str),
    "fault_id": ("fault_id", str),
    "fault_codes": ("faults", lambda cell: tuple(cell.split(";"))),
    "impact": ("impact", float),
    "recovered_perf": ("recovered", float),
    "recovered_perf_norm": ("recovered_norm", float),
    "resilience": ("resilience", float),
    "distance": ("distance", float),
    "best_cell_key": ("best_key", int),
}


def _record_row(record: RecoveryRecord) -> list:
    values = (getattr(record, name) for name, _ in RECORD_COLUMNS.values())
    return [";".join(v) if isinstance(v, tuple) else v for v in values]


def _read_reevaluation(config: dict, rep_dir: Path, archive) -> dict:
    """{key: (fault-free score, policy profile)} of every elite of `archive`,
    as the reevaluate stage stored them in `rep_dir`: the stage must be
    complete (`stage_is_complete`), the scores must carry this config's
    hash, and scores and profiles must cover exactly the archive's cells."""
    reevaluation = rep_dir / "reevaluation.csv"
    if not stage_is_complete(rep_dir, "reevaluate"):
        raise FileNotFoundError(
            f"{rep_dir} has no verified reevaluation.csv and {PROFILES}; run the reevaluate stage"
        )
    stored_hash = read_provenance(reevaluation).get("config_hash")
    if stored_hash != config_hash(config):
        raise ConfigError(
            f"{reevaluation} was written under config_hash={stored_hash}, not this "
            f"run's config_hash={config_hash(config)}; rerun reevaluate with this config"
        )
    scores = {int(r["key"]): float(r["performance"]) for r in read_table(reevaluation)}
    profiles = np.load(rep_dir / PROFILES)
    if scores.keys() != archive.cells.keys() or len(profiles) != len(scores):
        raise ConfigError(f"{rep_dir} reevaluated other cells than {rep_dir / 'archive'}")
    return {key: (perf, profile) for (key, perf), profile in zip(scores.items(), profiles)}


def stage_faults(config: dict, n_jobs: int = 1, log=print) -> None:
    """Sample combined faults per replicate and write recovery records.

    The fault-free scores and policy profiles are the replicate's reevaluate
    outputs (see `_read_reevaluation`); only the fault passes are simulated.
    """
    for rep, rep_dir, rep_seed, archive, header in _replicates(config, "faults", log):
        normal = _read_reevaluation(config, rep_dir, archive)
        fault_rng = derive_rng(config["seed"], "faults", rep)
        faults = [
            sample_combined_fault(fault_rng, NORMAL_ENV.n_robots)
            for _ in range(config["faults.count"])
        ]
        fault_ids = [f"{rep:02d}-{i:03d}" for i in range(len(faults))]
        records = fault_recovery_records(
            archive,
            config["task"],
            normal,
            faults,
            trials=config["faults.trials"],
            seed=derive_seed(rep_seed, "recovery"),
            duration=config["evolve.trial_duration"],
            fault_ids=fault_ids,
            n_jobs=n_jobs,
        )
        write_table(rep_dir / "records.csv", header, RECORD_COLUMNS, map(_record_row, records))
        log(f"faults: {rep_dir} wrote {len(records)} records")


def load_records_csv(path):
    """Records plus their provenance (algorithm/task) from one records.csv.

    A file without record rows, without one of the `RECORD_COLUMNS`, with
    a row of more or fewer cells than columns, or with a cell its column
    cannot parse raises ValueError naming it."""
    meta = read_provenance(path)
    rows = list(read_table(path))
    if not rows:
        raise ValueError(f"{path} holds no records")
    missing = [column for column in RECORD_COLUMNS if column not in rows[0]]
    if missing:
        raise ValueError(f"{path} has no column {', '.join(missing)}")
    for row in rows:
        if None in row or None in row.values():
            raise ValueError(f"{path} has a row of another width than its columns")
    records = []
    for row in rows:
        values = {}
        for column, (name, parse) in RECORD_COLUMNS.items():
            try:
                values[name] = parse(row[column])
            except ValueError:
                cell = row[column]
                raise ValueError(f"{path} has an unparsable {column} cell {cell!r}") from None
        records.append(RecoveryRecord(**values))
    return meta.get("algorithm", "unknown"), records


SIGNATURE_PAIRS = (("impact", "resilience"), ("resilience", "distance"), ("impact", "distance"))


def stage_analyze(record_paths, out_dir, header: str = "# qdswarm analyze", log=print) -> None:
    """Signatures per record set plus pairwise statistics across algorithms.
    `out_dir` is made only once every record set has loaded."""
    groups: dict[tuple[str, str], list] = {}
    for path in record_paths:
        algorithm, records = load_records_csv(path)
        key = (records[0].task, algorithm)
        groups.setdefault(key, []).extend(records)
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)

    summary_rows = []
    for (task, algorithm), records in sorted(groups.items()):
        for x_field, y_field in SIGNATURE_PAIRS:
            try:
                sig = signature(records, x_field, y_field)
            except ValueError as exc:  # degenerate tiny record sets
                log(f"analyze: skipping {x_field}/{y_field} for {task}/{algorithm}: {exc}")
                summary_rows.append([task, algorithm, x_field, y_field, "", "", ""])
                continue
            grid_name = f"signature_{x_field}_{y_field}_{task}_{algorithm}.csv"
            # one row per (x, y) grid point, x-major; each axis value is
            # formatted once, not once per row
            xs = [repr(v) for v in sig.x_grid.tolist()]
            ys = [repr(v) for v in sig.y_grid.tolist()]
            write_table(
                out / grid_name,
                header,
                [x_field, y_field, "density"],
                zip([x for x in xs for _ in ys], ys * len(xs), sig.density.ravel().tolist()),
            )
            summary_rows.append(
                [task, algorithm, x_field, y_field, sig.slope, sig.correlation, grid_name]
            )
    write_table(
        out / "signatures.csv",
        header,
        ["task", "algorithm", "x_field", "y_field", "slope", "correlation", "grid_file"],
        summary_rows,
    )

    # pairwise tables only when at least two algorithms share a task
    table_rows = []
    tasks = sorted({task for task, _ in groups})
    for task in tasks:
        algorithms = sorted(alg for t, alg in groups if t == task)
        task_max = max(
            (r.recovered for alg in algorithms for r in groups[(task, alg)]), default=0.0
        )
        for i, alg_a in enumerate(algorithms):
            for alg_b in algorithms[i + 1 :]:
                for metric in ("resilience", "recovered"):
                    a = [getattr(r, metric) for r in groups[(task, alg_a)]]
                    b = [getattr(r, metric) for r in groups[(task, alg_b)]]
                    if metric == "recovered" and task_max > 0:
                        a = [v / task_max for v in a]
                        b = [v / task_max for v in b]
                    result = cliffs_delta(a, b)
                    table_rows.append(
                        [task, metric, alg_a, alg_b, result.p_value, result.delta, result.magnitude]
                    )
    if table_rows:
        write_table(
            out / "stats_tables.csv",
            header,
            ["task", "metric", "algorithm_a", "algorithm_b", "p_value", "cliffs_delta", "magnitude"],
            table_rows,
        )
    log(
        f"analyze: wrote {len(summary_rows)} signatures"
        + (f" and {len(table_rows)} pairwise rows" if table_rows else "")
    )


def _exported_elite(archive, cell: int | None, rep_dir: Path):
    """(key, genome) of the elite at `cell`, or of the best elite when `cell` is None."""
    key = cell
    if key is None:
        key, _ = _argbest({k: elite.performance for k, elite in archive.cells.items()})
    if key not in archive.cells:
        raise ConfigError(f"{rep_dir / 'archive'} has no elite at cell {key}")
    return key, archive.cells[key].genome


def stage_export(config: dict, what: str, cell: int | None = None, log=print) -> None:
    """Debug/export helpers: trial log, descriptors, or a projection of the
    reevaluate stage's policy profiles."""
    projection_centroids = None
    for _, rep_dir, rep_seed, archive, header in _replicates(config, "export", log):
        seed = derive_seed(rep_seed, "export")
        duration = config["evolve.trial_duration"]
        if what == "triallog":
            key, genome = _exported_elite(archive, cell, rep_dir)
            trial = run_trial(NORMAL_ENV, genome, seed=seed, duration=duration)
            cycle, robot = np.divmod(np.arange(trial.n_cycles * trial.n_robots), trial.n_robots)
            poses, commands = trial.poses.reshape(-1, 3).T, trial.commands.reshape(-1, 2).T
            write_table(
                rep_dir / f"trial_cell_{key:05d}.csv",
                header,
                ["cycle", "robot", "x", "y", "heading", "vl", "vr"],
                zip(*(column.tolist() for column in (cycle, robot, *poses, *commands))),
            )
            log(f"export: {rep_dir} trial log for cell {key}")
        elif what == "descriptors":
            key, genome = _exported_elite(archive, cell, rep_dir)
            n = config["reevaluate.trials"]
            logs = run_trials(
                [NORMAL_ENV] * n, [genome] * n, [None] * n, trial_seeds(n, seed), duration
            )
            for kind in DESCRIPTORS:
                values = describe(kind, logs).ravel().tolist()
                write_table(
                    rep_dir / f"descriptor_{kind}_{key:05d}.csv",
                    header,
                    ["kind", "dimension", "value"],
                    ([kind, i, v] for i, v in enumerate(values)),
                )
            log(f"export: {rep_dir} descriptors for cell {key}")
        elif what == "projection":
            normal = _read_reevaluation(config, rep_dir, archive)
            if projection_centroids is None:  # its seed does not depend on the replicate
                projection_centroids = _build_centroids(
                    config,
                    "spirit",
                    AUTO_CVT_SEEDS[config["preset"]]["spirit"],
                    derive_seed(config["seed"], "projection-cvt"),
                )
            projected = project_archive(normal, projection_centroids)
            write_table(
                rep_dir / "projection.csv",
                header,
                ["centroid", "source_key", "performance"],
                ([cid, *projected.cells[cid][:2]] for cid in sorted(projected.cells)),
            )
            write_table(
                rep_dir / "projection_summary.csv",
                header,
                ["coverage", "diversity"],
                [[projected.coverage, projected.diversity]],
            )
            log(
                f"export: {rep_dir} projection coverage={projected.coverage} "
                f"diversity={projected.diversity:.4f}"
            )
        else:
            raise ConfigError(f"unknown export kind {what!r}")
