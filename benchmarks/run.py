#!/usr/bin/env python3
"""End-to-end benchmark of the qdswarm pipeline.

    python3 benchmarks/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

Run from the repository root (or anywhere: paths are resolved from this
file). The qdswarm CLI stages run in this process through
`qdswarm.cli.main([...])`, imported from the checkout's `src/`. Set-up is
repeated `SETUP_ROUNDS` times and reported as a median. Operations then
repeat while the next one is expected to end within `--seconds`. Operation i of a run with seed N uses
config seed `N * 1000 + i`, so one seed always gives the same inputs.

Every stage invocation is checked: a nonzero exit, an output whose digest
differs from `digests.json` (stored for seed 0), or a broken invariant
counts it as failed. With `--trace 0` the last stdout line holds the
end-to-end metrics; with `--trace 1` untraced and traced operations
alternate on the same inputs and the last line holds the per-layer metrics
of the traced ones plus the tracing overhead. Spans are written to
`.bench_out/spans-<workload>.npz`.
"""

import argparse
import contextlib
import csv
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
OUT = ROOT / ".bench_out"
DIGESTS = BENCH_DIR / "digests.json"

SETUP_ROUNDS = 3
MIN_OPS = 3  # untraced operations per run, so a median exists


@dataclass(frozen=True)
class Workload:
    config: dict
    threads: int
    # "evolve": each operation runs the evolve stage from scratch.
    # "recovery": each set-up round evolves one archive (config seed
    # N * 1000 + round); operation i runs reevaluate, faults and analyze on a
    # fresh copy of archive i % SETUP_ROUNDS, so a run averages over archives.
    kind: str
    why: str


WORKLOADS = {
    "evolve-qed": Workload(
        config={
            "task": "aggregation",
            "algorithm": "qed",
            "evolve.initial_population": "50",
            "evolve.generations": "5",
            "evolve.evals_per_generation": "10",
            "evolve.trials": "1",
            "evolve.trial_duration": "5.0",
        },
        threads=1,
        kind="evolve",
        why="every evaluation draws a fresh environment, serial: per-cycle sim layers "
        "under mixed N^2 costs, archive writes",
    ),
    "evolve-spirit": Workload(
        config={
            "task": "patrolling",
            "algorithm": "spirit",
            "cvt.seeds": "8192",
            "cvt.iterations": "5",
            "evolve.initial_population": "24",
            "evolve.generations": "2",
            "evolve.evals_per_generation": "8",
            "evolve.trials": "3",
            "evolve.trial_duration": "10.0",
        },
        threads=2,
        kind="evolve",
        why="CVT build, 1024-d lookups, spirit descriptor and patrolling fitness; "
        "3 trials share one environment",
    ),
    "faults-recovery": Workload(
        config={
            "task": "aggregation",
            "algorithm": "qed",
            "evolve.initial_population": "40",
            "evolve.generations": "1",
            "evolve.evals_per_generation": "5",
            "evolve.trials": "1",
            "evolve.trial_duration": "5.0",
            "reevaluate.trials": "2",
            "faults.count": "3",
            "faults.trials": "2",
        },
        threads=2,
        kind="recovery",
        why="archive-read side: reevaluate, fault injection with a pool per fault, "
        "serial descriptor replay, analyze",
    ),
}

# Output file -> the stage that writes it.
OUTPUTS = {
    "rep00/archive/index.csv": "evolve",
    "rep00/stats.csv": "evolve",
    "rep00/events.csv": "evolve",
    "rep00/reevaluation.csv": "reevaluate",
    "rep00/records.csv": "faults",
    "analysis/signatures.csv": "analyze",
}

E2E_UNITS = {"setup_s": "s", "wall_s": "s", "trial_cycles_per_s": "1/s", "peak_rss_mb": "MB"}


# ---------------------------------------------------------------------------
# Host and inputs


def host_info() -> dict:
    import numpy

    cpu = "unknown"
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "commit": git_commit(),
    }


def git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.exists():
        return "unknown"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    target = ROOT / ".git" / ref[5:]
    if target.exists():
        return target.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.exists():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    return "unknown"


def config_text(workload: Workload, overrides: dict | None = None) -> str:
    values = {**workload.config, **(overrides or {})}
    return "".join(f"{key} = {value}\n" for key, value in values.items())


def config_value(text: str, key: str) -> str:
    for line in text.splitlines():
        name, _, value = line.partition("=")
        if name.strip() == key:
            return value.strip()
    raise KeyError(key)


# ---------------------------------------------------------------------------
# Stage invocation and output checks


def run_stage(args: list[str]) -> tuple[int, float, str]:
    """One `qdswarm` CLI invocation in this process: (exit code, seconds, output)."""
    from qdswarm.cli import main

    sink = io.StringIO()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        start = time.perf_counter()
        code = main(args)
        seconds = time.perf_counter() - start
    return code, seconds, sink.getvalue()


def file_digest(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _data_rows(path: Path) -> list[dict]:
    with open(path, encoding="utf-8") as fh:
        return list(csv.DictReader(line for line in fh if not line.startswith("#")))


def check_outputs(out: Path, stages, expected: dict | None, faults_count: int):
    """Digest and invariant checks of the outputs of `stages` in run dir `out`.

    Returns (failed stages, digests, messages). `expected` maps output names
    to digests; None skips the digest comparison (invariants still apply).
    """
    failed, digests, messages = set(), {}, []
    for name, stage in OUTPUTS.items():
        if stage not in stages:
            continue
        path = out / name
        if not path.exists():
            failed.add(stage)
            messages.append(f"{name} missing")
            continue
        digests[name] = file_digest(path)
        if expected is not None and expected.get(name) != digests[name]:
            failed.add(stage)
            messages.append(f"{name} digest differs from the stored one")
    try:
        if "evolve" in stages:
            stats = _data_rows(out / "rep00/stats.csv")
            cells = _data_rows(out / "rep00/archive/index.csv")
            if int(stats[-1]["coverage"]) != len(cells):
                failed.add("evolve")
                messages.append("final stats.csv coverage differs from the archive size")
        if "faults" in stages:
            records = _data_rows(out / "rep00/records.csv")
            if len(records) != faults_count:
                failed.add("faults")
                messages.append(f"{len(records)} records, expected {faults_count}")
            if any(float(r["resilience"]) < float(r["impact"]) for r in records):
                failed.add("faults")
                messages.append("a record has resilience < impact")
    except (OSError, KeyError, ValueError, IndexError) as exc:
        failed.update(stages)
        messages.append(f"unreadable output: {exc}")
    return failed, digests, messages


@dataclass
class OpResult:
    wall: float
    stage_seconds: dict
    attempted: int
    failed: int
    nominal_cycles: int
    digests: dict
    messages: list


def evolve_op(workload: Workload, workdir: Path, config_seed: int, expected, tiny=None) -> OpResult:
    """Run the evolve stage into `workdir/out` and check its outputs."""
    cfg = workdir / "workload.cfg"
    cfg.write_text(config_text(workload, tiny))
    out = workdir / "out"
    code, seconds, log = run_stage(
        ["evolve", "--config", str(cfg), "--out", str(out), "--seed", str(config_seed),
         "--threads", str(workload.threads)]
    )
    failed, digests, messages = set(), {}, []
    if code != 0:
        failed.add("evolve")
        messages.append(f"evolve exited {code}: {log.strip()}")
    else:
        failed, digests, messages = check_outputs(out, {"evolve"}, expected, 0)
    text = cfg.read_text()
    evals = int(config_value(text, "evolve.initial_population")) + int(
        config_value(text, "evolve.generations")
    ) * int(config_value(text, "evolve.evals_per_generation"))
    nominal = evals * int(config_value(text, "evolve.trials")) * cycles_of(text)
    return OpResult(seconds, {"evolve": seconds}, 1, len(failed), nominal, digests, messages)


def cycles_of(text: str) -> int:
    from qdswarm.sim import CONTROL_DT

    return int(round(float(config_value(text, "evolve.trial_duration")) / CONTROL_DT))


def recovery_op(workload: Workload, archive_dir: Path, workdir: Path, config_seed: int,
                expected) -> OpResult:
    out = workdir / "out"
    shutil.copytree(archive_dir, out)
    text = (out / "config.txt").read_text()
    common = ["--out", str(out), "--seed", str(config_seed)]
    threads = ["--threads", str(workload.threads)]
    seconds, failed, messages = {}, set(), []
    for stage, extra in (("reevaluate", threads), ("faults", threads), ("analyze", [])):
        code, seconds[stage], log = run_stage([stage, *common, *extra])
        if code != 0:
            failed.add(stage)
            messages.append(f"{stage} exited {code}: {log.strip()}")
            break
    faults_count = int(config_value(text, "faults.count"))
    checked = {"reevaluate", "faults", "analyze"} - failed
    if not failed:
        failed, digests, more = check_outputs(out, checked, expected, faults_count)
        messages.extend(more)
    else:
        digests = {}
    elites = len(_data_rows(out / "rep00/archive/index.csv"))
    nominal = elites * int(config_value(text, "faults.trials")) * cycles_of(text) * (1 + faults_count)
    return OpResult(sum(seconds.values()), seconds, 3, len(failed), nominal, digests, messages)


# ---------------------------------------------------------------------------
# Measurement


def import_seconds() -> float:
    """Wall time of a fresh interpreter importing the qdswarm CLI."""
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    start = time.perf_counter()
    subprocess.run(
        [sys.executable, "-c", "import qdswarm.cli"], env=env, check=True, cwd=ROOT
    )
    return time.perf_counter() - start


def load_expected(name: str) -> dict:
    if not DIGESTS.exists():
        return {}
    return json.loads(DIGESTS.read_text()).get(name, {})


def peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def measure(name: str, seed: int, seconds: float, trace: bool, tiny: dict | None = None,
            log=print) -> dict:
    """Run one workload; returns the result object printed as the last line."""
    import tracing

    workload = WORKLOADS[name]
    expected_all = {} if tiny else load_expected(name)  # digests hold default sizes only
    workdir = WORK / f"{name}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    attempted = failed = 0
    digest_log = {}

    def expected(config_seed):
        return expected_all.get(str(config_seed))

    def account(result: OpResult, config_seed: int):
        nonlocal attempted, failed
        attempted += result.attempted
        failed += result.failed
        digest_log.setdefault(str(config_seed), {}).update(result.digests)
        for message in result.messages:
            log(f"check failed (config seed {config_seed}): {message}")

    try:
        # Set-up: a fresh interpreter's import plus the workload's own set-up.
        setup_times = []
        archives = []
        for round_ in range(SETUP_ROUNDS):
            elapsed = import_seconds()
            if workload.kind == "recovery":
                config_seed = seed * 1000 + round_
                round_dir = workdir / f"setup{round_}"
                round_dir.mkdir()
                result = evolve_op(workload, round_dir, config_seed, expected(config_seed), tiny)
                account(result, config_seed)
                if not (round_dir / "out" / "rep00" / "archive" / "index.csv").exists():
                    raise RuntimeError(f"set-up evolve failed: {result.messages}")
                elapsed += result.wall
                archives.append(round_dir / "out")
            setup_times.append(elapsed)

        def one_op(index: int, traced: bool):
            config_seed = seed * 1000 + index
            op_dir = workdir / f"op{index}-{int(traced)}"
            op_dir.mkdir()
            tracer = None
            if traced:
                tracer = tracing.Tracer(op=index)
                tracer.install()
            try:
                if workload.kind == "evolve":
                    result = evolve_op(workload, op_dir, config_seed, expected(config_seed), tiny)
                else:
                    archive = archives[index % len(archives)]
                    result = recovery_op(workload, archive, op_dir, config_seed, expected(config_seed))
            finally:
                if tracer is not None:
                    tracer.uninstall()
            account(result, config_seed)
            shutil.rmtree(op_dir)
            return result, tracer

        untraced, traced = [], []
        start = time.perf_counter()
        durations = []
        index = 0
        while True:
            elapsed = time.perf_counter() - start
            enough = len(untraced) >= (1 if trace else MIN_OPS)
            if enough and elapsed + statistics.median(durations) > seconds:
                break
            began = time.perf_counter()
            if trace and index % 2:  # alternate which side of a pair runs first
                traced.append(one_op(index, True))
            untraced.append(one_op(index, False)[0])
            if trace and not index % 2:
                traced.append(one_op(index, True))
            durations.append(time.perf_counter() - began)
            index += 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    walls = [r.wall for r in untraced]
    summary = {
        "setup_s": statistics.median(setup_times),
        "wall_s": statistics.median(walls),
        "trial_cycles_per_s": statistics.median(r.nominal_cycles / r.wall for r in untraced),
        "peak_rss_mb": peak_rss_mb(),
    }
    stage_medians = {
        stage: statistics.median(r.stage_seconds[stage] for r in untraced)
        for stage in untraced[0].stage_seconds
    }
    log(f"host: {json.dumps(host_info(), sort_keys=True)}")
    log(
        f"{name} seed={seed}: " + ", ".join(f"{k}={v:.6g} {E2E_UNITS[k]}" for k, v in summary.items())
        + f" (medians of {len(walls)} operations, {len(setup_times)} set-ups); walls="
        + "/".join(f"{w:.3f}" for w in walls) + "; "
        + ", ".join(f"{k}_s={v:.6g} s" for k, v in stage_medians.items())
        + f"; error_rate={failed / attempted:.6g} ({failed}/{attempted})"
    )
    if str(seed * 1000) not in expected_all:
        for config_seed, digests in sorted(digest_log.items()):
            log(f"digests {name} config_seed={config_seed}: {json.dumps(digests, sort_keys=True)}")

    if not trace:
        metrics = {k: {"value": v, "unit": E2E_UNITS[k]} for k, v in summary.items()}
    else:
        metrics = traced_metrics(name, untraced, traced, log)
    return {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}


def traced_metrics(name: str, untraced, traced, log) -> dict:
    import tracing

    analysed = [tracing.analyse(tracer) for _, tracer in traced]
    metrics = {
        key: {"value": statistics.fmean(m[key] for m, _ in analysed), "unit": unit}
        for key, unit in tracing.LAYER_METRICS.items()
    }
    traced_wall = statistics.median(r.wall for r, _ in traced)
    untraced_wall = statistics.median(r.wall for r in untraced)
    overhead = traced_wall / untraced_wall - 1.0
    metrics["trace.overhead"] = {"value": overhead, "unit": "ratio"}
    for stage in ("reevaluate", "faults"):
        seconds = [r.stage_seconds.get(stage, 0.0) for r in untraced]
        metrics[f"{stage}_s"] = {"value": statistics.median(seconds), "unit": "s"}

    absent = sorted({a for _, t in traced for a in t.absent})
    if absent:
        log(f"absent (reported as 0): {', '.join(absent)}")
    shares = {}
    for _, layers in analysed:
        for layer, seconds in layers.items():
            shares[layer] = shares.get(layer, 0.0) + seconds / len(analysed)
    log(f"{name}: self time per layer as a share of traced wall_s={traced_wall:.4g} s "
        f"(worker time counts per worker, so shares can sum above 1):")
    for layer, seconds in sorted(shares.items(), key=lambda kv: -kv[1]):
        log(f"  {layer:<12} {seconds:10.4f} s  {seconds / traced_wall:7.1%}")
    log(f"{name}: tracing overhead {overhead:+.1%} (traced {traced_wall:.4g} s vs untraced "
        f"{untraced_wall:.4g} s, medians of {len(traced)} pairs on the same inputs)")
    OUT.mkdir(exist_ok=True)
    tracing.write_spans(OUT / f"spans-{name}.npz", [t for _, t in traced])
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "qdswarm" / "cli.py").exists():
        print(f"error: no qdswarm sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(BENCH_DIR))
    result = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
