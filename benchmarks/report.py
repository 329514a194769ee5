#!/usr/bin/env python3
"""Run every workload untraced and traced and print all metrics.

    python3 benchmarks/report.py [--seed N] [--seconds S]

Each run is a fresh `benchmarks/run.py` process. The report shows, per
workload, every end-to-end metric with its unit, the error rate, the
per-layer metrics and self-time shares of the traced run, and the tracing
overhead. Exits nonzero if any run fails or reports incorrect outputs.
"""

import argparse
import json
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR))

from run import WORKLOADS  # noqa: E402


def run_once(workload: str, seed: int, seconds: float, trace: int) -> tuple[list[str], dict]:
    proc = subprocess.run(
        [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, check=True,
    )
    lines = proc.stdout.strip().splitlines()
    return lines[:-1], json.loads(lines[-1])


def main() -> int:
    spec = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    args = parser.parse_args()
    ok = True
    for workload in WORKLOADS:
        for trace in (0, 1):
            lines, result = run_once(workload, args.seed, args.seconds, trace)
            ok &= result["correct"]
            print(f"== {workload} --trace {trace}: correct={result['correct']} "
                  f"attempted={result['attempted']} failed={result['failed']} "
                  f"error_rate={result['failed'] / result['attempted']:.6g}")
            for line in lines:
                if not line.startswith(("digests ", "host: ")) or trace == 0:
                    print(f"   {line}")
            for name, metric in result["metrics"].items():
                print(f"   {name:<34} {metric['value']:>14.6g} {metric['unit']}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
