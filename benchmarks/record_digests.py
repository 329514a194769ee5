#!/usr/bin/env python3
"""Record the output digests of seed 0 into benchmarks/digests.json.

    python3 benchmarks/record_digests.py

Runs the first operations of every workload for `--seed 0` (config seeds
0, 1, ...) and stores the SHA-256 of each primary output. Rerun it only when
a change is meant to alter the program's outputs, and say so in the change.
"""

import json
import shutil
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR.parent / "src"))
sys.path.insert(0, str(BENCH_DIR))

import run  # noqa: E402

# More operations than a default-length run performs on a 2-core machine.
OPERATIONS = {"evolve-qed": 24, "evolve-spirit": 6, "faults-recovery": 16}


def record(name: str) -> dict:
    workload = run.WORKLOADS[name]
    workdir = run.WORK / f"record-{name}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    digests = {}
    try:
        archives = []
        if workload.kind == "recovery":
            for round_ in range(run.SETUP_ROUNDS):
                setup_dir = workdir / f"setup{round_}"
                setup_dir.mkdir()
                digests[str(round_)] = run.evolve_op(workload, setup_dir, round_, None).digests
                archives.append(setup_dir / "out")
        for index in range(OPERATIONS[name]):
            op_dir = workdir / f"op{index}"
            op_dir.mkdir()
            if workload.kind == "evolve":
                result = run.evolve_op(workload, op_dir, index, None)
            else:
                archive = archives[index % len(archives)]
                result = run.recovery_op(workload, archive, op_dir, index, None)
            if result.failed:
                raise RuntimeError(f"{name} operation {index} failed: {result.messages}")
            digests.setdefault(str(index), {}).update(result.digests)
            shutil.rmtree(op_dir)
            print(f"{name} config seed {index}: recorded", flush=True)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return digests


def main() -> int:
    table = {name: record(name) for name in run.WORKLOADS}
    run.DIGESTS.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
