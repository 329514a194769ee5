#!/usr/bin/env python3
"""Self-test of the benchmark at tiny sizes.

    python3 benchmarks/selftest.py

Runs every workload untraced and traced at a tiny size and checks that each
metric named in BENCHMARK.json is emitted with its unit, that one flipped
byte in records.csv counts as a failed stage invocation, and that the
benchmark fails without printing a result when the program sources are
missing.
"""

import json
import shutil
import subprocess
import sys
import unittest
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(BENCH_DIR))

import run  # noqa: E402

SHORT = {"evolve.trial_duration": "1.0"}
TINY = {
    "evolve-qed": {
        **SHORT,
        "evolve.initial_population": "4",
        "evolve.generations": "1",
        "evolve.evals_per_generation": "2",
    },
    "evolve-spirit": {
        **SHORT,
        "cvt.seeds": "4096",
        "cvt.iterations": "1",
        "evolve.initial_population": "3",
        "evolve.generations": "1",
        "evolve.evals_per_generation": "2",
    },
    "faults-recovery": {
        **SHORT,
        "evolve.initial_population": "6",
        "reevaluate.trials": "1",
        "faults.count": "2",
        "faults.trials": "1",
    },
}


def declared(section: str) -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[section]}


class MetricsEmitted(unittest.TestCase):
    def test_every_workload_emits_every_metric_with_its_unit(self):
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        self.assertEqual({w["name"] for w in spec["workloads"]}, set(run.WORKLOADS))
        for name in run.WORKLOADS:
            for trace, section in ((False, "end_to_end"), (True, "per_layer")):
                with self.subTest(workload=name, trace=trace):
                    result = run.measure(name, 7, 0.1, trace, tiny=TINY[name], log=lambda _: None)
                    self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
                    self.assertTrue(result["correct"])
                    self.assertGreaterEqual(result["attempted"], 1)
                    emitted = {k: v["unit"] for k, v in result["metrics"].items()}
                    self.assertEqual(emitted, declared(section))


class FlippedByte(unittest.TestCase):
    def test_flipped_byte_in_records_fails_the_faults_stage(self):
        workload = run.WORKLOADS["faults-recovery"]
        workdir = run.WORK / "selftest-flip"
        shutil.rmtree(workdir, ignore_errors=True)
        (workdir / "setup").mkdir(parents=True)
        (workdir / "op").mkdir()
        try:
            run.evolve_op(workload, workdir / "setup", 5, None, TINY["faults-recovery"])
            clean = run.recovery_op(workload, workdir / "setup" / "out", workdir / "op", 5, None)
            self.assertEqual(clean.failed, 0)
            out = workdir / "op" / "out"
            stages = {"reevaluate", "faults", "analyze"}
            self.assertEqual(run.check_outputs(out, stages, clean.digests, 2)[0], set())

            records = out / "rep00" / "records.csv"
            data = bytearray(records.read_bytes())
            data[-3] ^= 0x01  # last digit of the final record's cell key (before \r\n)
            records.write_bytes(bytes(data))
            failed, _, messages = run.check_outputs(out, stages, clean.digests, 2)
            self.assertEqual(failed, {"faults"}, messages)
        finally:
            shutil.rmtree(workdir, ignore_errors=True)


class MissingSources(unittest.TestCase):
    def test_fails_without_result_when_sources_are_missing(self):
        bare = run.WORK / "selftest-bare"
        shutil.rmtree(bare, ignore_errors=True)
        bare.mkdir(parents=True)
        try:
            shutil.copy(ROOT / "BENCHMARK.json", bare)
            shutil.copytree(BENCH_DIR, bare / BENCH_DIR.name, ignore=shutil.ignore_patterns("__pycache__"))
            proc = subprocess.run(
                [sys.executable, f"{BENCH_DIR.name}/run.py", "--workload", "evolve-qed",
                 "--seed", "1", "--seconds", "1", "--trace", "0"],
                cwd=bare, capture_output=True, text=True, timeout=180,
            )
            self.assertNotEqual(proc.returncode, 0)
            self.assertNotIn('"metrics"', proc.stdout)
        finally:
            shutil.rmtree(bare, ignore_errors=True)


if __name__ == "__main__":
    unittest.main()
