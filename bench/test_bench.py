"""Tests of the benchmark itself, at smoke size.

    python3 -m unittest discover -s bench -p "test_*.py"
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
import unittest
from pathlib import Path

from layers import PER_LAYER
from run import WORK, WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "bench/run.py", *args], cwd=cwd, capture_output=True, text=True, timeout=180
    )


class SmokeTest(unittest.TestCase):
    def check_result(self, proc: subprocess.CompletedProcess, spec_key: str) -> dict:
        self.assertEqual(proc.returncode, 0, proc.stderr)
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(result["correct"], proc.stdout)
        self.assertEqual(result["failed"], 0)
        self.assertGreaterEqual(result["attempted"], 1)
        want = {m["name"]: m["unit"] for m in SPEC[spec_key]}
        self.assertEqual({k: v["unit"] for k, v in result["metrics"].items()}, want)
        for name, metric in result["metrics"].items():
            self.assertTrue(math.isfinite(metric["value"]), name)
        return result

    def test_untraced_reports_every_end_to_end_metric(self):
        for workload in sorted(WORKLOADS):
            with self.subTest(workload=workload):
                proc = bench(ROOT, "--workload", workload, "--seed", "5", "--seconds", "1", "--trace", "0", "--smoke")
                result = self.check_result(proc, "end_to_end")
                for name, metric in result["metrics"].items():
                    self.assertGreater(metric["value"], 0, name)

    def test_traced_run_reports_every_layer_and_its_overhead(self):
        proc = bench(ROOT, "--workload", "hot_write", "--seed", "5", "--seconds", "1", "--trace", "1", "--smoke")
        result = self.check_result(proc, "per_layer")
        metrics = result["metrics"]
        self.assertGreater(metrics["backup.replay_block_samples"]["value"], 0)
        self.assertGreater(metrics["trace_overhead.run-backup"]["value"], 0)
        self.assertIn("traced", proc.stdout)

    def test_same_seed_gives_same_simulated_totals(self):
        args = ("--workload", "default", "--seed", "6", "--seconds", "1", "--trace", "0", "--smoke")
        first = json.loads(bench(ROOT, *args).stdout.strip().splitlines()[-1])["metrics"]
        second = bench(ROOT, *args)
        self.assertNotIn("FLAG", second.stdout)
        again = json.loads(second.stdout.strip().splitlines()[-1])["metrics"]
        for name in ("sim_speedup", "sim_speedup_p50", "hint_bytes_per_block"):
            self.assertEqual(first[name], again[name])

    def test_fails_without_the_program_sources(self):
        bare = WORK / "bare-checkout"
        shutil.rmtree(bare, ignore_errors=True)
        bare.mkdir(parents=True)
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        for path in SPEC["paths"]:
            shutil.copytree(ROOT / path, bare / path, ignore=shutil.ignore_patterns("__pycache__"))
        proc = bench(bare, "--workload", "default", "--seed", "1", "--seconds", "1", "--trace", "0")
        shutil.rmtree(bare)
        self.assertNotEqual(proc.returncode, 0)
        self.assertNotIn('"correct"', proc.stdout)


class SpecTest(unittest.TestCase):
    def test_per_layer_list_matches_the_report(self):
        self.assertEqual([(m["name"], m["unit"], m["better"]) for m in SPEC["per_layer"]], PER_LAYER)

    def test_workloads_match(self):
        self.assertEqual(sorted(w["name"] for w in SPEC["workloads"]), sorted(WORKLOADS))


if __name__ == "__main__":
    unittest.main()
