"""Tests of the benchmark itself, at minimum size.

Run from the repository root:

    python3 -m unittest discover -s perfbench/tests -v
"""

import json
import math
import re
import subprocess
import sys
import unittest
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def bench(workload, seed, trace):
    """Runs the benchmark at minimum size; returns (stdout lines, exit code)."""
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", str(trace), "--size", "min"],
        cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=600,
    )
    return done.stdout.strip().splitlines(), done.returncode


def digest(lines):
    for line in lines:
        match = re.search(r"outcome digest ([0-9a-f]{16})", line)
        if match:
            return match.group(1)
    raise AssertionError("no digest printed")


class SpecTest(unittest.TestCase):
    def test_benchmark_json_shape(self):
        self.assertEqual(
            set(SPEC), {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"})
        self.assertIn(SPEC["run_seconds"], range(1, 61))
        names = [w["name"] for w in SPEC["workloads"]]
        names += [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
        self.assertEqual(len(names), len(set(names)), "every name is used once")
        for name in names:
            self.assertRegex(name, NAME)
        for workload in SPEC["workloads"]:
            self.assertEqual(set(workload), {"name", "why"})
            self.assertLessEqual(len(workload["why"]), 200)
        for metric in SPEC["end_to_end"]:
            self.assertEqual(set(metric), {"name", "unit", "better", "bound"})
            self.assertLessEqual(metric["bound"], 0.25)
        for metric in SPEC["per_layer"]:
            self.assertEqual(set(metric), {"name", "unit", "better"})
        for metric in SPEC["end_to_end"] + SPEC["per_layer"]:
            self.assertRegex(metric["unit"], UNIT)
            self.assertIn(metric["better"], ("higher", "lower"))
        setup = [m for m in SPEC["end_to_end"] if m["name"] == "setup_s"]
        self.assertEqual(setup[0]["unit"], "s")
        self.assertEqual(setup[0]["better"], "lower")
        self.assertEqual(setup[0]["bound"], max(m["bound"] for m in SPEC["end_to_end"]))


class MinimumSizeTest(unittest.TestCase):
    def check_result(self, lines, code, wanted):
        self.assertEqual(code, 0, "\n".join(lines))
        result = json.loads(lines[-1])
        self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(result["correct"])
        self.assertEqual(result["failed"], 0)
        self.assertGreaterEqual(result["attempted"], 1)
        self.assertEqual(set(result["metrics"]), {m["name"] for m in wanted})
        for entry in wanted:
            metric = result["metrics"][entry["name"]]
            self.assertEqual(metric["unit"], entry["unit"])
            self.assertTrue(math.isfinite(metric["value"]), entry["name"])
        return result

    def test_every_metric_is_printed_with_a_unit_and_finite(self):
        for workload in (w["name"] for w in SPEC["workloads"]):
            with self.subTest(workload=workload):
                lines, code = bench(workload, 5, 0)
                result = self.check_result(lines, code, SPEC["end_to_end"])
                for entry in SPEC["end_to_end"]:
                    self.assertGreater(result["metrics"][entry["name"]]["value"], 0, entry["name"])
                lines, code = bench(workload, 5, 1)
                self.check_result(lines, code, SPEC["per_layer"])
                self.assertTrue(any("trace_check" not in l and ".trace.json: " in l for l in lines))

    def test_same_seed_gives_identical_digests(self):
        for workload in (w["name"] for w in SPEC["workloads"]):
            with self.subTest(workload=workload):
                first, _ = bench(workload, 9, 0)
                second, _ = bench(workload, 9, 0)
                other, _ = bench(workload, 10, 0)
                self.assertEqual(digest(first), digest(second))
                self.assertNotEqual(digest(first), digest(other))


if __name__ == "__main__":
    unittest.main()
