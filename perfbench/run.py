#!/usr/bin/env python3
"""E3 repository benchmark: one command, one workload per invocation.

    python3 perfbench/run.py --workload bipedal-cpu --seed 1 --seconds 20 --trace 0

Run from the repository root. It builds the measuring program
(``perfbench/harness``, a Cargo package of its own) and the repository's
``trace_check`` validator into ``$CARGO_TARGET_DIR`` (default
``.bench_build``), runs the workload, and prints a human-readable report
followed by one JSON result line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With ``--trace 0`` the metrics are the ``end_to_end`` metrics of
``BENCHMARK.json``; with ``--trace 1`` they are its ``per_layer``
metrics, taken from a traced run whose Chrome trace ``trace_check``
must accept. The exit code is nonzero when the build fails, the
program's outputs are wrong, or a metric is missing.
"""

import argparse
import json
import math
import os
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORKLOADS = ("bipedal-cpu", "lander-inax", "fleet-serve")


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=("0", "1"))
    parser.add_argument(
        "--size",
        default="full",
        choices=("full", "min"),
        help="min shrinks every workload (for the benchmark's own tests)",
    )
    return parser.parse_args(argv)


def target_dir():
    configured = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    path = Path(configured)
    return path if path.is_absolute() else ROOT / path


def build(target):
    """Builds the harness and trace_check; exits on failure."""
    env = dict(os.environ, CARGO_TARGET_DIR=str(target))
    commands = [
        ["--manifest-path", str(BENCH_DIR / "harness" / "Cargo.toml")],
        ["--manifest-path", str(ROOT / "Cargo.toml"), "-p", "e3-bench", "--bin", "trace_check"],
    ]
    for extra in commands:
        cmd = ["cargo", "build", "--release", "--offline", "--quiet", *extra]
        try:
            done = subprocess.run(cmd, env=env, stdout=sys.stderr, timeout=850)
        except (OSError, subprocess.TimeoutExpired) as err:
            fail(f"build failed: {err}")
        if done.returncode != 0:
            fail(f"build failed: {' '.join(cmd)}")


def run_harness(target, args, out_dir):
    cmd = [
        str(target / "release" / "e3-perfbench"),
        "run",
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", args.trace,
        "--size", args.size,
        "--out", str(out_dir),
    ]
    try:
        done = subprocess.run(
            cmd, stdout=subprocess.PIPE, text=True, timeout=args.seconds * 2 + 90
        )
    except (OSError, subprocess.TimeoutExpired) as err:
        fail(f"harness did not finish: {err}")
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        fail(f"harness exited with {done.returncode}")
    return json.loads(lines[-1])


def check_trace(target, path):
    """trace_check's verdict on the Chrome trace: (ok, message)."""
    cmd = [str(target / "release" / "trace_check"), path]
    done = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
    return done.returncode == 0, done.stdout.strip()


def lookup(report, name):
    """A metric from the report: layer, then end-to-end, then property."""
    for section in ("layer", "e2e", "properties"):
        if name in report[section]:
            return report[section][name]
    return None


def fmt(value):
    return "n/a" if value is None else f"{value:.6g}"


def print_section(title, metrics):
    print(f"-- {title}")
    for name, metric in metrics.items():
        print(f"  {name:32} {fmt(metric['value']):>14} {metric['unit']:8} n={metric['samples']}")


def tracing_overhead(report):
    """Traced minus untraced value of each end-to-end metric."""
    rows = {}
    for name, metric in report["e2e"].items():
        traced = report["properties"].get(f"traced.{name}")
        if traced is not None and metric["value"] is not None:
            rows[name] = (metric["value"], traced["value"], traced["value"] - metric["value"])
    return rows


def main(argv):
    args = parse_args(argv)
    spec_path = ROOT / "BENCHMARK.json"
    try:
        spec = json.loads(spec_path.read_text())
    except (OSError, ValueError) as err:
        fail(f"cannot read {spec_path}: {err}")
    target = target_dir()
    build(target)
    out_dir = BENCH_DIR / "out"
    out_dir.mkdir(exist_ok=True)
    started = time.monotonic()
    report = run_harness(target, args, out_dir)
    trace = args.trace == "1"

    attempted, failed = report["attempted"], report["failed"]
    correct = report["mismatches"] == 0
    failures = list(report["failures"])
    trace_verdict = None
    if trace:
        attempted += 1
        ok, trace_verdict = (False, "no trace written")
        if report["trace_file"]:
            ok, trace_verdict = check_trace(target, report["trace_file"])
        if not ok:
            failed += 1
            correct = False
            failures.append(f"trace_check: {trace_verdict}")

    print(f"== perfbench {args.workload} seed={args.seed} seconds={args.seconds:g} trace={args.trace}"
          f" size={args.size} ({time.monotonic() - started:.1f} s)")
    print("-- host " + " ".join(f"{k}={v}" for k, v in report["host"].items()))
    print(f"-- outcome digest {report['digest']}  attempted={attempted} failed={failed}"
          f" correctness={'ok' if correct else 'MISMATCH'}")
    print_section("end-to-end (untraced)", report["e2e"])
    print_section("workload properties", report["properties"])
    if trace:
        print_section("per-layer (traced)", report["layer"])
        print("-- self time per unit of work (ms)")
        for cat, ms in report["self_ms"].items():
            print(f"  {cat:32} {fmt(ms):>14}")
        print("-- tracing overhead (traced - untraced)")
        for name, (untraced, traced, delta) in tracing_overhead(report).items():
            print(f"  {name:32} {fmt(untraced):>14} -> {fmt(traced):>14}  delta {fmt(delta)}")
        print(f"-- trace {report['trace_file']}: {trace_verdict}")
    for failure in failures:
        print(f"!! {failure}")

    metrics = {}
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    for entry in wanted:
        name = entry["name"]
        found = lookup(report, name) if trace else report["e2e"].get(name)
        if found is None and trace:
            # A layer the workload does not exercise reads zero.
            found = {"value": 0.0}
        if found is None or found["value"] is None or not math.isfinite(found["value"]):
            fail(f"metric {name} was not measured")
        metrics[name] = {"value": found["value"], "unit": entry["unit"]}
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
