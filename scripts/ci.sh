#!/usr/bin/env bash
# Tier-1 gate plus lint/format checks. Run from the repo root.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== tier-1: release build =="
cargo build --release --offline

echo "== tier-1: test suite =="
cargo test -q --offline

echo "== workspace test suite =="
# The tier-1 run above covers only the root package; the member
# crates' own tests (backend parity, telemetry parity, the scenario
# golden fixtures, exec parity, ...) run here.
cargo test -q --offline --workspace

echo "== benchmark harness: builds and passes against the current crate APIs =="
# The perfbench harness is a separate cargo project that links the
# workspace crates; a crate API change that breaks it fails here rather
# than in the benchmark run.
CARGO_TARGET_DIR=.bench_build cargo test -q --offline --manifest-path perfbench/harness/Cargo.toml

echo "== examples build =="
cargo build --release --offline --examples

echo "== exec determinism: parity at 1 and 4 worker threads =="
# The exec_parity property test (in the workspace suite above) covers
# 2/4/8 threads internally; the repro binary re-checks end-to-end that
# --threads does not change results.
out1=$(cargo run --release --offline -q -p e3-bench --bin repro -- run --env cartpole --backend cpu --threads 1 --json)
out4=$(cargo run --release --offline -q -p e3-bench --bin repro -- run --env cartpole --backend cpu --threads 4 --json)
if [ "$out1" != "$out4" ]; then
    echo "error: repro run differs between --threads 1 and --threads 4" >&2
    exit 1
fi

echo "== plan executor: parity vs legacy reference, threads 1 and 4 =="
# `repro plan` times the CSR NetPlan executor against the preserved
# per-node reference (bit-identical outputs required), then re-runs the
# seeded CartPole/LunarLander repro end to end at 1 and 4 worker
# threads; the binary exits nonzero if any output or fitness bit
# differs. Results land in BENCH_plan.json.
cargo run --release --offline -q -p e3-bench --bin repro -- plan >/dev/null

echo "== jit: tiered native execution, interpreter-oracle parity gate =="
# `repro jit` microbenchmarks the e3-jit x86-64 tier against the
# NetPlan interpreter on evolved genomes (bit-identical outputs
# required, >=1.3x ns/activate on hot plans), then re-runs the seeded
# repro end to end with the tier off and on at 1 and 4 worker threads;
# outcomes must match bit for bit. On non-x86-64 hosts this is NOT a
# skip: the binary asserts the fallback engaged (compile attempts
# counted, zero plans compiled, zero native activations) and that
# parity still holds, and the speedup gate is waived. Results land in
# BENCH_jit.json.
cargo run --release --offline -q -p e3-bench --bin repro -- jit >/dev/null

echo "== islands: archipelago sweep, parity/determinism gates, daemon smoke =="
# `repro islands` sweeps island count x migration interval, gates
# single-island parity against a plain platform run, determinism across
# driver counts and pickup orders, and the run-manager daemon lifecycle
# (start, submit, stream one generation's records, graceful shutdown);
# the binary exits nonzero on any gate failure. Results land in
# BENCH_islands.json.
cargo run --release --offline -q -p e3-bench --bin repro -- islands >/dev/null

echo "== observability: traced run exports valid artifacts =="
# A short traced run must produce Perfetto-loadable trace JSON
# (well-formed, non-empty, monotonic span end times) and a parseable
# Prometheus metrics dump; trace_check exits nonzero otherwise.
trace_tmp=$(mktemp -d)
trap 'rm -rf "$trace_tmp"' EXIT
cargo run --release --offline -q -p e3-bench --bin repro -- \
    run --env cartpole --trace "$trace_tmp/trace.json" \
    --metrics "$trace_tmp/metrics.prom" >/dev/null
cargo run --release --offline -q -p e3-bench --bin trace_check -- \
    "$trace_tmp/trace.json" "$trace_tmp/metrics.prom"
# A jit-enabled run must export the full e3_jit_* series set (counters,
# resident gauge, compile-time histogram) and well-formed Jit telemetry
# records; trace_check rejects a partial series set or malformed
# records. MountainCar never solves at quick scale, so promotions are
# guaranteed at threshold 1.
cargo run --release --offline -q -p e3-bench --bin repro -- \
    run --env mountain_car --backend cpu --jit --jit-threshold 1 \
    --telemetry "$trace_tmp/jit.ndjson" \
    --metrics "$trace_tmp/jit_metrics.prom" >/dev/null
cargo run --release --offline -q -p e3-bench --bin trace_check -- \
    --metrics "$trace_tmp/jit_metrics.prom"
cargo run --release --offline -q -p e3-bench --bin trace_check -- \
    --ndjson "$trace_tmp/jit.ndjson"
if [ "$(uname -m)" = "x86_64" ] && ! grep -q '^e3_jit_plans_compiled_total' "$trace_tmp/jit_metrics.prom"; then
    echo "error: jit-enabled run exported no e3_jit_* metrics" >&2
    exit 1
fi

echo "== serve: HTTP observability plane is inert, live scrape validates =="
# `repro serve` mounts the HTTP server on a live run manager, hits
# /healthz, /runs, /runs/{id}, and the NDJSON event stream, scrapes
# /metrics mid-flight, and exits nonzero unless the served run's final
# populations and telemetry are bit-identical to a server-less run.
# The saved final scrape must then parse as Prometheus text exposition.
cargo run --release --offline -q -p e3-bench --bin repro -- \
    serve --scrape-out "$trace_tmp/scrape.prom" >/dev/null
cargo run --release --offline -q -p e3-bench --bin trace_check -- \
    --metrics "$trace_tmp/scrape.prom"

echo "== generalize: scenario distributions, held-out gap, determinism gate =="
# `repro generalize` evolves on a sampled scenario distribution at
# K ∈ {1,4,8} scenarios per evaluation, scores each champion on a
# held-out shifted distribution, and exits nonzero unless every
# configuration reproduces bit-identically across worker-thread counts
# and emits one Generalization record per generation. Results land in
# BENCH_generalize.json; the NDJSON telemetry (including the new
# Generalization records) must then validate against the pinned wire
# format.
cargo run --release --offline -q -p e3-bench --bin repro -- \
    generalize --telemetry "$trace_tmp/generalize.ndjson" >/dev/null
cargo run --release --offline -q -p e3-bench --bin trace_check -- \
    --ndjson "$trace_tmp/generalize.ndjson"
if ! grep -q '"Generalization"' "$trace_tmp/generalize.ndjson"; then
    echo "error: generalize telemetry carries no Generalization records" >&2
    exit 1
fi

echo "== crash-safe store: kill-and-resume reproduces the uninterrupted run =="
# A seeded CartPole run is checkpointed every generation and killed
# after two; resuming from the newest intact snapshot must produce the
# exact RunOutcome JSON of the uninterrupted reference run
# (bit-identical resume contract, see crates/store).
store_dir="$trace_tmp/store"
ref=$(cargo run --release --offline -q -p e3-bench --bin repro -- \
    run --env cartpole --backend inax --seed 7 --json)
cargo run --release --offline -q -p e3-bench --bin repro -- \
    run --env cartpole --backend inax --seed 7 \
    --checkpoint-dir "$store_dir" --crash-after 2 >/dev/null
resumed=$(cargo run --release --offline -q -p e3-bench --bin repro -- \
    run --env cartpole --backend inax --seed 7 \
    --checkpoint-dir "$store_dir" --resume --json)
if [ "$ref" != "$resumed" ]; then
    echo "error: resumed run diverged from the uninterrupted reference" >&2
    exit 1
fi

echo "== clippy (warnings are errors) =="
cargo clippy --offline --workspace --all-targets -- -D warnings

echo "== rustfmt =="
cargo fmt --check

echo "ci: all checks passed"
