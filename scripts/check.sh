#!/usr/bin/env bash
# Pre-PR gate: formatting, lints, and the full test suite.
# Usage: scripts/check.sh [extra cargo args]
#
# The gate is hermetic: every external dependency is vendored under
# stubs/ and patched in by the workspace Cargo.toml, so builds resolve
# entirely against the committed Cargo.lock. --offline --locked is
# baked in to guarantee cargo never tries to reach a registry (machines
# without registry access used to die re-resolving on DNS).
set -euo pipefail
cd "$(dirname "$0")/.."

HERMETIC=(--offline --locked)
UNSAFE_MAX=8
ORPHANS_MAX=102

# The gate must leave the working tree exactly as it found it: nothing it
# builds or runs may touch a tracked file or drop an unignored one.
TREE_BEFORE=$(git status --porcelain)

# The artifact the e15_hubs step exports (and metrics_check then validates)
# goes under target/, never over the tracked results/ files: those change
# only when a figure binary is run on purpose.
OUT=target/check
mkdir -p "$OUT"

echo "==> scripts parse (bash -n)"
bash -n scripts/pairs.sh
bash -n scripts/stress.sh
bash -n scripts/orphans.sh

echo "==> unsafe ceiling (scripts/loc.sh's total unsafe sites may not exceed $UNSAFE_MAX)"
# The trunk's raw access is four helpers; widening it is a reviewed change
# of this number, never a side effect.
UNSAFE=$(scripts/loc.sh | awk '/non-test Rust lines/ { print $3 }')
if [ "$UNSAFE" -gt "$UNSAFE_MAX" ]; then
    echo "scripts/loc.sh counts $UNSAFE unsafe sites, more than $UNSAFE_MAX" >&2
    exit 1
fi

echo "==> orphan ceiling (scripts/orphans.sh may list at most $ORPHANS_MAX pub items)"
# Every listed item is kept for a reason EXPERIMENTS.md records; a new
# one is deleted, made private, or added there with this number.
ORPHANS=$(scripts/orphans.sh | tail -n 1 | awk '{ print $1 }')
if [ "$ORPHANS" -gt "$ORPHANS_MAX" ]; then
    echo "scripts/orphans.sh lists $ORPHANS pub items, more than $ORPHANS_MAX" >&2
    exit 1
fi

echo "==> cargo fmt --check"
cargo fmt --all -- --check

echo "==> cargo clippy (warnings denied)"
cargo clippy --workspace --all-targets "${HERMETIC[@]}" "$@" -- -D warnings

echo "==> cargo doc (warnings denied: a dangling intra-doc link fails here)"
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps "${HERMETIC[@]}"

echo "==> cargo test"
cargo test --workspace -q "${HERMETIC[@]}" "$@"

echo "==> AddressSanitizer on memstore and memcloud (LeakSanitizer fails a test binary that leaks)"
# Nightly ships the ASan runtime, so this works offline. Doc-tests do not
# link under it, hence --lib --tests; its own target directory keeps the
# instrumented build apart from the others.
RUSTFLAGS=-Zsanitizer=address CARGO_TARGET_DIR=target/asan \
    cargo +nightly test -q "${HERMETIC[@]}" --target x86_64-unknown-linux-gnu \
    -p trinity-memstore -p trinity-memcloud --lib --tests

echo "==> benchmark/ still builds against crates/ and its oracles pass (its own workspace, so the steps above never compile it)"
# --locked: a crates/ manifest change that would rewrite
# benchmark/Cargo.lock fails here instead of dirtying a file PRs may not touch.
cargo run --release "${HERMETIC[@]}" --manifest-path benchmark/Cargo.toml -- --smoke
cargo test "${HERMETIC[@]}" --manifest-path benchmark/Cargo.toml

echo "==> e13_residency (tiering model: residency table + schedule peak-bytes check)"
cargo run --release -p trinity-bench --bin e13_residency "${HERMETIC[@]}" "$@"

echo "==> e15_hubs at 1/10 scale (BSP routes; exports the bsp.* counters metrics_check requires of a BSP job)"
# Its last line is `shape: PASS` only when the live row equals the route
# model's count for the same route (crates/bench/src/route_model.rs);
# `shape: FAIL` fails the gate.
TRINITY_BENCH_SCALE=0.1 cargo run --release -p trinity-bench --bin e15_hubs "${HERMETIC[@]}" "$@" -- \
    --metrics-out "$OUT/e15_hubs.metrics.json" | tee "$OUT/e15_hubs.txt"
if ! grep -q '^shape: PASS' "$OUT/e15_hubs.txt"; then
    echo "e15_hubs: a live row differs from the route model (see $OUT/e15_hubs.txt)" >&2
    exit 1
fi

echo "==> metrics_check (observability gate: the exported artifact schema-validates)"
cargo run --release -p trinity-bench --bin metrics_check "${HERMETIC[@]}" "$@" -- \
    "$OUT/e15_hubs.metrics.json"

echo "==> bsp determinism and property suites, serial harness + stressed pool width"
# RUST_TEST_THREADS=1 keeps the test harness from adding its own
# parallelism so the worker pool is the only source of threading;
# TRINITY_STRESS_THREADS=8 widens every pool past the trunk count to
# stress the sharded inbox handoff and the per-shard out-lists.
# bsp_receive runs here too, with nothing else on the host's cores: its
# exact byte predictions rest on the hub bases, which need one record per
# fan-out entry per superstep while the fabric's handlers run
# concurrently (it sets its own pool widths, so the variable does not
# widen them).
RUST_TEST_THREADS=1 TRINITY_STRESS_THREADS=8 \
    cargo test -q "${HERMETIC[@]}" "$@" --test bsp_determinism --test bsp_receive
RUST_TEST_THREADS=1 TRINITY_STRESS_THREADS=8 \
    cargo test -q "${HERMETIC[@]}" "$@" -p trinity-core --test bsp_prop

echo "==> working tree unchanged by the gate"
if [ "$(git status --porcelain)" != "$TREE_BEFORE" ]; then
    echo "check.sh changed the working tree:" >&2
    diff <(echo "$TREE_BEFORE") <(git status --porcelain) >&2 || true
    exit 1
fi

echo "==> size ledger (scripts/loc.sh)"
scripts/loc.sh

echo "==> orphan ledger (scripts/orphans.sh; the full list is its output)"
scripts/orphans.sh | tail -n 1

echo "All checks passed."
