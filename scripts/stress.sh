#!/usr/bin/env bash
# The loaded-host loop: the suites that have lost acked writes only under
# CPU contention, run over and over beside busy-looping siblings.
#
#   scripts/stress.sh [siblings=3] [runs=50]
#
# Starts `siblings` spinning processes, then runs the `chaos`,
# `tiering_chaos`, `mutation_storm` and `migration_fence` test suites
# `runs` times each (round-robin, so every suite sees the whole session's
# load). A failing run's output is kept and reduced to a signature — the
# failed tests and their panic messages with the numbers blanked — and the
# tally of runs, failures and signatures is printed at the end. Exits 1 if
# anything failed. Writes only under target/stress/.
set -uo pipefail
SIBLINGS="${1:-3}"
RUNS="${2:-50}"
cd "$(dirname "$0")/.."
SUITES=(chaos tiering_chaos mutation_storm migration_fence)
TESTS=()
for s in "${SUITES[@]}"; do TESTS+=(--test "$s"); done
OUT="$PWD/target/stress"
rm -rf "$OUT"
mkdir -p "$OUT"

# Build once, quietly, before the load starts.
cargo test --offline --locked -q --no-run "${TESTS[@]}" || exit 2

pids=()
trap 'kill "${pids[@]}" 2>/dev/null' EXIT
for _ in $(seq 1 "$SIBLINGS"); do
    (while :; do :; done) &
    pids+=($!)
done

for run in $(seq 1 "$RUNS"); do
    for s in "${SUITES[@]}"; do
        log="$OUT/$s.$run.log"
        if cargo test --offline --locked -q --test "$s" >"$log" 2>&1; then
            rm -f "$log"
            echo "run $run $s ok" >&2
        else
            echo "run $run $s FAILED ($log)" >&2
        fi
    done
done

echo "stress: $SIBLINGS spinning siblings, $RUNS runs of each suite, $(nproc) CPUs"
failed=0
for s in "${SUITES[@]}"; do
    n=$(find "$OUT" -name "$s.*.log" | wc -l)
    failed=$((failed + n))
    echo "  $s: $n failed of $RUNS"
done
if [ "$failed" -gt 0 ]; then
    echo "signatures (runs showing each):"
    for log in "$OUT"/*.log; do
        # Failed test names, and the message line under each `panicked at`.
        { grep -E '^---- .* stdout ----$' "$log"; grep -A1 'panicked at' "$log" | grep -v -e 'panicked at' -e '^--$'; } \
            | sed -E 's/[0-9]+/N/g' | sort -u
    done | sort | uniq -c | sort -rn | sed 's/^/  /'
    exit 1
fi
