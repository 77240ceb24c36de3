#!/usr/bin/env bash
# The loaded-host loop: the suites that have lost acked writes only under
# CPU contention, run over and over beside busy-looping siblings.
#
#   scripts/stress.sh [siblings=3] [runs=50] [suites…]
#
# Starts `siblings` spinning processes, then runs each suite `runs` times
# (round-robin, so every suite sees the whole session's load). A suite is
# a root integration test (`chaos`) or `<package>` / `<package>:<test>`
# for a crate's own tests (`trinity-net`, `trinity-net:fault_prop`); the
# default is `chaos tiering_chaos trinity-memcloud:tiering mutation_storm
# migration_fence`. Each
# run is cut off after 300 seconds: a hang is a counted failure with the
# signature `timeout`, not a stalled loop. A failing run's output is kept
# and reduced to a signature — the failed tests and their panic messages
# with the numbers blanked — and the tally of runs, failures and
# signatures is printed at the end. Exits 1 if anything failed. Writes
# only under target/stress/.
set -uo pipefail
SIBLINGS="${1:-3}"
RUNS="${2:-50}"
shift $(($# < 2 ? $# : 2))
SUITES=("$@")
[ ${#SUITES[@]} -gt 0 ] || SUITES=(chaos tiering_chaos trinity-memcloud:tiering mutation_storm migration_fence)
TIMEOUT=300
cd "$(dirname "$0")/.."
OUT="$PWD/target/stress"
rm -rf "$OUT"
mkdir -p "$OUT"

suite_args() { # suite -> cargo test target selection
    case "$1" in
        *:*) echo "-p ${1%%:*} --test ${1#*:}" ;;
        trinity-*) echo "-p $1" ;;
        *) echo "--test $1" ;;
    esac
}

# Build once, quietly, before the load starts.
for s in "${SUITES[@]}"; do
    # shellcheck disable=SC2046
    cargo test --offline --locked -q --no-run $(suite_args "$s") || exit 2
done

pids=()
trap 'kill "${pids[@]}" 2>/dev/null' EXIT
for _ in $(seq 1 "$SIBLINGS"); do
    (while :; do :; done) &
    pids+=($!)
done

for run in $(seq 1 "$RUNS"); do
    for s in "${SUITES[@]}"; do
        log="$OUT/$s.$run.log"
        # shellcheck disable=SC2046
        timeout -k 5 "$TIMEOUT" cargo test --offline --locked -q $(suite_args "$s") >"$log" 2>&1
        status=$?
        if [ "$status" -eq 0 ]; then
            rm -f "$log"
            echo "run $run $s ok" >&2
        else
            [ "$status" -ne 124 ] || echo "timeout" >>"$log"
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
        { grep -E '^---- .* stdout ----$' "$log"; grep -x 'timeout' "$log"; grep -A1 'panicked at' "$log" | grep -v -e 'panicked at' -e '^--$'; } \
            | sed -E 's/[0-9]+/N/g' | sort -u
    done | sort | uniq -c | sort -rn | sed 's/^/  /'
    exit 1
fi
