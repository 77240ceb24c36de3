#!/usr/bin/env bash
# Do two sets of runs of the *same* commit agree within the benchmark's
# own bounds?
#
#   benchmark/agree.sh [N]        (default N = 5; run on an otherwise idle host)
#
# Builds the benchmark once, then runs set 1 and set 2, each N full runs
# (every workload, seeds 1..N), and prints per workload x end-to-end
# metric: both medians, their relative difference, each set's quartile
# spread as a share of its median, the bound from BENCHMARK.json, and
# PASS/FAIL. FAIL = the medians differ by more than the bound, or a
# spread exceeds it. Exits non-zero on any FAIL.
set -euo pipefail
cd "$(dirname "$0")/.."
N="${1:-5}"
OUT="benchmark/out/agree"
rm -rf "$OUT"
mkdir -p "$OUT"

cargo build --release --offline --manifest-path benchmark/Cargo.toml
BIN="${CARGO_TARGET_DIR:-benchmark/target}/release/trinity-benchmark"
SECONDS_PER_RUN="$(python3 -c 'import json; print(json.load(open("BENCHMARK.json"))["run_seconds"])')"
WORKLOADS="$(python3 -c 'import json; print(" ".join(w["name"] for w in json.load(open("BENCHMARK.json"))["workloads"]))')"

for set in 1 2; do
  for seed in $(seq 1 "$N"); do
    for w in $WORKLOADS; do
      echo "set $set seed $seed $w" >&2
      "$BIN" --workload "$w" --seed "$seed" --seconds "$SECONDS_PER_RUN" --trace 0 \
        | tail -n 1 > "$OUT/$set.$seed.$w.json"
    done
  done
done

python3 - "$OUT" "$N" <<'PY'
import json, statistics, sys
out, n = sys.argv[1], int(sys.argv[2])
bench = json.load(open("BENCHMARK.json"))
fails = 0
print(f"| workload | metric | set 1 median | set 2 median | diff | spread 1 | spread 2 | bound | |")
print("|---|---|---:|---:|---:|---:|---:|---:|---|")
for w in (w["name"] for w in bench["workloads"]):
    runs = {s: [json.load(open(f"{out}/{s}.{seed}.{w}.json")) for seed in range(1, n + 1)] for s in (1, 2)}
    for s in (1, 2):
        for r in runs[s]:
            if not r["correct"] or r["failed"]:
                print(f"| {w} | (oracle) | set {s}: {r['failed']} of {r['attempted']} ops failed | | | | | | FAIL |")
                fails += 1
    for m in bench["end_to_end"]:
        name, bound = m["name"], m["bound"]
        med, spread = {}, {}
        for s in (1, 2):
            vals = [r["metrics"][name]["value"] for r in runs[s]]
            med[s] = statistics.median(vals)
            q = statistics.quantiles(vals, n=4) if len(vals) > 1 else [vals[0]] * 3
            spread[s] = (q[2] - q[0]) / med[s] if med[s] else 0.0
        diff = abs(med[2] - med[1]) / med[1] if med[1] else 0.0
        # The set-up time's spread is reported but not judged.
        ok = diff <= bound and (name == "setup_s" or max(spread.values()) <= bound)
        fails += not ok
        print(f"| {w} | {name} | {med[1]:.6g} | {med[2]:.6g} | {diff:.2%} | {spread[1]:.2%} | {spread[2]:.2%} | {bound:.0%} | {'PASS' if ok else 'FAIL'} |")
sys.exit(1 if fails else 0)
PY
