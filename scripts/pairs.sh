#!/usr/bin/env bash
# Interleaved parent/change benchmark pairs, and the table EXPERIMENTS.md
# records for a PR (choosing-metrics §8).
#
#   [CLAIM=<workload>:<metric>] scripts/pairs.sh <parent-bin> <change-bin> \
#       [pairs=10] [seed=7] [workloads…]
#
# Each side is a `trinity-benchmark` executable built once from its tree
# (`cargo build --release --offline --locked --manifest-path
# benchmark/Cargo.toml` with its own CARGO_TARGET_DIR). Odd pairs run the
# parent first, even pairs the change first; `--seconds` comes from
# BENCHMARK.json, tracing is off. Prints, per workload x end-to-end metric:
# each side's median [q1, q3], change vs parent, the bound, pairs won/lost
# (ties count for neither) and failed operations; with CLAIM set, the
# verdict line for that claim: met iff the change won at least 9/10 of the
# pairs, its median is better by more than the parent's quartile distance,
# and no more operations failed than at the parent. A (workload, metric)
# whose change median is worse than the parent's by more than its bound is
# marked REGRESSION, and the script then exits 1. Run on an otherwise
# idle host: the header gives the set's min/max foreign load — the host's
# busy time during a run (/proc/stat, less idle and iowait) minus the
# run's own user+sys CPU, over its wall time, in cores — and says BUSY
# when one reached 0.5 core (a label, not a refusal). Writes only under
# target/pairs/.
set -euo pipefail
[ $# -ge 2 ] || { sed -n '2,7p' "$0" >&2; exit 2; }
PARENT="$(realpath "$1")"
CHANGE="$(realpath "$2")"
PAIRS="${3:-10}"
SEED="${4:-7}"
shift $(($# < 4 ? $# : 4))
cd "$(dirname "$0")/.."
WORKLOADS="$*"
[ -n "$WORKLOADS" ] || WORKLOADS="$(python3 -c 'import json; print(" ".join(w["name"] for w in json.load(open("BENCHMARK.json"))["workloads"]))')"
SECONDS_PER_RUN="$(python3 -c 'import json; print(json.load(open("BENCHMARK.json"))["run_seconds"])')"
OUT="$PWD/target/pairs"
rm -rf "$OUT"
mkdir -p "$OUT"

busy_ticks() { # the host's non-idle clock ticks so far: cpu line less idle, iowait
    awk '/^cpu /{ print $2 + $3 + $4 + $7 + $8 + $9; exit }' /proc/stat
}
run() { # side binary workload pair
    echo "pair $4 $3 $1" >&2
    local before timing
    before="$(busy_ticks)"
    # A failed oracle exits non-zero but still prints its JSON line: keep it.
    # `time` prints the run's wall, user and sys seconds on fd 2, captured
    # here; the benchmark's own stderr goes around it on fd 3.
    timing="$( { TIMEFORMAT='%R %U %S'; time (cd "$OUT" && "$2" --workload "$3" --seed "$SEED" \
        --seconds "$SECONDS_PER_RUN" --trace 0 2>&3 || true) | tail -n 1 > "$OUT/$1.$3.$4.json"; } 3>&2 2>&1 )"
    echo "$timing $before $(busy_ticks)" >> "$OUT/foreign"
}
for w in $WORKLOADS; do
    for pair in $(seq 1 "$PAIRS"); do
        if [ $((pair % 2)) -eq 1 ]; then
            run parent "$PARENT" "$w" "$pair"
            run change "$CHANGE" "$w" "$pair"
        else
            run change "$CHANGE" "$w" "$pair"
            run parent "$PARENT" "$w" "$pair"
        fi
    done
done

python3 - "$OUT" "$PAIRS" "$SEED" "${CLAIM:-}" "$(getconf CLK_TCK)" $WORKLOADS <<'PY'
import json, os, statistics, sys
out, pairs, seed, claim, tick_hz, workloads = sys.argv[1], int(sys.argv[2]), sys.argv[3], sys.argv[4], float(sys.argv[5]), sys.argv[6:]
bench = json.load(open("BENCHMARK.json"))

def fmt(v):
    if abs(v) >= 1000: return f"{v:,.0f}"
    if abs(v) >= 10: return f"{v:.1f}"
    return f"{v:.4f}"

def quartiles(vals):
    if len(vals) < 2: return vals[0], vals[0], vals[0]
    q = statistics.quantiles(vals, n=4)
    return q[0], statistics.median(vals), q[2]

foreign = []  # cores the rest of the host kept busy during each run
for line in open(f"{out}/foreign"):
    wall, user, system, before, after = map(float, line.split())
    foreign.append(((after - before) / tick_hz - user - system) / wall)
busy = " BUSY" if max(foreign) >= 0.5 else ""
print(f"seed {seed}, {pairs} pairs, --seconds {bench['run_seconds']} --trace 0, foreign load "
      f"{min(foreign):.2f}-{max(foreign):.2f} cores during the {len(foreign)} runs on {os.cpu_count()} cores{busy}\n")
print("| workload | metric | parent median [q1, q3] | change median [q1, q3] | change vs parent | bound | pairs won | failed ops p/c |")
print("|---|---|---:|---:|---:|---:|---:|---:|")
verdict, regressions = None, []
for w in workloads:
    runs = {s: [json.load(open(f"{out}/{s}.{w}.{p}.json")) for p in range(1, pairs + 1)] for s in ("parent", "change")}
    failed = {s: sum(r["failed"] for r in runs[s]) for s in runs}
    attempted = sum(r["attempted"] for r in runs["parent"])
    for m in bench["end_to_end"]:
        name, higher = m["name"], m["better"] == "higher"
        vals = {s: [r["metrics"][name]["value"] for r in runs[s]] for s in runs}
        (pq1, pmed, pq3), (cq1, cmed, cq3) = quartiles(vals["parent"]), quartiles(vals["change"])
        better = lambda c, p: c > p if higher else c < p
        won = sum(better(c, p) for p, c in zip(vals["parent"], vals["change"]))
        lost = sum(better(p, c) for p, c in zip(vals["parent"], vals["change"]))
        rel = (cmed - pmed) / pmed if pmed else 0.0
        regressed = (-rel if higher else rel) > m["bound"]
        if regressed:
            regressions.append(f"{w}:{name}")
        print(f"| {w} | {name} | {fmt(pmed)} [{fmt(pq1)}, {fmt(pq3)}] | {fmt(cmed)} [{fmt(cq1)}, {fmt(cq3)}] "
              f"| {rel:+.1%}{' REGRESSION' if regressed else ''} | {m['bound']:.0%} | {won}/{pairs} ({lost} lost) "
              f"| {failed['parent']}/{failed['change']} of {attempted} |")
        if claim == f"{w}:{name}":
            gap, spread = (cmed - pmed if higher else pmed - cmed), pq3 - pq1
            met = won * 10 >= pairs * 9 and gap > spread and failed["change"] <= failed["parent"]
            verdict = (f"claim {claim}: {'MET' if met else 'NOT MET'} — {rel:+.1%} ({fmt(pmed)} -> {fmt(cmed)}), "
                       f"won {won}/{pairs}, median gap {fmt(gap)} vs parent quartile distance {fmt(spread)}, "
                       f"failed ops {failed['parent']}/{failed['change']}")
if claim:
    print("\n" + (verdict or f"claim {claim}: no such workload:metric among the runs"))
if regressions:
    print(f"\nREGRESSION beyond the bound: {', '.join(regressions)}")
    sys.exit(1)
PY
