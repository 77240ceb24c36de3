#!/usr/bin/env bash
# The size number ROADMAP tracks: Rust lines under crates/*/src and src/,
# each file counted up to (not including) its first `#[cfg(test)]` line.
# A ledger, not a gate: prints a per-crate breakdown and the total.
set -euo pipefail
cd "$(dirname "$0")/.."

find crates/*/src src -name '*.rs' -print0 | sort -z | xargs -0 awk '
    FNR == 1 { counting = 1 }
    /#\[cfg\(test\)\]/ { counting = 0 }
    counting {
        split(FILENAME, part, "/")
        crate = (part[1] == "crates") ? part[2] : "(root src)"
        lines[crate]++
        total++
    }
    END {
        for (c in lines) printf "%7d  %s\n", lines[c], c | "sort -k2"
        close("sort -k2")
        printf "%7d  non-test Rust lines (crates/*/src + src/)\n", total
    }'
