#!/usr/bin/env bash
# The size number ROADMAP tracks: Rust lines under crates/*/src and src/,
# each file counted up to (not including) its first `#[cfg(test)]` line,
# and, by the same rule, the `.unwrap()`/`.expect(` calls in those lines
# and the `unsafe` blocks, fns, impls and traits (comment lines excluded).
# A ledger, not a gate: prints a per-crate breakdown and the totals.
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
    # A comment line (doc examples included) calls nothing and opens no
    # unsafe block: it counts toward the lines, not the call counts.
    counting && $0 !~ /^[ \t]*\/\// {
        line = $0
        n = gsub(/\.unwrap\(\)|\.expect\(/, "", line)
        unwraps[crate] += n
        unwrap_total += n
        line = $0
        n = gsub(/(^|[^A-Za-z0-9_])unsafe[ \t]*(\{|fn[ \t]|impl[ \t<]|trait[ \t]|extern[ \t])/, "", line)
        unsafes[crate] += n
        unsafe_total += n
    }
    END {
        printf "%7s  %7s  %7s  %s\n", "lines", "unwraps", "unsafe", "crate"
        for (c in lines) printf "%7d  %7d  %7d  %s\n", lines[c], unwraps[c], unsafes[c], c | "sort -k4"
        close("sort -k4")
        printf "%7d  %7d  %7d  non-test Rust lines, unwrap()/expect( calls and unsafe sites (crates/*/src + src/)\n", total, unwrap_total, unsafe_total
    }'
