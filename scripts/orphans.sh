#!/usr/bin/env bash
# The orphan ledger: every `pub` fn, struct, enum, trait, const and type
# declared under crates/*/src that no non-test code outside its own file
# names. Non-test code is crates/*/src, src/, examples/ and benchmark/src,
# each file read up to (not including) its first `#[cfg(test)]` line (the
# rule of scripts/loc.sh). Comments do not name anything, and neither does
# a `pub use` re-export, so an item only a crate root re-exports is listed.
# An entry is dead or public for no reason. A ledger, not a gate: TSL's
# accessor getters are public API by design.
# Prints `file:line kind name` per entry, then the count line.
set -euo pipefail
cd "$(dirname "$0")/.."

find crates/*/src src examples benchmark/src -name '*.rs' -print0 | sort -z | xargs -0 awk '
    FNR == 1 { counting = 1; reexport = 0 }
    /#\[cfg\(test\)\]/ { counting = 0 }
    !counting { next }
    {
        line = $0
        sub(/\/\/.*/, "", line)
    }
    # A declaration: remember it, then let its own line name it (its own
    # file is discounted below anyway).
    FILENAME ~ /^crates\/[^\/]+\/src\// &&
    match(line, /^[ \t]*pub[ \t]+((const|async|unsafe)[ \t]+)*(fn|struct|enum|trait|const|type)[ \t]+[A-Za-z_][A-Za-z0-9_]*/) {
        n = split(substr(line, RSTART, RLENGTH), word, /[ \t]+/)
        decls++
        name[decls] = word[n]
        kind[decls] = word[n - 1]
        where[decls] = FILENAME ":" FNR
        file[decls] = FILENAME
    }
    # A `pub use` (possibly spanning lines up to its `;`) names nothing.
    line ~ /^[ \t]*pub[ \t]+use[ \t]/ { reexport = 1 }
    reexport {
        if (line ~ /;/) reexport = 0
        next
    }
    {
        while (match(line, /[A-Za-z_][A-Za-z0-9_]*/)) {
            tok = substr(line, RSTART, RLENGTH)
            line = substr(line, RSTART + RLENGTH)
            if (!((tok, FILENAME) in seen)) {
                seen[tok, FILENAME] = 1
                files[tok]++
            }
        }
    }
    END {
        for (i = 1; i <= decls; i++) {
            elsewhere = files[name[i]] - (((name[i], file[i]) in seen) ? 1 : 0)
            if (elsewhere == 0) {
                printf "%s  %s %s\n", where[i], kind[i], name[i]
                orphans++
            }
        }
        printf "%7d  pub items no non-test code outside their own file names (crates/*/src)\n", orphans
    }'
