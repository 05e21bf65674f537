#!/bin/sh
# Count non-test lines of Rust source: each `.rs` file's lines up to its
# top-level `#[cfg(test)]` module (a `#[cfg(test)]` line at column 0
# followed by a `mod` line), or the whole file when it has none. Nested
# `#[cfg(test)]` items (test-only fields, methods, statements) count.
#
# Usage: scripts/nontest-lines.sh DIR...
# Prints one line per directory and, for several, a total.
set -eu
[ $# -gt 0 ] || { echo "usage: $0 DIR..." >&2; exit 2; }
total=0
for dir in "$@"; do
    n=$(find "$dir" -name '*.rs' -type f -print0 | xargs -0 -r awk '
        FNR == 1 { cut = 0 }
        cut { next }
        pending && /^(pub(\([^)]*\))? )?mod / { cut = 1; pending = 0; next }
        pending { count[FILENAME] += 1; pending = 0 }
        /^#\[cfg\(test\)\]/ { pending = 1; next }
        { count[FILENAME] += 1 }
        END { s = 0; for (f in count) s += count[f]; print s }
    ')
    echo "$n $dir"
    total=$((total + n))
done
[ $# -eq 1 ] || echo "$total total"
