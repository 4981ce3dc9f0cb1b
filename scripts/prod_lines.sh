#!/usr/bin/env bash
# Prints production lines per crate: for every `src/**/*.rs` file, the lines
# above its test module (the first `#[cfg(test)]` that is followed by a
# `mod` item), or the whole file when it has none. A `#[cfg(test)]` on a
# `use` or a helper function does not end the count.
#
# Usage: scripts/prod_lines.sh [repo-root]   (defaults to this script's repo)
set -euo pipefail
root="${1:-$(cd "$(dirname "$0")/.." && pwd)}"
cd "$root"

count_dir() {
    find "$1" -name '*.rs' -print0 | sort -z | xargs -0 -r awk '
        FNR == 1 { done = 0; held = 0 }
        done { next }
        held && /^[[:space:]]*(pub(\([a-z]+\))?[[:space:]]+)?mod[[:space:]]/ { done = 1; next }
        held { lines++; held = 0 }
        /^[[:space:]]*#\[cfg\(test\)\][[:space:]]*$/ { held = 1; next }
        { lines++ }
        END { print lines + 0 }'
}

total=0
for src in crates/*/src src vssbench/src; do
    [ -d "$src" ] || continue
    case "$src" in crates/shims/*) continue ;; esac
    crate="${src%/src}"
    crate="${crate##*/}"
    [ "$src" = src ] && crate="vss (facade)"
    lines=$(count_dir "$src")
    printf '%-14s %6d\n' "$crate" "$lines"
    case "$src" in vssbench/*) ;; *) total=$((total + lines)) ;; esac
done
printf '%-14s %6d\n' "workspace" "$total"
