#!/usr/bin/env bash
# Product code lines per crate (ROADMAP aim 2 tracks this): for every
# crates/*/src/**/*.rs, the non-blank lines that are not `//` comments,
# up to the file's first `#[cfg(test)]`. Tests, benches, examples and
# comments are not counted, so moving code into them is not a reduction.
#
#   scripts/loc.sh            one line per crate, then the total
#   scripts/loc.sh harness    one line per file of that crate as well
set -euo pipefail

repo="$(cd "$(dirname "$0")/.." && pwd)"
cd "$repo"

count() {
    awk '/^[[:space:]]*#\[cfg\(test\)\]/ { exit }
         /^[[:space:]]*$/ || /^[[:space:]]*\/\// { next }
         { n++ }
         END { print n + 0 }' "$1"
}

total=0
for dir in crates/*; do
    crate="$(basename "$dir")"
    [ -d "$dir/src" ] || continue
    sum=0
    while IFS= read -r file; do
        n="$(count "$file")"
        sum=$((sum + n))
        if [ "${1:-}" = "$crate" ]; then
            printf "  %-28s %6d\n" "${file#"$dir/"}" "$n"
        fi
    done < <(find "$dir/src" -name '*.rs' | sort)
    printf '%-30s %6d\n' "$crate" "$sum"
    total=$((total + sum))
done
printf '%-30s %6d\n' "total" "$total"
