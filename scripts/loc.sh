#!/usr/bin/env bash
# Product code lines per crate (ROADMAP aim 2 tracks this): for every
# crates/*/src/**/*.rs, the non-blank lines that are not `//` comments,
# up to the file's `#[cfg(test)]` module. A `#[cfg(test)]` item before it
# (a `fn`, `use`, `impl`, ...) is skipped up to its closing `}` or `;`,
# and counting resumes after it. Tests, benches, examples and comments
# are not counted, so moving code into them is not a reduction.
#
#   scripts/loc.sh            one line per crate, then the total
#   scripts/loc.sh harness    one line per file of that crate as well
set -euo pipefail

repo="$(cd "$(dirname "$0")/.." && pwd)"
cd "$repo"

# States: 0 counting; 1 after `#[cfg(test)]`, before its item (further
# attributes, blank and comment lines); 2 inside a skipped test-only item.
# `net` counts brackets outside one-line string and char literals.
count() {
    awk 'function net(s, o, c) {
             gsub(/"([^"\\]|\\.)*"/, "", s); gsub(/\x27([^\x27\\]|\\.)\x27/, "", s)
             return gsub(o, "", s) - gsub(c, "", s)
         }
         state == 0 && /^[[:space:]]*#\[cfg\(test\)\]/ {
             state = 1; attr = 0
             sub(/^[[:space:]]*#\[cfg\(test\)\][[:space:]]*/, "")
         }
         state == 1 {
             if (attr > 0 || /^[[:space:]]*#\[/) { attr += net($0, "\\[", "\\]"); next }
             if (/^[[:space:]]*$/ || /^[[:space:]]*\/\//) next
             if (/^[[:space:]]*(pub(\([^)]*\))?[[:space:]]+)?mod[[:space:]][^;]*\{/) exit
             state = 2; depth = 0; opened = 0
         }
         state == 2 {
             depth += net($0, "\\{", "\\}")
             if (index($0, "{")) opened = 1
             if (opened ? depth <= 0 : /;/) state = 0
             next
         }
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
