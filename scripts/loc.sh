#!/usr/bin/env bash
# Non-test, non-blank lines of Rust per crate: what a diet change counts.
#
#   scripts/loc.sh [file.rs ...]
#
# With no arguments, prints one row per crate under crates/ (its `src` plus
# `benches`), the total, and the `core` + `harness` sum against the size
# target ROADMAP.md item 3 states in these lines (<= 11 100), beside the
# same two crates' all-lines count (tests and blank lines included, as
# `wc -l` gives it). With files, prints the count of each and their sum.
#
# Counted: every non-blank line, comments included. Not counted: a
# `#[cfg(test)] mod name { ... }` block (it ends at the first `}` line at the
# indentation of its `mod` line, which rustfmt guarantees), the file of a
# `#[cfg(test)] mod name;`, and everything under `tests/`. A `#[cfg(test)]`
# item outside such a block (a test-only fn or statement) is counted.
set -euo pipefail
cd "$(dirname "$0")/.."

mapfile -t all_rs < <(find crates -name '*.rs' -not -path '*/target/*' | sort)

# Files that a `#[cfg(test)] mod name;` declares: `dir/name.rs` beside a
# lib.rs / main.rs / mod.rs, `dir/stem/name.rs` beside any other `stem.rs`.
test_module_files=$(awk '
    FNR == 1 { pend = 0 }
    /^[ \t]*#\[cfg\(test\)\][ \t]*$/ { pend = 1; next }
    pend && /^[ \t]*(pub(\([a-z]+\))? )?mod [A-Za-z0-9_]+;/ {
        name = $0
        sub(/^[ \t]*(pub(\([a-z]+\))? )?mod /, "", name)
        sub(/;.*/, "", name)
        dir = FILENAME; sub(/\/[^\/]*$/, "", dir)
        stem = FILENAME; sub(/^.*\//, "", stem); sub(/\.rs$/, "", stem)
        if (stem == "lib" || stem == "main" || stem == "mod") print dir "/" name ".rs"
        else print dir "/" stem "/" name ".rs"
    }
    { pend = 0 }
' "${all_rs[@]}" | tr '\n' ' ')

# Count the non-test, non-blank lines of the given files.
count() {
    awk -v skip=" $test_module_files" '
        FNR == 1 { block = 0; pend = 0; excluded = index(skip, " " FILENAME " ") > 0 }
        excluded { next }
        block { if ($0 == indent "}") block = 0; next }
        /^[ \t]*#\[cfg\(test\)\][ \t]*$/ { pend = 1; next }
        pend && /^[ \t]*(pub(\([a-z]+\))? )?mod [A-Za-z0-9_]+ \{/ {
            match($0, /^[ \t]*/); indent = substr($0, 1, RLENGTH); block = 1; pend = 0; next
        }
        pend { pend = 0; n++ }
        NF { n++ }
        END { print n + 0 }
    ' "$@"
}

if [ $# -gt 0 ]; then
    sum=0
    for f in "$@"; do
        n=$(count "${f#./}")
        printf '%7d  %s\n' "$n" "$f"
        sum=$((sum + n))
    done
    printf '%7d  total\n' "$sum"
    exit 0
fi

total=0
declare -A per
for dir in crates/*/; do
    crate=$(basename "$dir")
    mapfile -t files < <(printf '%s\n' "${all_rs[@]}" | grep -E "^crates/$crate/(src|benches)/")
    [ ${#files[@]} -eq 0 ] && continue
    n=$(count "${files[@]}")
    per[$crate]=$n
    total=$((total + n))
    printf '%7d  %s\n' "$n" "$crate"
done
printf '%7d  total\n' "$total"
all_lines=$(printf '%s\n' "${all_rs[@]}" | grep -E '^crates/(core|harness)/' | xargs cat | wc -l)
printf '%7d  core + harness (ROADMAP.md target <= 11100; all lines, tests included: %d)\n' \
    $((${per[core]:-0} + ${per[harness]:-0})) "$all_lines"
