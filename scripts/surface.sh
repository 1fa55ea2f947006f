#!/bin/sh
# Size of the workspace's non-test code, per crate and in total.
#
#   scripts/surface.sh
#
# Over the Rust files under crates/*/src, counts
#   code  non-blank lines that are not `//` comments (`///` and `//!`
#         included), outside `#[cfg(test)] mod` blocks;
#   pub   `pub` items (fn, struct, enum, trait, const, static, type,
#         mod, use, union, unsafe/async/extern fn, macro), not counting
#         `pub(crate)` or other restricted visibility, outside the same
#         blocks. Struct fields and enum variants are not items.
# A `#[cfg(test)]` block ends at the first `}` line at its `mod` line's
# indentation, which holds for rustfmt-formatted code. Prints one row per
# crate and a total row; it never fails on what it counts.
set -eu

cd "$(dirname "$0")/.."

for dir in crates/*/src; do
    crate=${dir#crates/}
    crate=${crate%/src}
    find "$dir" -name '*.rs' | LC_ALL=C sort | while read -r f; do
        printf '%s\t%s\n' "$crate" "$f"
    done
done | awk -F '\t' '
function count(crate, file,    line, indent, pending, skip, end, code, items) {
    pending = 0
    skip = 0
    while ((getline line < file) > 0) {
        if (skip) {
            if (line == end) skip = 0
            continue
        }
        # `#[cfg(test)]` and the attributes after it are held back until
        # the item they annotate shows whether it is a test module.
        if (line ~ /^[ \t]*#\[cfg\(test\)\][ \t]*$/ || pending && line ~ /^[ \t]*#\[/) {
            pending++
            continue
        }
        if (pending && line ~ /^[ \t]*(pub(\([^)]*\))? )?mod [A-Za-z_0-9]+ \{[ \t]*$/) {
            indent = line
            sub(/[^ \t].*$/, "", indent)
            end = indent "}"
            skip = 1
            pending = 0
            continue
        }
        code += pending
        pending = 0
        if (line ~ /^[ \t]*$/ || line ~ /^[ \t]*\/\//) continue
        code++
        if (line ~ /^[ \t]*pub (unsafe |async |extern "[^"]*" |const )*(fn|struct|enum|trait|const|static|type|mod|use|union|macro) /)
            items++
    }
    close(file)
    lines[crate] += code
    pubs[crate] += items
    if (!(crate in seen)) {
        seen[crate] = 1
        order[++n] = crate
    }
}
{ count($1, $2) }
END {
    printf "%-12s %8s %6s\n", "crate", "code", "pub"
    for (i = 1; i <= n; i++) {
        c = order[i]
        printf "%-12s %8d %6d\n", c, lines[c], pubs[c]
        total_lines += lines[c]
        total_pubs += pubs[c]
    }
    printf "%-12s %8d %6d\n", "total", total_lines, total_pubs
}'
