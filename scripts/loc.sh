#!/usr/bin/env bash
# Non-test lines of Rust per crate under crates/, and their total; then
# the same count over every vendored crate under vendor/, as one row.
#
#   scripts/loc.sh
#
# A file's non-test lines are the lines before its first `#[cfg(test)]`
# in column 0 (the test module at the foot of the file); an indented
# `#[cfg(test)]` on one item inside an impl does not end the count.
# `proptests.rs`, `route_props.rs` and `reference.rs` are test-only
# modules and count nothing. Only `src/` is read. The `vendor` row is not
# in the total. Run from anywhere inside the repository.
#
# Exits 1, naming the line, when a column-0 item after a file's first
# column-0 `#[cfg(test)]` carries no `#[cfg(test)]` of its own: that item
# ships but would not be counted. Shipped items go above the tests.
set -euo pipefail
cd "$(dirname "$0")/.."

# Non-test lines of the `.rs` files under the given `src/` directories.
count() {
    if ! find "$@" -name '*.rs' ! -name proptests.rs ! -name route_props.rs ! -name reference.rs -print0 |
        xargs -0 awk '
            FNR == 1 { counting = 1; gated = 0 }
            /^#\[cfg\(test\)\]/ { counting = 0; gated = 1 }
            counting { n++; next }
            /^[A-Za-z]/ {
                if (!gated) {
                    printf "%s:%d: shipped item below the tests: %s\n", FILENAME, FNR, $0 > "/dev/stderr"
                    bad = 1
                }
                gated = 0
            }
            END { print n + 0; exit bad }'; then
        echo "$0: move those items above the file's first #[cfg(test)]" >&2
        exit 1
    fi
}

total=0
for crate in crates/*/; do
    crate=${crate%/}
    lines=$(count "$crate/src")
    printf '%-16s %6d\n' "${crate#crates/}" "$lines"
    total=$((total + lines))
done
printf '%-16s %6d\n' total "$total"
vendor=$(count vendor/*/src)
printf '%-16s %6d\n' vendor "$vendor"
