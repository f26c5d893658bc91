#!/usr/bin/env bash
# Non-test lines of Rust per crate under crates/, and their total.
#
#   scripts/loc.sh
#
# A file's non-test lines are the lines before its first `#[cfg(test)]`
# in column 0 (the test module at the foot of the file); an indented
# `#[cfg(test)]` on one item inside an impl does not end the count.
# `proptests.rs` and `route_props.rs` are test-only modules and count
# nothing. Only `src/` is read: `benches/` are criterion groups, not
# shipped code. Run from anywhere inside the repository.
set -euo pipefail
cd "$(dirname "$0")/.."

total=0
for crate in crates/*/; do
    crate=${crate%/}
    lines=$(find "$crate/src" -name '*.rs' ! -name proptests.rs ! -name route_props.rs -print0 |
        xargs -0 awk '
            FNR == 1 { counting = 1 }
            /^#\[cfg\(test\)\]/ { counting = 0 }
            counting { n++ }
            END { print n + 0 }')
    printf '%-16s %6d\n' "${crate#crates/}" "$lines"
    total=$((total + lines))
done
printf '%-16s %6d\n' total "$total"
