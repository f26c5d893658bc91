#!/usr/bin/env bash
# Byte-compare the stdout of two builds of the figure / ablation binaries
# and the examples: the check a refactor that must not change any output
# runs against its parent.
#
#   scripts/bins_equal.sh PARENT_DIR CHANGE_DIR
#
# Each DIR is a release target directory (`<target>/release`) holding the
# `egoist-bench` binaries and `examples/`; build each side with its own
# CARGO_TARGET_DIR:
#
#   cargo build --release --workspace --bins --examples
#
# The programs are globbed from this checkout's sources, as CI's smoke
# loops glob them, so a new figure bin or example cannot be left out:
# every `crates/bench/src/bin/*.rs` except the four report bins
# (`perf_baseline`, `metrics_check`, `policy_race`, `chaos_fleet`, which
# have their own `--check` / `cmp` gates), and every `examples/*.rs`
# except `live_overlay`, which binds UDP sockets. A program the parent
# does not have yet is a usage error. Each runs under two settings:
# `EGOIST_FAST=1`, and `EGOIST_SEEDS=2,5 EGOIST_EPOCHS=9` (paper sizes,
# two seeds); the examples read neither knob and run the same under
# both. Timings are masked before the diff:
# `ablation_sample_size`'s `wall_s` column, and the span durations
# (`*_ns`) that `observability_demo` prints. Run from the repository
# root; outputs land in a temporary directory that is removed on exit.
#
# Exit status: 0 when every output is byte-equal, 1 when one differs or a
# run fails, 2 on bad usage.
set -euo pipefail

usage() {
    echo "usage: $0 PARENT_DIR CHANGE_DIR" >&2
    exit 2
}
[[ $# -eq 2 ]] || usage
parent=$1 change=$2

[[ -d crates/bench/src/bin && -d examples ]] || {
    echo "$0: run from the repository root" >&2
    exit 2
}
programs=()
for src in crates/bench/src/bin/*.rs; do
    bin=$(basename "$src" .rs)
    case $bin in
    perf_baseline | metrics_check | policy_race | chaos_fleet) ;;
    *) programs+=("$bin") ;;
    esac
done
for src in examples/*.rs; do
    example=$(basename "$src" .rs)
    [[ $example == live_overlay ]] || programs+=("examples/$example")
done
for dir in "$parent" "$change"; do
    for p in "${programs[@]}"; do
        [[ -x $dir/$p ]] || { echo "$0: $dir/$p is not an executable" >&2; exit 2; }
    done
done

# Replace the timings in one program's stdout with '#'.
mask() {
    case $1 in
    ablation_sample_size)
        # The last column of every table row is wall_s: "  value" or
        # "  value ±ci".
        sed -E '/^#/!s/ +-?[0-9.]+( ±[ 0-9.]+)?$/ #/' ;;
    examples/observability_demo)
        sed -E -e 's/(_ns_total) [0-9]+/\1 #/' \
               -e 's/("total_ns":)[0-9]+/\1#/g' \
               -e 's/^( *\[) *[0-9]+ ns\]/\1# ns]/' ;;
    *) cat ;;
    esac
}

out=$(mktemp -d)
trap 'rm -rf "$out"' EXIT

settings=("EGOIST_FAST=1" "EGOIST_SEEDS=2,5 EGOIST_EPOCHS=9")
differ=0
for setting in "${settings[@]}"; do
    for p in "${programs[@]}"; do
        name=${p#examples/}
        for side in parent change; do
            dir=$parent
            [[ $side == change ]] && dir=$change
            # shellcheck disable=SC2086 # $setting is a list of VAR=value words
            if ! env $setting "$dir/$p" 2>/dev/null | mask "$p" >"$out/$side.$name"; then
                echo "$0: $side $p failed under $setting" >&2
                exit 1
            fi
        done
        if cmp -s "$out/parent.$name" "$out/change.$name"; then
            echo "equal    $setting  $name"
        else
            echo "DIFFERS  $setting  $name"
            # diff exits 1 on a difference; under pipefail that would end
            # the script at the first differing program.
            diff "$out/parent.$name" "$out/change.$name" | head -20 || true
            differ=1
        fi
    done
done
if ((differ)); then
    echo "$0: outputs differ" >&2
    exit 1
fi
echo "every output byte-equal under both settings"
