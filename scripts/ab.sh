#!/usr/bin/env bash
# A/B timing of two builds of the whole-stack benchmark binary
# (`egoist-benchmark`, built from benchmark/) on one workload.
#
#   scripts/ab.sh PARENT_BIN CHANGE_BIN WORKLOAD PAIRS [SEED]
#
# Runs PAIRS pairs of untraced runs (`--seconds 10 --trace 0`, seed 11 by
# default). Odd pairs run the parent first, even pairs the change, so slow
# stretches of a noisy host hit both sides. Prints every run's wall_s and
# fingerprint, then each side's median and quartiles and how many pairs
# the change won (lower wall_s). A timing claim wants the change to win at
# least 9 of 10 pairs with medians further apart than the parent's IQR.
#
# Exit status: 0 when every run printed the same fingerprint, 1 when a
# fingerprint differs or a run printed none, 2 on bad usage.
set -euo pipefail

usage() {
    echo "usage: $0 PARENT_BIN CHANGE_BIN WORKLOAD PAIRS [SEED]" >&2
    exit 2
}
[[ $# -ge 4 && $# -le 5 ]] || usage
parent=$1 change=$2 workload=$3 pairs=$4 seed=${5:-11}
[[ $pairs =~ ^[1-9][0-9]*$ && $seed =~ ^[0-9]+$ ]] || usage
for bin in "$parent" "$change"; do
    [[ -x $bin ]] || { echo "$0: $bin is not an executable" >&2; exit 2; }
done

# One run of BIN: prints "wall_s fingerprint".
run() {
    "$1" run --workload "$workload" --seed "$seed" --seconds 10 --trace 0 |
        awk '$1 == "e2e" && $2 == "wall_s" { w = $3 }
             $1 == "fingerprint" { f = $2 }
             END { if (w == "" || f == "") exit 1; print w, f }'
}

# Median and quartiles (linear interpolation) of the arguments.
quartiles() {
    printf '%s\n' "$@" | sort -g | awk '
        function q(p,   pos, lo) {
            pos = p * (NR - 1); lo = int(pos)
            return x[lo] + (pos - lo) * (x[lo + 1] - x[lo])
        }
        { x[NR - 1] = $1 }
        END { printf "median %.4f s  q1 %.4f  q3 %.4f  iqr %.4f\n",
                     q(0.5), q(0.25), q(0.75), q(0.75) - q(0.25) }'
}

parent_walls=() change_walls=() wins=0 first_fp="" drift=0
for ((p = 1; p <= pairs; p++)); do
    if ((p % 2)); then order=(parent change); else order=(change parent); fi
    for side in "${order[@]}"; do
        bin=$parent
        [[ $side == change ]] && bin=$change
        if ! out=$(run "$bin"); then
            echo "$0: $side run of pair $p printed no wall_s or fingerprint" >&2
            exit 1
        fi
        read -r wall fp <<<"$out"
        printf 'pair %3d  %-6s  wall_s %-12s fingerprint %s\n' "$p" "$side" "$wall" "$fp"
        first_fp=${first_fp:-$fp}
        [[ $fp == "$first_fp" ]] || drift=1
        if [[ $side == parent ]]; then
            parent_walls+=("$wall") parent_wall=$wall
        else
            change_walls+=("$wall") change_wall=$wall
        fi
    done
    if awk -v c="$change_wall" -v b="$parent_wall" 'BEGIN { exit !(c < b) }'; then
        wins=$((wins + 1))
    fi
done

echo "$workload seed $seed, $pairs pairs"
echo "parent  $(quartiles "${parent_walls[@]}")"
echo "change  $(quartiles "${change_walls[@]}")"
echo "change won $wins/$pairs pairs"
if ((drift)); then
    echo "$0: fingerprints differ — the change moved the outputs" >&2
    exit 1
fi
echo "fingerprint $first_fp on every run"
