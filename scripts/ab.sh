#!/usr/bin/env bash
# A/B timing and memory of two builds of the whole-stack benchmark binary
# (`egoist-benchmark`, built from benchmark/) on one workload.
#
#   scripts/ab.sh PARENT_BIN CHANGE_BIN WORKLOAD PAIRS [SEED]
#
# Runs PAIRS pairs of untraced runs (`--seconds 10 --trace 0`, seed 11 by
# default). Odd pairs run the parent first, even pairs the change, so slow
# stretches of a noisy host hit both sides. Prints every run's wall_s,
# peak_rss_mb and fingerprint, then for each metric each side's median and
# quartiles and how many pairs the change won (lower value). A timing or
# memory claim wants the change to win at least 9 of 10 pairs with medians
# further apart than the parent's IQR.
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

# One run of BIN: prints "wall_s peak_rss_mb fingerprint".
run() {
    "$1" run --workload "$workload" --seed "$seed" --seconds 10 --trace 0 |
        awk '$1 == "e2e" && $2 == "wall_s" { w = $3 }
             $1 == "e2e" && $2 == "peak_rss_mb" { m = $3 }
             $1 == "fingerprint" { f = $2 }
             END { if (w == "" || m == "" || f == "") exit 1; print w, m, f }'
}

# Median and quartiles (linear interpolation) of the arguments after
# the first, which is the unit.
quartiles() {
    local unit=$1
    shift
    printf '%s\n' "$@" | sort -g | awk -v unit="$unit" '
        function q(p,   pos, lo) {
            pos = p * (NR - 1); lo = int(pos)
            return x[lo] + (pos - lo) * (x[lo + 1] - x[lo])
        }
        { x[NR - 1] = $1 }
        END { printf "median %.4f %s  q1 %.4f  q3 %.4f  iqr %.4f\n",
                     q(0.5), unit, q(0.25), q(0.75), q(0.75) - q(0.25) }'
}

# Whether $1 < $2, as numbers.
less() {
    awk -v a="$1" -v b="$2" 'BEGIN { exit !(a < b) }'
}

parent_walls=() change_walls=() parent_rss=() change_rss=()
wall_wins=0 rss_wins=0 first_fp="" drift=0
for ((p = 1; p <= pairs; p++)); do
    if ((p % 2)); then order=(parent change); else order=(change parent); fi
    for side in "${order[@]}"; do
        bin=$parent
        [[ $side == change ]] && bin=$change
        if ! out=$(run "$bin"); then
            echo "$0: $side run of pair $p printed no wall_s or fingerprint" >&2
            exit 1
        fi
        read -r wall rss fp <<<"$out"
        printf 'pair %3d  %-6s  wall_s %-12s peak_rss_mb %-14s fingerprint %s\n' \
            "$p" "$side" "$wall" "$rss" "$fp"
        first_fp=${first_fp:-$fp}
        [[ $fp == "$first_fp" ]] || drift=1
        if [[ $side == parent ]]; then
            parent_walls+=("$wall") parent_rss+=("$rss") parent_wall=$wall parent_mb=$rss
        else
            change_walls+=("$wall") change_rss+=("$rss") change_wall=$wall change_mb=$rss
        fi
    done
    if less "$change_wall" "$parent_wall"; then wall_wins=$((wall_wins + 1)); fi
    if less "$change_mb" "$parent_mb"; then rss_wins=$((rss_wins + 1)); fi
done

echo "$workload seed $seed, $pairs pairs"
echo "wall_s       parent  $(quartiles s "${parent_walls[@]}")"
echo "wall_s       change  $(quartiles s "${change_walls[@]}")"
echo "wall_s       change won $wall_wins/$pairs pairs"
echo "peak_rss_mb  parent  $(quartiles MB "${parent_rss[@]}")"
echo "peak_rss_mb  change  $(quartiles MB "${change_rss[@]}")"
echo "peak_rss_mb  change won $rss_wins/$pairs pairs"
if ((drift)); then
    echo "$0: fingerprints differ — the change moved the outputs" >&2
    exit 1
fi
echo "fingerprint $first_fp on every run"
