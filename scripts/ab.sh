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
# quartiles, how many pairs the change won (lower value), and a verdict. A
# timing or memory claim wants the change to win at least 9 of 10 pairs with
# medians further apart than the parent's IQR. The verdict line prints the
# change in the median as a percentage of the parent's and reads `resolved`
# when one side won at least 90% of the pairs and the medians are further
# apart than the parent's IQR, `unresolved` otherwise.
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

# Median, first and third quartile (linear interpolation) of the arguments.
quartiles() {
    printf '%s\n' "$@" | sort -g | awk '
        function q(p,   pos, lo) {
            pos = p * (NR - 1); lo = int(pos)
            return x[lo] + (pos - lo) * (x[lo + 1] - x[lo])
        }
        { x[NR - 1] = $1 }
        END { print q(0.5), q(0.25), q(0.75) }'
}

# The summary of one metric: NAME UNIT WINS LOSSES, then the parent's and
# the change's "median q1 q3" as one argument each.
summary() {
    awk -v name="$1" -v unit="$2" -v wins="$3" -v losses="$4" -v pairs="$pairs" \
        -v parent="$5" -v change="$6" 'BEGIN {
            split(parent, p, " "); split(change, c, " ")
            printf "%-12s parent  median %.4f %s  q1 %.4f  q3 %.4f  iqr %.4f\n",
                   name, p[1], unit, p[2], p[3], p[3] - p[2]
            printf "%-12s change  median %.4f %s  q1 %.4f  q3 %.4f  iqr %.4f\n",
                   name, c[1], unit, c[2], c[3], c[3] - c[2]
            printf "%-12s change won %d/%d pairs\n", name, wins, pairs
            apart = (c[1] > p[1] ? c[1] - p[1] : p[1] - c[1]) > p[3] - p[2]
            won = c[1] < p[1] ? wins : losses
            verdict = apart && 10 * won >= 9 * pairs ? "resolved" : "unresolved"
            printf "%-12s verdict %+.1f%% median, parent iqr %.4f %s: %s\n", name,
                   (p[1] == 0 ? 0 : 100 * (c[1] - p[1]) / p[1]), p[3] - p[2], unit, verdict
        }'
}

# Whether $1 < $2, as numbers.
less() {
    awk -v a="$1" -v b="$2" 'BEGIN { exit !(a < b) }'
}

parent_walls=() change_walls=() parent_rss=() change_rss=()
wall_wins=0 rss_wins=0 wall_losses=0 rss_losses=0 first_fp="" drift=0
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
    if less "$parent_wall" "$change_wall"; then wall_losses=$((wall_losses + 1)); fi
    if less "$change_mb" "$parent_mb"; then rss_wins=$((rss_wins + 1)); fi
    if less "$parent_mb" "$change_mb"; then rss_losses=$((rss_losses + 1)); fi
done

echo "$workload seed $seed, $pairs pairs"
summary wall_s s "$wall_wins" "$wall_losses" \
    "$(quartiles "${parent_walls[@]}")" "$(quartiles "${change_walls[@]}")"
summary peak_rss_mb MB "$rss_wins" "$rss_losses" \
    "$(quartiles "${parent_rss[@]}")" "$(quartiles "${change_rss[@]}")"
if ((drift)); then
    echo "$0: fingerprints differ — the change moved the outputs" >&2
    exit 1
fi
echo "fingerprint $first_fp on every run"
