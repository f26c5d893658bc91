#!/usr/bin/env bash
# A/B comparison of two builds of the whole-stack benchmark binary
# (`egoist-benchmark`, built from benchmark/) on one workload: every
# end-to-end metric it prints.
#
#   scripts/ab.sh PARENT_BIN CHANGE_BIN WORKLOAD PAIRS [SEED]
#
# Runs PAIRS pairs of untraced runs (`--seconds 10 --trace 0`, seed 11 by
# default). Odd pairs run the parent first, even pairs the change, so slow
# stretches of a noisy host hit both sides. Prints every run's wall_s,
# setup_s, peak_rss_mb and fingerprint, then:
#
# * for each measured metric (wall_s, setup_s, peak_rss_mb) each side's
#   median and quartiles, how many pairs the change won (lower value),
#   and a verdict. A timing or memory claim wants the change to win at
#   least 9 of 10 pairs with medians further apart than the parent's IQR.
#   The verdict line prints the change in the median as a percentage of
#   the parent's and reads `resolved` when one side won at least 90% of
#   the pairs and the medians are further apart than the parent's IQR,
#   `unresolved` otherwise;
# * for each simulated metric the workload defines (lines the binary
#   marks "not defined" are skipped), then ops, lost and failed: each
#   side's value once, `equal` when both print the same digits or else
#   the change in %, and a warning when one side's own runs disagree.
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

# One run of BIN: prints "wall_s setup_s peak_rss_mb fingerprint", then
# "name value" for each defined simulated metric and for ops, lost and
# failed, all on one line.
run() {
    "$1" run --workload "$workload" --seed "$seed" --seconds 10 --trace 0 |
        awk '$1 == "e2e" && $2 == "wall_s" { w = $3; next }
             $1 == "e2e" && $2 == "setup_s" { s = $3; next }
             $1 == "e2e" && $2 == "peak_rss_mb" { m = $3; next }
             $1 == "e2e" && !/not defined/ { sim = sim " " $2 " " $3 }
             $1 == "ops" { ops = " ops " $2 " lost " $4 " failed " $6 }
             $1 == "fingerprint" { f = $2 }
             END {
                 if (w == "" || s == "" || m == "" || f == "" || ops == "") exit 1
                 print w, s, m, f sim ops
             }'
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

# The summary of one measured metric: NAME UNIT WINS LOSSES, then the
# parent's and the change's "median q1 q3" as one argument each.
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

# The simulated metrics and the op counts: the parent's and the change's
# runs as one argument each, one run a line of "name value" pairs. Each
# side's first value per name, compared, and any run of a side that
# printed another value for it.
simulated() {
    awk -v parent="$1" -v change="$2" '
        function take(runs, side,   lines, words, i, j) {
            split(runs, lines, "\n")
            for (i = 1; i in lines; i++) {
                split(lines[i], words, " ")
                for (j = 1; j in words; j += 2) {
                    key = side SUBSEP words[j]
                    if (!(key in first)) {
                        first[key] = words[j + 1]
                        if (!(words[j] in seen)) { seen[words[j]] = 1; names[++n] = words[j] }
                    } else if (words[j + 1] != first[key]) {
                        odd[key] = odd[key] " " words[j + 1]
                    }
                }
            }
        }
        BEGIN {
            take(parent, "parent"); take(change, "change")
            for (i = 1; i <= n; i++) {
                name = names[i]; p = first["parent", name]; c = first["change", name]
                if (p == c) delta = "equal"
                else if (p == "" || c == "") delta = "missing on one side"
                else if (p + 0 == 0) delta = "parent 0"
                else delta = sprintf("%+.2f%%", 100 * (c - p) / p)
                printf "%-22s parent %-22s change %-22s %s\n", name, p, c, delta
                for (s = 1; s <= 2; s++) {
                    side = s == 1 ? "parent" : "change"
                    if ((side, name) in odd)
                        printf "%-22s %s runs disagree: also%s\n", name, side, odd[side, name]
                }
            }
        }'
}

# Whether $1 < $2, as numbers.
less() {
    awk -v a="$1" -v b="$2" 'BEGIN { exit !(a < b) }'
}

metrics=(wall_s setup_s peak_rss_mb)
units=(s s MB)
declare -A values wins losses sims fingerprints
for m in "${metrics[@]}"; do wins[$m]=0 losses[$m]=0; done
first_fp="" drift=0
for ((p = 1; p <= pairs; p++)); do
    if ((p % 2)); then order=(parent change); else order=(change parent); fi
    declare -A now=()
    for side in "${order[@]}"; do
        bin=$parent
        [[ $side == change ]] && bin=$change
        if ! out=$(run "$bin"); then
            echo "$0: $side run of pair $p printed no end-to-end metrics, ops or fingerprint" >&2
            exit 1
        fi
        read -r wall setup rss fp sim <<<"$out"
        printf 'pair %3d  %-6s  wall_s %-12s setup_s %-12s peak_rss_mb %-14s fingerprint %s\n' \
            "$p" "$side" "$wall" "$setup" "$rss" "$fp"
        first_fp=${first_fp:-$fp}
        [[ $fp == "$first_fp" ]] || drift=1
        [[ ${fingerprints[$side]:-} == *"$fp"* ]] || fingerprints[$side]+=" $fp"
        now[$side:wall_s]=$wall now[$side:setup_s]=$setup now[$side:peak_rss_mb]=$rss
        for m in "${metrics[@]}"; do values[$side:$m]+=" ${now[$side:$m]}"; done
        sims[$side]+="$sim"$'\n'
    done
    for m in "${metrics[@]}"; do
        if less "${now[change:$m]}" "${now[parent:$m]}"; then wins[$m]=$((wins[$m] + 1)); fi
        if less "${now[parent:$m]}" "${now[change:$m]}"; then losses[$m]=$((losses[$m] + 1)); fi
    done
done

echo "$workload seed $seed, $pairs pairs"
for i in "${!metrics[@]}"; do
    m=${metrics[$i]}
    # shellcheck disable=SC2086 # one value per word
    summary "$m" "${units[$i]}" "${wins[$m]}" "${losses[$m]}" \
        "$(quartiles ${values[parent:$m]})" "$(quartiles ${values[change:$m]})"
done
simulated "${sims[parent]}" "${sims[change]}"
if ((drift)); then
    echo "fingerprint parent${fingerprints[parent]}, change${fingerprints[change]}"
    echo "$0: fingerprints differ — the change moved the outputs" >&2
    exit 1
fi
echo "fingerprint $first_fp on every run"
