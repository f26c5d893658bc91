#!/usr/bin/env bash
# Scenario-by-scenario comparison of two robustness reports (the shape
# `chaos_fleet --out` writes and BENCH_robustness.json commits).
#
#   scripts/robustness_diff.sh OLD NEW
#
# For each scenario, in NEW's order and then any only OLD has, prints
# `old → new` for: final and min reachability, final and min delivered
# share and final looped share (k-Random scenarios), each fault window's
# recovery seconds, LSAs announced, links announced unmeasured, refresh
# entries pushed, bytes per message class and in total,
# links_quarantined and evictions. Equal values print once, followed by
# `=`; a value one side lacks prints `-`. Needs only jq.
#
# Exit status: 0 when no row other than `bytes …` differs (only bytes
# moved, or nothing did), 3 when any other row differs (a scenario only
# one side has counts), 2 on bad usage or an unreadable / non-JSON
# input. So "only bytes moved" is one command:
#
#   scripts/robustness_diff.sh BENCH_robustness.json NEW && echo bytes only
set -euo pipefail

[[ $# -eq 2 ]] || { echo "usage: $0 OLD NEW" >&2; exit 2; }
for f in "$1" "$2"; do
    jq -e '.scenarios | arrays' "$f" >/dev/null 2>&1 ||
        { echo "$0: $f is not a robustness report" >&2; exit 2; }
done

table=$(jq -r -n --slurpfile old "$1" --slurpfile new "$2" '
  def rows:
    [["final_reachability", .final_reachability],
     ["min_reachability", .min_reachability],
     ["final_delivered", .final_delivered],
     ["min_delivered", .min_delivered],
     ["final_looped", .final_looped]]
    + [.windows | to_entries[]
       | ["recovery_secs \(.key) \(.value.kind)", .value.recovery_secs]]
    + [["announces", .gossip.announces],
       ["unmeasured_links", .gossip.unmeasured_links],
       ["refreshed", .anti_entropy.refreshed]]
    + [.overhead | to_entries[] | ["bytes \(.key)", .value.bytes]]
    + [["bytes total", ([.overhead[].bytes] | add)],
       ["links_quarantined", .quarantine.links_quarantined],
       ["evictions", .peers.evictions]];
  def table: map({key: .scenario, value: (rows | map({key: .[0], value: .[1]}) | from_entries)})
    | from_entries;
  def show: if . == null then "-" else tostring end;
  def pad(n): if length < n then . + (" " * (n - length)) else . end;
  ($old[0].scenarios | table) as $o
  | ($new[0].scenarios | table) as $n
  | ($n + $o | keys_unsorted[]) as $s
  | "== \($s)",
    (($n[$s] // {}) + ($o[$s] // {}) | keys_unsorted[] as $k
     | ($o[$s][$k] | show) as $a
     | ($n[$s][$k] | show) as $b
     | "  \($k | pad(28)) "
       + (if $a == $b then "\($a)  =" else "\($a) → \($b)" end))
')
printf '%s\n' "$table"
awk '/ → / && !/^  bytes / { moved = 1 } END { exit !moved }' <<<"$table" && exit 3
exit 0
