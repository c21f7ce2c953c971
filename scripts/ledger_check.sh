#!/usr/bin/env bash
# Gates the allocation per op between the two newest benchmark ledgers.
# For every workload of BENCHMARK.json, the newer ledger's
# alloc_mb_per_op median may exceed the older one's by at most that
# metric's bound in BENCHMARK.json (a fraction: 0.1 is 10%). The ledgers
# are the two BENCH_<n>.json at the root of the checkout with the highest
# n, compared numerically; with fewer than two the check passes.
#
#   bash scripts/ledger_check.sh
#
# Timings are not gated: between two ledgers they move with the host's
# load by more than a change moves them, while the allocation per op
# repeats from run to run. Prints one line per workload with both
# medians and exits 1 if any workload fails. Needs jq.
set -euo pipefail
root=$(cd "$(dirname "$0")/.." && pwd)
cd "$root"
mapfile -t ledgers < <(ls BENCH_*.json 2>/dev/null | sort -t_ -k2,2n | tail -n 2)
if [ "${#ledgers[@]}" -lt 2 ]; then
	echo "ledger-check: fewer than two ledgers, nothing to compare"
	exit 0
fi
old=${ledgers[0]} new=${ledgers[1]}
report=$(jq -rn --slurpfile b BENCHMARK.json --slurpfile o "$old" --slurpfile n "$new" \
	--arg of "$old" --arg nf "$new" '
	($b[0].end_to_end[] | select(.name == "alloc_mb_per_op") | .bound) as $k
	| $b[0].workloads[].name as $w
	| $o[0].workloads[$w].metrics.alloc_mb_per_op.median as $x
	| $n[0].workloads[$w].metrics.alloc_mb_per_op.median as $y
	| (if ($x | type) != "number" or ($y | type) != "number" then "FAIL"
	   elif $y > $x * (1 + $k) then "FAIL" else "ok" end)
	+ " \($w): alloc_mb_per_op median \($x) MB (\($of)) -> \($y) MB (\($nf)), bound +\($k * 100)%"')
echo "$report"
if grep -q '^FAIL' <<<"$report"; then
	echo "ledger-check: an allocation per op is missing or grew beyond its bound" >&2
	exit 1
fi
