#!/usr/bin/env bash
# Writes a benchmark ledger: runs every workload of BENCHMARK.json
# untraced at seeds 1, 2 and 3, one run of BENCHMARK.json's run_seconds
# per workload and seed, and records the end-to-end metrics in
# BENCH_<pr>.json at the root of the checkout, so every ledger is measured
# the same way and compares with the one before.
#
#   bash scripts/bench_ledger.sh 19
#
# Per workload the ledger holds, for every end-to-end metric of
# BENCHMARK.json, the median and quartiles (linear interpolation between
# the sorted runs, to four decimals), the number of runs and the unit,
# plus the ops attempted and failed over all runs. `rev` is the measured commit
# (`git describe --always --dirty`). The runs go through BENCHMARK.json's
# command (perfbench/run.sh), which builds the benchmark from this
# checkout; each run's output is kept under the build directory
# ($CARGO_TARGET_DIR, default .bench_build) in ledger-<pr>/.
# Needs jq.
set -euo pipefail
pr=${1:?usage: bench_ledger.sh PR}
root=$(cd "$(dirname "$0")/.." && pwd)
bench="$root/BENCHMARK.json"
seeds="1 2 3"
seconds=$(jq -r '.run_seconds' "$bench")
build=${CARGO_TARGET_DIR:-.bench_build}
case $build in
/*) ;;
*) build="$root/$build" ;;
esac
logs="$build/ledger-$pr"
mkdir -p "$logs"
rm -f "$logs/runs.jsonl"

cd "$root"
mapfile -t cmd < <(jq -r '.command[]' "$bench") # e.g. bash perfbench/run.sh
for w in $(jq -r '.workloads[].name' "$bench"); do
	for s in $seeds; do
		log="$logs/$w-seed$s.txt"
		echo "bench-ledger: $w seed $s (${seconds}s)" >&2
		"${cmd[@]}" --workload "$w" --seed "$s" --seconds "$seconds" --trace 0 >"$log"
		tail -n 1 "$log" | jq -c --arg w "$w" --argjson s "$s" '{workload: $w, seed: $s} + .' >>"$logs/runs.jsonl"
	done
done

jq -s \
	--argjson pr "$pr" \
	--arg rev "$(git describe --always --dirty)" \
	--argjson seconds "$seconds" \
	--slurpfile bench "$bench" '
	def q($p): sort | ((length - 1) * $p) as $h | ($h | floor) as $lo
		| .[$lo] + ($h - $lo) * ((.[$lo + 1] // .[$lo]) - .[$lo])
		| . * 10000 | round / 10000;
	. as $runs
	| {pr: $pr, rev: $rev, seconds: $seconds,
	   seeds: ([$runs[].seed] | unique),
	   workloads: ([$bench[0].workloads[].name as $w
		| [$runs[] | select(.workload == $w)] as $r
		| {key: $w, value: {
			attempted: ([$r[].attempted] | add),
			failed: ([$r[].failed] | add),
			metrics: ([$bench[0].end_to_end[] as $m
				| [$r[].metrics[$m.name].value] as $v
				| {key: $m.name, value: {
					median: ($v | q(0.5)), q1: ($v | q(0.25)), q3: ($v | q(0.75)),
					n: ($v | length), unit: $m.unit}}] | from_entries)}}]
		| from_entries)}' "$logs/runs.jsonl" >"$root/BENCH_$pr.json"
echo "bench-ledger: wrote BENCH_$pr.json" >&2
