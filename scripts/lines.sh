#!/bin/sh
# Non-test Go lines per package directory and in total, as wc -l counts
# them, perfbench (a module of its own) excluded: the unit ROADMAP.md and
# CHANGES.md count design progress in. Run from the repository root
# (`make lines`).
set -eu

find . -path ./perfbench -prune -o -name '*.go' ! -name '*_test.go' -print |
	xargs wc -l |
	awk '$2 != "total" {
		dir = $2
		sub(/^\.\//, "", dir)
		if (!sub(/\/[^\/]*$/, "", dir)) dir = "."
		lines[dir] += $1
		total += $1
	}
	END {
		for (d in lines) printf "%7d  %s\n", lines[d], d | "sort -k2"
		close("sort -k2")
		printf "%7d  total\n", total
	}'
