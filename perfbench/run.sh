#!/bin/sh
# Builds the benchmark from this checkout and runs one workload:
#
#   bash perfbench/run.sh --workload batch-wave --seed 1 --seconds 20 --trace 0
#
# Everything the build and the run write goes under $CARGO_TARGET_DIR
# (default .bench_build, relative to the checkout root): the Go build
# cache and temporary files, the binary and the spans of traced runs.
set -eu
here=$(cd "$(dirname "$0")" && pwd)
root=$(dirname "$here")
build=${CARGO_TARGET_DIR:-.bench_build}
case $build in
/*) ;;
*) build="$root/$build" ;;
esac
mkdir -p "$build/tmp" "$build/config"
# The go command's caches, temporary files and user configuration
# (telemetry counters included) stay inside the build directory too.
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp" \
	XDG_CONFIG_HOME="$build/config" GOTOOLCHAIN=local
(cd "$here" && go build -o "$build/perfbench" .)
exec "$build/perfbench" -out "$build" "$@"
