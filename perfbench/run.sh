#!/usr/bin/env bash
# Builds the benchmark from source inside the checkout and runs it:
#
#   bash perfbench/run.sh --workload campaign-cold --seed 1 --seconds 15 --trace 0
#
# Run from the repository root. Every file the build touches (compiler cache,
# temporaries, the binary) stays under the build directory, which is
# $CARGO_TARGET_DIR when set and .bench_build otherwise.
set -euo pipefail

root=$(pwd)
out=${CARGO_TARGET_DIR:-.bench_build}
case $out in
/*) ;;
*) out=$root/$out ;;
esac
mkdir -p "$out/gocache" "$out/tmp" "$out/home"

(
	cd perfbench
	HOME=$out/home XDG_CONFIG_HOME=$out/home GOCACHE=$out/gocache GOTMPDIR=$out/tmp \
		GOTOOLCHAIN=local GOFLAGS= go build -o "$out/perfbench" .
)
export PERFBENCH_OUT=$out
exec "$out/perfbench" "$@"
