#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments,
# from the root of a checkout:
#
#   bash benchmark/run.sh --workload interactive_mix --seed 1 --seconds 12 --trace 0
#
# Everything the build writes (binary, Go build cache, temp files) stays
# under .bench_build/ in the checkout; the benchmark itself writes under
# benchmark/out/. The build is incremental: after the first run it costs
# a fraction of a second.
set -euo pipefail

if [ ! -f go.mod ] || [ ! -d internal/ids ]; then
	echo "benchmark/run.sh: run from the root of a checkout of module ids (no go.mod or internal/ids here)" >&2
	exit 1
fi

build="$PWD/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" XDG_CONFIG_HOME="$build/config" GOTOOLCHAIN=local

go build -o "$build/ids-benchmark" ./benchmark
exec "$build/ids-benchmark" "$@"
