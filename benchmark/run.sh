#!/usr/bin/env bash
# Builds the benchmark from source into .bench_build/ and runs it. This
# is the command BENCHMARK.json names; every argument is passed on:
#
#   bash benchmark/run.sh -workload paper-short [-seed N] [-seconds S] [-trace 0|1]
#
# Run it from the repository root. The Go build cache is kept inside
# the checkout too, so nothing is written outside it.
set -euo pipefail

if [ ! -f go.mod ] || [ ! -d internal/sweep ]; then
	echo "benchmark/run.sh: run from the root of a checkout of the repository (no go.mod / internal/sweep here)" >&2
	exit 2
fi

mkdir -p .bench_build
export GOCACHE="$PWD/.bench_build/gocache"
export GOTOOLCHAIN=local
go build -o .bench_build/benchmark ./benchmark
exec .bench_build/benchmark "$@"
