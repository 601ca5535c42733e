#!/usr/bin/env bash
# The benchmark's entry point (BENCHMARK.json "command"): build the harness
# from source inside the checkout, then run it with the given arguments.
#
#   bash benchmark/bench.sh --workload kv-read --seed 1 --seconds 20 --trace 0
#
# Run from the repository root. Everything it writes stays in the checkout:
# the Go build cache, the build's temporary files and the binary go to
# .bench_build/, traces and temporary WAL directories to benchmark/out/.
set -euo pipefail

build="$PWD/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp"
go build -buildvcs=false -o "$build/benchmark" ./benchmark
exec "$build/benchmark" "$@"
