#!/usr/bin/env bash
# Run the whole benchmark once with one seed: the four workloads untraced,
# then the four traced runs, and compare the wall-clock with what the
# driver's schedule leaves for a run.
#
#   bash benchmark/run.sh [seed]
set -euo pipefail

seed="${1:-1}"
seconds=20        # BENCHMARK.json run_seconds
cap=3420          # the driver's cap for all its runs, in seconds
runs=$((4 + 22 * 4))
workloads="kv-read kv-durable stm-nested tune-sim"

start=$(date +%s)
for trace in 0 1; do
	for w in $workloads; do
		t0=$(date +%s)
		bash benchmark/bench.sh --workload "$w" --seed "$seed" --seconds "$seconds" --trace "$trace" | tail -n 1
		echo "# $w trace=$trace took $(($(date +%s) - t0)) s" >&2
	done
done
total=$(($(date +%s) - start))
echo "# 8 runs took $total s; the driver makes $runs runs within $cap s, $((cap / runs)) s a run on average" >&2
