#!/bin/sh
# Benchmark gate: measure the optimizer's evaluation hot path (fig4 and fig7
# shapes, and the joint search making room for an arrival on a full machine,
# at GOMAXPROCS 1 and N) and fail when it regresses more than
# BENCH_TOLERANCE_PCT (default 15%) against the committed baseline
# BENCH_34.json. The comparison is only enforced when the
# baseline was recorded in a comparable environment (same GOMAXPROCS, OS,
# arch) — cross-machine deltas are printed as information.
#
# Usage:
#   scripts/bench.sh                 # compare against BENCH_34.json if present
#   BENCH_OUT=out.json scripts/bench.sh
#   BENCH_NODES=64,256 scripts/bench.sh # smaller sweep: 1024 nodes takes minutes
# A size written shape:size is measured for that shape only; the default sweep
# takes fig4 alone to 4096 nodes (fig7 would register 4095 clients, each
# arrival re-evaluating every resident). accommodate:N is the joint search
# beside N residents (x 5 and 9 choices each, on 5 N nodes); every point
# finishes, 10 and 12 residents x 9 choices at the search's trial budget,
# which the report flags.
set -eu

cd "$(dirname "$0")/.."

baseline="BENCH_34.json"
out="${BENCH_OUT:-bench-current.json}"
nodes="${BENCH_NODES:-64,256,1024,fig4:4096,accommodate:2,accommodate:4,accommodate:6,accommodate:8,accommodate:10,accommodate:12}"
tolerance="${BENCH_TOLERANCE_PCT:-15}"

if [ ! -f "$baseline" ]; then
	echo "bench.sh: no committed baseline ($baseline); measuring without a gate"
	go run ./cmd/hbench -json "$out" -bench-nodes "$nodes"
	exit 0
fi

echo "== hbench hot path (nodes: $nodes, tolerance: ${tolerance}%)"
go run ./cmd/hbench -json "$out" -bench-nodes "$nodes" -baseline "$baseline" -tolerance "$tolerance"

echo "bench.sh: hot path within ${tolerance}% of $baseline"
