#!/bin/sh
# Compare, per benchmark and per GOMAXPROCS, the last BENCH_exp.json
# record with the previous one at that GOMAXPROCS and fail on a ns/op —
# or allocs/op — regression beyond the threshold. Run
# `make bench` before and after a change to append the two records this
# script diffs. With no benchmark argument, every hot-path gate runs:
# the batch solver (BenchmarkAllocate), the million-UE rung
# (BenchmarkAllocate1M, appended by `make bench-1m`), the churn gate
# (BenchmarkChurn, incremental vs from-scratch re-match), the arena
# reset rung (BenchmarkArenaReset), the dynamic
# session (BenchmarkSession), the spec-driven workload engine
# (BenchmarkDynamicSession, per arrival process), the trace-replay
# debugger (BenchmarkReplay), and the TCP cluster (BenchmarkCluster).
#
# Usage:
#   scripts/benchdiff.sh                           both default gates, +20% budget
#   scripts/benchdiff.sh BenchmarkNewNetwork       another benchmark
#   scripts/benchdiff.sh BenchmarkAllocate 0.10    tighter budget
set -eu
cd "$(dirname "$0")/.."

max_regress=${2:-0.20}

if [ $# -ge 1 ]; then
	exec go run ./cmd/benchdiff -file BENCH_exp.json -bench "$1" -max-regress "$max_regress"
fi
for bench in BenchmarkAllocate BenchmarkAllocate1M BenchmarkChurn BenchmarkArenaReset BenchmarkSession BenchmarkDynamicSession BenchmarkReplay; do
	go run ./cmd/benchdiff -file BENCH_exp.json -bench "$bench" -max-regress "$max_regress"
done
# The cluster gate gets a wider budget: its runs open hundreds of loopback
# sockets, so wall-clock carries TIME_WAIT / scheduler noise the in-process
# benchmarks don't have.
go run ./cmd/benchdiff -file BENCH_exp.json -bench BenchmarkCluster -max-regress 0.50
