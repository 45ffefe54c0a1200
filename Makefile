GO ?= go

.PHONY: build test race vet check bench bench-baseline bench-1m

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

vet:
	$(GO) vet ./...

# check is the full verification gate: scripts/check.sh with no
# arguments — gofmt, vet, the race-enabled suite, the parity sweeps (the
# wire suite at two region counts among them), the wire frame and
# checkpoint fuzzers, the parity-harness fuzzer, the benchmark smoke run,
# the spec smoke runs, the telemetry-determinism gate and the grep guards.
check:
	./scripts/check.sh

# bench times the experiment engine (plain and instrumented), the DMRA
# hot path (arena vs naive), and scenario construction, then appends
# one baseline line per benchmark to BENCH_exp.json for cross-PR
# comparison (diff with scripts/benchdiff.sh).
bench:
	$(GO) test ./internal/exp/ -bench 'BenchmarkFigureRun|BenchmarkFigureRunObserved' -benchmem -run '^$$'
	$(GO) test ./internal/alloc/ -bench 'BenchmarkAllocate$$|BenchmarkAllocateNaive$$' -benchmem -run '^$$'
	$(GO) test ./internal/alloc/ -bench 'BenchmarkChurn$$' -benchmem -run '^$$'
	$(GO) test ./internal/engine/ -bench 'BenchmarkArenaReset$$' -benchmem -run '^$$'
	$(GO) test ./internal/workload/ -bench 'BenchmarkNewNetwork$$' -benchmem -run '^$$'
	$(GO) test ./internal/online/ -bench 'BenchmarkSession$$|BenchmarkDynamicSession$$' -benchmem -run '^$$'
	$(GO) test ./internal/replay/ -bench 'BenchmarkReplay$$' -benchmem -run '^$$'
	$(MAKE) bench-baseline
	# The cluster benchmark table runs after the baseline append: its
	# loopback socket churn leaves TIME_WAIT entries that would inflate
	# measurements taken in the following minute.
	$(GO) test ./internal/wire/ -bench 'BenchmarkCluster$$' -benchmem -run '^$$'

# bench-baseline appends only the baseline lines (no benchmark table)
# to BENCH_exp.json.
# bench-1m is the million-UE gate: the densecity-1M match and the 24k-BS
# scenario build (both skipped under -short everywhere else), then the
# BenchmarkAllocate1M baseline line appended to BENCH_exp.json for
# cross-PR comparison via benchdiff. Expect ~2 s per match and ~3 s per
# build on one core; the whole target stays under two minutes.
bench-1m:
	$(GO) test ./internal/alloc/ -bench 'BenchmarkAllocate$$/densecity-1M' -benchmem -benchtime 2x -run '^$$' -timeout 60m
	$(GO) test ./internal/workload/ -bench 'BenchmarkNewNetwork$$/24kbs-1Mue' -benchmem -benchtime 2x -run '^$$' -timeout 60m
	BENCH_BASELINE=$(CURDIR)/BENCH_exp.json $(GO) test ./internal/alloc/ -run TestWriteAlloc1MBenchBaseline -v -timeout 60m

bench-baseline:
	BENCH_BASELINE=$(CURDIR)/BENCH_exp.json $(GO) test ./internal/exp/ -run TestWriteBenchBaseline -v
	BENCH_BASELINE=$(CURDIR)/BENCH_exp.json $(GO) test ./internal/alloc/ -run TestWriteAllocBenchBaseline -v
	BENCH_BASELINE=$(CURDIR)/BENCH_exp.json $(GO) test ./internal/alloc/ -run TestWriteChurnBenchBaseline -v -timeout 30m
	BENCH_BASELINE=$(CURDIR)/BENCH_exp.json $(GO) test ./internal/engine/ -run TestWriteArenaBenchBaseline -v
	BENCH_BASELINE=$(CURDIR)/BENCH_exp.json $(GO) test ./internal/workload/ -run TestWriteNetworkBenchBaseline -v
	BENCH_BASELINE=$(CURDIR)/BENCH_exp.json $(GO) test ./internal/online/ -run TestWriteSessionBenchBaseline -v
	BENCH_BASELINE=$(CURDIR)/BENCH_exp.json $(GO) test ./internal/online/ -run TestWriteDynamicSessionBenchBaseline -v
	BENCH_BASELINE=$(CURDIR)/BENCH_exp.json $(GO) test ./internal/replay/ -run TestWriteReplayBenchBaseline -v
	BENCH_BASELINE=$(CURDIR)/BENCH_exp.json $(GO) test ./internal/wire/ -run TestWriteClusterBenchBaseline -v
