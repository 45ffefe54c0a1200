GO ?= go

.PHONY: build test race vet check bench bench-1m

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
# checkpoint fuzzers, the feasibility-validator and link-kernel fuzzers,
# the parity-harness fuzzer, the benchmark smoke run
# with the non-race allocation-count tests, the bench/ module's vet and
# tests, the spec smoke runs, the telemetry-determinism gate and the grep
# guards.
check:
	./scripts/check.sh

# bench is the front door to the bench/ harness (bench/README.md): all
# four workloads at seed 1, once untraced (the end-to-end metrics) and
# once traced (the per-layer metrics, the arena at one and two workers
# among them). It appends each run's full record, the line naming its
# workload with commit, GOMAXPROCS, seed and sample counts in its
# provenance, to BENCH_exp.json. Output is buffered so a failed run
# fails the target and appends nothing. To judge a change against its
# parent, run both trees in pairs and read `bash bench/run.sh compare`.
bench:
	@set -e; tmp=$$(mktemp); trap 'rm -f "$$tmp"' EXIT; \
	bash bench/run.sh --seed 1 > "$$tmp"; \
	bash bench/run.sh --seed 1 --trace 1 >> "$$tmp"; \
	grep '"workload"' "$$tmp" >> BENCH_exp.json; \
	echo "bench: appended $$(grep -c '"workload"' "$$tmp") records to BENCH_exp.json"

# bench-1m is the million-UE rung: the densecity-1M match and the 24k-BS
# scenario build, both skipped under -short everywhere else; the build
# runs at GOMAXPROCS 1 and 2. Expect ~2 s per match and ~3 s per build on
# one core; the target stays under two minutes.
bench-1m:
	$(GO) test ./internal/alloc/ -bench 'BenchmarkAllocate$$/densecity-1M' -benchmem -benchtime 2x -run '^$$' -timeout 60m
	$(GO) test ./internal/workload/ -bench 'BenchmarkNewNetwork$$/24kbs-1Mue' -cpu 1,2 -benchmem -benchtime 2x -run '^$$' -timeout 60m
