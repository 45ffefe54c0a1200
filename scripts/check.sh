#!/bin/sh
# Full verification gate: vet plus the race-enabled test suite, which
# exercises the parallel experiment engine at several worker counts, the
# race-enabled parity sweeps, fixed-budget fuzz runs of the wire frame
# and checkpoint decoders, of engine parity and of delta-repair parity,
# a one-iteration smoke run of the hot-path benchmarks, and the
# telemetry-determinism gate, which proves that attaching the
# observability layer does not change a single byte of experiment output.
# Equivalent to `make check`.
#
# Usage:
#   scripts/check.sh                   vet + race suite + every step below
#   scripts/check.sh obs-determinism   only the telemetry gate
#   scripts/check.sh bench-smoke       only the one-iteration benchmark smoke run
#   scripts/check.sh engine-guard      only the single-round-engine grep guard
#   scripts/check.sh wire-guard        only the wire deadline grep guard
#   scripts/check.sh wire-fuzz         only the 20 s FuzzReadFrame and 10 s FuzzLoadCheckpoint runs over the wire decoders
#   scripts/check.sh region-parity     only the race-enabled wire suite at several region counts + a 15 s FuzzEngineParity run
#   scripts/check.sh soa-parity        only the race-enabled SoA-engine parity gate at several worker counts
#   scripts/check.sh delta-parity      only the race-enabled delta-repair parity gate at several worker counts + a 20 s FuzzDeltaParity run
#   scripts/check.sh workload-specs    only the example-spec validation + online spec smoke
#   scripts/check.sh replay-parity     only the race-enabled trace-replay parity gate
set -eu
cd "$(dirname "$0")/.."

engine_guard() {
	# The DMRA round machinery (per-service selection, BS preference
	# ordering, the select/admit/trim round) lives in internal/engine and
	# nowhere else. A second implementation appearing in a runtime package
	# is exactly the duplication the engine refactor deleted; fail before
	# it can drift.
	dupes=$(grep -rnE 'func .*(selectPerService|SelectPerService|sortByPreference|SortByBSPreference|bsPrefers|SelectRound)\(' \
		--include='*.go' . | grep -v '^\./internal/engine/' || true)
	if [ -n "$dupes" ]; then
		echo "engine guard: round-machine implementations outside internal/engine:" >&2
		echo "$dupes" >&2
		exit 1
	fi
	echo "engine guard: round machinery implemented only in internal/engine"
}

wire_guard() {
	# Every frame moved over a live connection in internal/wire must go
	# through the deadline helpers, which force each call site to state its
	# timeout decision. A direct WriteFrame/ReadFrame on a conn is how an
	# unbounded read sneaks back in and a hung BS becomes a deadlock again.
	direct=$(grep -rnE '\b(WriteFrame|ReadFrame)\(' internal/wire --include='*.go' \
		| grep -v '_test\.go' | grep -v 'internal/wire/codec\.go' \
		| grep -v 'internal/wire/deadline\.go' || true)
	if [ -n "$direct" ]; then
		echo "wire guard: frame I/O bypassing the deadline helpers:" >&2
		echo "$direct" >&2
		exit 1
	fi
	echo "wire guard: all wire frame I/O goes through the deadline helpers"
}

wire_fuzz() {
	# The frame decoder reads bytes from the network and the checkpoint
	# decoder reads a file a crashed run left behind: fuzz both for a
	# fixed budget so a panic, an unbounded allocation, a non-canonical
	# frame or an out-of-range checkpoint accepted by the mutator fails
	# the gate, not a deployment. Checkpoint inputs are kilobytes of
	# JSON; capping minimization keeps the budget on new inputs.
	go test -run '^$' -fuzz FuzzReadFrame -fuzztime 20s ./internal/wire/
	go test -run '^$' -fuzz FuzzLoadCheckpoint -fuzztime 10s -fuzzminimizetime 100x ./internal/wire/
	echo "wire fuzz: FuzzReadFrame ran 20 s and FuzzLoadCheckpoint 10 s without a failure"
}

region_parity() {
	# The TCP coordinator must be byte-identical at every region count and
	# must survive BS crashes. Run the whole wire suite race-enabled at
	# two region counts, so every parity, accounting and failure test
	# doubles as a multi-coordinator test (the parity tests also sweep
	# region counts internally); each sweep runs the chaos iteration — a
	# BS server killed and revived mid-run — race-enabled. A 15 s
	# FuzzEngineParity run then searches new scenarios: the TCP cluster
	# and the simulated protocol share the engine's Proposer, and the
	# fuzzer pins both against the synchronous solver.
	for regions in 1 3; do
		DMRA_TEST_REGIONS=$regions go test -race -count=1 ./internal/wire/
	done
	go test -run '^$' -fuzz FuzzEngineParity -fuzztime 15s ./internal/wire/
	echo "region parity: race-enabled wire suite passed at regions 1 and 3 (incl. chaos + checkpoint/resume); FuzzEngineParity ran 15 s without a failure"
}

soa_parity() {
	# The struct-of-arrays arena engine must be byte-identical to the
	# naive reference — assignments, stats, event streams, round
	# snapshots — at any propose-worker count and either sign of rho. Sweep the worker width
	# race-enabled (like the wire region sweep): workers 3 runs propose on
	# three goroutines (every round of two or more UEs fans out) and, in
	# the unobserved FuzzSoAParity leg, the BS-sliced select too, so this
	# is also the data-race gate on the parallel merge. The 50k-UE smoke
	# run exercises the same parallel path at benchmark-like contention.
	# The engine's own tests run once, race-enabled: the argmin key must
	# order requests exactly like the BS preference, and
	# TestArenaSelectWidths / TestArenaObservedProposeWidths sweep their
	# own widths (2, 3, 5, 16 against a serial run), unobserved and
	# observed, the latter including the per-round swept counts.
	for workers in 1 3; do
		DMRA_TEST_PROPOSE_WORKERS=$workers go test -race -count=1 \
			-run 'TestSoA|FuzzSoAParity' ./internal/alloc/
	done
	go test -race -count=1 -run 'TestSelectKey|TestArena' ./internal/engine/
	DMRA_TEST_PROPOSE_WORKERS=3 go test -race -count=1 -run 'TestSoASmoke50k' \
		-timeout 20m ./internal/alloc/
	echo "soa parity: race-enabled SoA engine gate passed at workers 1 and 3 (+ engine key/width tests, 50k smoke)"
}

delta_parity() {
	# The incremental delta-repair engine must reproduce from-scratch DMRA
	# (the naive reference) exactly — per-UE placements, residual
	# ledgers, round counters, and with hooks the frontier's ordered
	# event stream — across churn scripts at any propose-worker count.
	# Sweep the worker width race-enabled like the SoA gate; the fuzz
	# seeds run as regular tests, replaying the checked-in corpus
	# (including past crashers). TestSession* pins the online session's
	# epoch routes (default delta repair, Incremental, observed, and the
	# from-scratch reference, at both signs of rho) to identical reports.
	# A 20 s fuzz run then searches new churn scripts: Settle's lazy credit
	# check is the one place a stale candidate drop could survive.
	for workers in 1 3; do
		DMRA_TEST_PROPOSE_WORKERS=$workers go test -race -count=1 \
			-run 'TestDelta|TestIncremental|TestSession|FuzzDeltaParity' ./internal/alloc/ ./internal/engine/ ./internal/online/
	done
	go test -run '^$' -fuzz FuzzDeltaParity -fuzztime 20s ./internal/alloc/
	echo "delta parity: race-enabled delta-repair gate passed at workers 1 and 3; FuzzDeltaParity ran 20 s without a failure"
}

bench_smoke() {
	# One iteration of each hot-path benchmark: catches benchmarks that
	# panic or scenarios that no longer build, without timing anything.
	# -short skips only the million-UE rungs (seconds of build each);
	# `make bench-1m` covers those.
	go test -short -run '^$' -bench 'BenchmarkAllocate$|BenchmarkNewNetwork$' \
		-benchtime 1x ./internal/alloc/ ./internal/workload/
	go test -run '^$' -bench 'BenchmarkCluster$' -benchtime 1x ./internal/wire/
	echo "bench smoke: BenchmarkAllocate, BenchmarkNewNetwork, and BenchmarkCluster ran clean"
}

workload_specs() {
	# Every checked-in example workload spec must load (strict parse +
	# validation) and drive a short online session end to end. The smoke
	# runs race-enabled: cohort bookkeeping and the per-epoch matcher share
	# the session, so a data race here is a correctness bug, not noise.
	for spec in examples/specs/*.json; do
		case "$spec" in
		*trace-replay.json)
			# Trace specs have no intrinsic offered load: pool is explicit.
			go run -race ./cmd/dmra-online -spec "$spec" -duration 30 -pool 200 > /dev/null
			;;
		*)
			go run -race ./cmd/dmra-online -spec "$spec" -duration 30 > /dev/null
			;;
		esac
		echo "workload specs: $spec drove a 30 s session clean"
	done
}

replay_parity() {
	# The time-travel debugger's foundation: state reconstructed from a
	# JSONL trace must equal the live engine state at every round barrier,
	# for all three runtimes at several region counts. Race-enabled because
	# the wire runtime's round hook runs against live region goroutines.
	go test -race -count=1 -run 'TestReplayParity|TestDiffAcrossRuntimes' ./internal/replay/
	echo "replay parity: reconstructed state matches live engine state across alloc, protocol and wire"
}

obs_determinism() {
	# Run one figure twice — plain, and with the full observability stack
	# (ephemeral debug server + JSONL trace + instrumented grid) — and
	# require byte-identical tables. Any telemetry leak into the results
	# fails the gate.
	tmp=$(mktemp -d)
	trap 'rm -rf "$tmp"' EXIT
	go run ./cmd/dmra-figures -fig 2 -seeds 2 -out "$tmp/plain" > /dev/null
	go run ./cmd/dmra-figures -fig 2 -seeds 2 -out "$tmp/obs" \
		-obs-addr 127.0.0.1:0 -trace "$tmp/trace.jsonl" > /dev/null
	diff "$tmp/plain/fig2.csv" "$tmp/obs/fig2.csv"
	test -s "$tmp/trace.jsonl" || { echo "obs run produced no trace events" >&2; exit 1; }
	echo "obs determinism: fig2 tables byte-identical with and without telemetry"
}

case "${1:-}" in
obs-determinism)
	obs_determinism
	exit 0
	;;
bench-smoke)
	bench_smoke
	exit 0
	;;
engine-guard)
	engine_guard
	exit 0
	;;
wire-guard)
	wire_guard
	exit 0
	;;
wire-fuzz)
	wire_fuzz
	exit 0
	;;
region-parity)
	region_parity
	exit 0
	;;
soa-parity)
	soa_parity
	exit 0
	;;
delta-parity)
	delta_parity
	exit 0
	;;
workload-specs)
	workload_specs
	exit 0
	;;
replay-parity)
	replay_parity
	exit 0
	;;
esac

go vet ./...
# The engine's parity-critical tests run race-enabled as part of the full
# suite below; internal/engine is called out here so a failure names the
# layer that broke.
go test -race ./internal/engine/
go test -race ./...
wire_fuzz
region_parity
soa_parity
delta_parity
replay_parity
bench_smoke
workload_specs
obs_determinism
engine_guard
wire_guard
