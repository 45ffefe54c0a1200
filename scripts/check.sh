#!/bin/sh
# Full verification gate: gofmt and vet plus the race-enabled test
# suite, which exercises the parallel experiment engine at several worker
# counts, the race-enabled parity sweeps, fixed-budget fuzz runs of the
# wire frame and checkpoint decoders, of the BS server's round handler,
# of the feasibility validator, of
# the radio link kernel and of the differential parity harness, a
# one-iteration smoke run of the hot-path benchmarks with the non-race
# allocation-count tests, vet and tests of the bench/ module, the
# telemetry-determinism gate, which proves that attaching the
# observability layer does not change a single byte of experiment output,
# and the grep guards: the round machinery lives only in internal/engine,
# resource books (Residual/Admit methods) only in internal/mec, and wire
# frame I/O goes through the deadline helpers.
# Equivalent to `make check`.
#
# Usage:
#   scripts/check.sh                   gofmt + vet + race suite + every step below
#   scripts/check.sh gofmt             only the gofmt gate
#   scripts/check.sh obs-determinism   only the telemetry gate
#   scripts/check.sh bench-smoke       only the one-iteration benchmark smoke run + the allocation-count tests
#   scripts/check.sh engine-guard      only the single-round-engine and single-residual-book grep guard
#   scripts/check.sh wire-guard        only the wire deadline grep guard
#   scripts/check.sh wire-fuzz         only the 20 s FuzzReadFrame and 10 s FuzzLoadCheckpoint runs over the wire decoders + the 10 s FuzzServeRequests run of the BS server's round handler
#   scripts/check.sh mec-fuzz          only the 10 s FuzzValidateAssignment run of the feasibility validator against the ledger replay
#   scripts/check.sh radio-fuzz        only the 10 s FuzzPow10 and FuzzLog2 runs of the link kernel against the standard library
#   scripts/check.sh region-parity     only the race-enabled wire suite at several region counts
#   scripts/check.sh parity            only the race-enabled differential parity harness at several widths and region counts + a 35 s FuzzParity run
#   scripts/check.sh workload-specs    only the example-spec validation + online spec smoke
#   scripts/check.sh replay-parity     only the race-enabled trace-replay parity gate
#   scripts/check.sh bench-module      only vet + tests of the bench/ module
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
	# Every runtime keeps its residuals in the one mec.Book. A
	# Residual/Admit method elsewhere is a second resource book (the
	# per-runtime ledgers and adapters this replaced); obs.Recorder's
	# Residual is a gauge, not a book.
	books=$(grep -rnE 'func \([^)]*\) (Residual|Admit)\(' --include='*.go' . \
		| grep -v '^\./internal/mec/' | grep -v '^\./internal/obs/recorder\.go:.*(r \*Recorder) Residual(' || true)
	if [ -n "$books" ]; then
		echo "engine guard: resource books outside internal/mec:" >&2
		echo "$books" >&2
		exit 1
	fi
	echo "engine guard: round machinery implemented only in internal/engine, residual books only in internal/mec"
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
	# A BS server answers whatever request frames decode: a frame naming
	# a service it does not serve or a negative demand must get an
	# in-band error, never a panic that takes the server down.
	go test -run '^$' -fuzz FuzzServeRequests -fuzztime 10s ./internal/wire/
	echo "wire fuzz: FuzzReadFrame ran 20 s, FuzzLoadCheckpoint 10 s and FuzzServeRequests 10 s without a failure"
}

mec_fuzz() {
	# mec.ValidateAssignment is the feasibility check every runtime's
	# output passes and it reads assignments it did not produce: fuzz it
	# against the ledger replay (State.Assign per served UE, then
	# CheckInvariants) so a verdict that differs, or a panic on a wild BS
	# ID, fails the gate.
	go test -run '^$' -fuzz FuzzValidateAssignment -fuzztime 10s ./internal/mec/
	echo "mec fuzz: FuzzValidateAssignment ran 10 s without a failure"
}

radio_fuzz() {
	# The link kernel's pow10 and log2 repeat math.Pow(10, y) and
	# math.Log2(x) step for step so every candidate link stays
	# bit-identical to the literal chain: fuzz both over arbitrary bit
	# patterns so a rounding that drifts from the standard library fails
	# the gate, not a golden store.
	go test -run '^$' -fuzz '^FuzzPow10$' -fuzztime 10s ./internal/radio/
	go test -run '^$' -fuzz '^FuzzLog2$' -fuzztime 10s ./internal/radio/
	echo "radio fuzz: FuzzPow10 and FuzzLog2 ran 10 s each without a failure"
}

gofmt_check() {
	# Formatting drift is invisible to vet and the tests; fail on any
	# file gofmt would rewrite.
	unformatted=$(gofmt -l .)
	if [ -n "$unformatted" ]; then
		echo "gofmt: files need formatting:" >&2
		echo "$unformatted" >&2
		exit 1
	fi
	echo "gofmt: every Go file is formatted"
}

region_parity() {
	# The TCP coordinator must be byte-identical at every region count and
	# must survive BS crashes. Run the whole wire suite race-enabled at
	# three region counts, so every accounting, checkpoint and failure
	# test doubles as a multi-coordinator test; each sweep runs the chaos
	# iteration — a BS server killed and revived mid-run — race-enabled.
	# Two regions is the benchmark's count and the first at which
	# sub-batches from several regions merge and regions apply their
	# verdicts concurrently. Region-count parity against the other
	# runtimes is the parity step's.
	for regions in 1 2 3; do
		DMRA_TEST_REGIONS=$regions go test -race -count=1 ./internal/wire/
	done
	echo "region parity: race-enabled wire suite passed at regions 1, 2 and 3 (incl. chaos + checkpoint/resume)"
}

parity() {
	# DMRA must reach the same matching in memory, as UE/BS messages and
	# over TCP. TestParity and FuzzParity (internal/alloc) pin the arena
	# engine and the incremental delta-repair engine to the naive
	# reference — assignments, stats, ordered events, round snapshots,
	# residual ledgers — and the protocol and the region cluster to each
	# other and to the solver. Run the harness race-enabled at propose
	# width and region count 1, then 3: width 3 runs propose (and, when
	# unobserved, the BS-sliced select) on three goroutines, so this is
	# also the data-race gate on the parallel merge; the fuzz seeds replay
	# as tests. The 50k-UE smoke runs the same parallel path at
	# benchmark-like contention. The engine's own tests run race-enabled
	# too: the argmin key must order requests exactly like the BS
	# preference, TestArenaSelectWidths / TestArenaObservedProposeWidths
	# sweep their own widths, TestIncremental* pins the credit epochs, and
	# online's TestSession* pins the session's epoch routes to identical
	# reports. A 35 s fuzz run then searches new scenarios and churn
	# scripts; its TCP rows are paced to the loopback port budget, so it
	# runs two workers whatever the core count, and a 20-exec
	# minimization cap keeps the budget on new inputs.
	for n in 1 3; do
		DMRA_TEST_PROPOSE_WORKERS=$n DMRA_TEST_REGIONS=$n go test -race -count=1 \
			-run 'TestParity|FuzzParity|TestSoASmoke50k' -timeout 20m ./internal/alloc/
		go test -race -count=1 -run 'TestIncremental|TestSession' ./internal/engine/ ./internal/online/
	done
	go test -race -count=1 -run 'TestSelectKey|TestArena' ./internal/engine/
	go test -run '^$' -fuzz FuzzParity -fuzztime 35s -fuzzminimizetime 20x -parallel 2 ./internal/alloc/
	echo "parity: race-enabled harness passed at width/regions 1 and 3 (+ 50k smoke, engine and session tests); FuzzParity ran 35 s without a failure"
}

bench_smoke() {
	# One iteration of each hot-path benchmark: catches benchmarks that
	# panic or scenarios that no longer build, without timing anything.
	# -short skips only the million-UE rungs (seconds of build each);
	# `make bench-1m` covers those.
	go test -short -run '^$' -bench 'BenchmarkAllocate$|BenchmarkNewNetwork$' \
		-benchtime 1x ./internal/alloc/ ./internal/workload/
	go test -run '^$' -bench 'BenchmarkCluster$' -benchtime 1x ./internal/wire/
	# The allocation counts README promises (a steady-state match and an
	# Arena reset allocate nothing, a churn epoch at most once) skip
	# under the race-enabled suite, whose detector makes sync.Pool drop
	# items, so they run here without it.
	go test -count=1 -run 'AllocationFree|TestChurnEpochAllocations' ./internal/alloc/ ./internal/engine/
	echo "bench smoke: BenchmarkAllocate, BenchmarkNewNetwork, and BenchmarkCluster ran clean; allocation counts hold"
}

workload_specs() {
	# Every checked-in example workload spec must load (strict parse +
	# validation) and drive a short online session end to end on both
	# epoch routes: DMRA's delta repair against the engine's ledger, and
	# DCSP's from-scratch re-match, whose mec.State is the only one a
	# session builds and fails the epoch on a refused grant. The smoke
	# runs race-enabled: cohort bookkeeping and the per-epoch matcher share
	# the session, so a data race here is a correctness bug, not noise.
	for spec in examples/specs/*.json; do
		pool=""
		case "$spec" in
		*trace-replay.json)
			# Trace specs have no intrinsic offered load: pool is explicit.
			pool="-pool 200"
			;;
		esac
		for algo in dmra dcsp; do
			go run -race ./cmd/dmra-online -spec "$spec" -duration 30 -algo "$algo" $pool > /dev/null
			echo "workload specs: $spec drove a 30 s $algo session clean"
		done
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

bench_module() {
	# bench/ is a module of its own that compiles against the program's
	# packages, and nothing else in the gate builds it: vet and test it
	# so an API change that breaks the benchmark fails here, not in a
	# benchmark run.
	go -C bench vet ./...
	go -C bench test -count=1 ./...
	echo "bench module: vet and tests passed"
}

obs_determinism() {
	# Run each replication grid twice — plain, and with the full
	# observability stack (ephemeral debug server + JSONL trace +
	# instrumented grid) — and require byte-identical tables. Any
	# telemetry leak into the results fails the gate. The grids covered:
	# one paper figure (dmra-figures), one non-paper axis (dmra-sweep's
	# exp.Figure path, sequential against GOMAXPROCS workers) and one
	# arrival-rate sweep; all of them fill their tables through
	# exp.Replicate.
	tmp=$(mktemp -d)
	trap 'rm -rf "$tmp"' EXIT
	go build -o "$tmp/bin/" ./cmd/dmra-figures ./cmd/dmra-sweep
	"$tmp/bin/dmra-figures" -fig 2 -seeds 2 -out "$tmp/plain" > /dev/null
	"$tmp/bin/dmra-figures" -fig 2 -seeds 2 -out "$tmp/obs" \
		-obs-addr 127.0.0.1:0 -trace "$tmp/trace.jsonl" > /dev/null
	diff "$tmp/plain/fig2.csv" "$tmp/obs/fig2.csv"
	test -s "$tmp/trace.jsonl" || { echo "obs run produced no trace events" >&2; exit 1; }
	for sweep in "-param coverage -values 300,400 -seeds 2" \
		"-param arrival-rate -values 1,2 -hold 20 -duration 60 -seeds 2"; do
		# shellcheck disable=SC2086 # $sweep is a word list on purpose
		"$tmp/bin/dmra-sweep" $sweep > "$tmp/sweep-plain.txt"
		# shellcheck disable=SC2086
		"$tmp/bin/dmra-sweep" $sweep -procs 1 -obs-addr 127.0.0.1:0 -trace "$tmp/sweep.jsonl" \
			| grep -v '^obs: ' > "$tmp/sweep-obs.txt"
		diff "$tmp/sweep-plain.txt" "$tmp/sweep-obs.txt"
		test -s "$tmp/sweep.jsonl" || { echo "dmra-sweep $sweep produced no trace events" >&2; exit 1; }
	done
	echo "obs determinism: fig2, coverage and arrival-rate tables byte-identical with and without telemetry"
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
mec-fuzz)
	mec_fuzz
	exit 0
	;;
radio-fuzz)
	radio_fuzz
	exit 0
	;;
gofmt)
	gofmt_check
	exit 0
	;;
region-parity)
	region_parity
	exit 0
	;;
parity)
	parity
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
bench-module)
	bench_module
	exit 0
	;;
esac

gofmt_check
go vet ./...
# The engine's parity-critical tests run race-enabled as part of the full
# suite below; internal/engine is called out here so a failure names the
# layer that broke.
go test -race ./internal/engine/
go test -race ./...
wire_fuzz
mec_fuzz
radio_fuzz
region_parity
parity
replay_parity
bench_smoke
bench_module
workload_specs
obs_determinism
engine_guard
wire_guard
