// Differential tests pinning the struct-of-arrays arena engine to the
// naive reference: identical assignments, statistics, ordered event
// streams, and per-round snapshots, at every propose worker count. In
// package alloc_test so it can drive internal/protocol (which imports
// alloc) for the cross-runtime event comparison.
package alloc_test

import (
	"os"
	"strconv"
	"testing"

	"dmra/internal/alloc"
	"dmra/internal/engine"
	"dmra/internal/mec"
	"dmra/internal/obs"
	"dmra/internal/protocol"
	"dmra/internal/workload"
)

// soaTestWorkers returns the propose-worker counts the SoA parity tests
// sweep. scripts/check.sh sets DMRA_TEST_PROPOSE_WORKERS to pin a single
// width (1 and 3, race-enabled) the way the wire suite sweeps
// DMRA_TEST_REGIONS; unset, the tests sweep a spread locally.
func soaTestWorkers() []int {
	if v := os.Getenv("DMRA_TEST_PROPOSE_WORKERS"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil {
			panic("DMRA_TEST_PROPOSE_WORKERS must be an integer, got " + v)
		}
		return []int{n}
	}
	return []int{1, 2, 3, 7}
}

// soaRun executes one observed allocation and returns everything the
// parity checks compare: the result, the ordered event stream, and the
// per-round snapshot clones.
func soaRun(t *testing.T, d *alloc.DMRA, net *mec.Network) (alloc.Result, []obs.Event, []*engine.Snapshot) {
	t.Helper()
	sink := obs.NewSink(nil, 1<<17)
	var snaps []*engine.Snapshot
	d.WithObserver(obs.NewRecorder(nil, sink)).
		WithRoundHook(func(s *engine.Snapshot) { snaps = append(snaps, s.Clone()) })
	res, err := d.Allocate(net)
	if err != nil {
		t.Fatalf("allocate: %v", err)
	}
	if int64(len(sink.Events())) != sink.Total() {
		t.Fatalf("event ring dropped events: %d buffered, %d emitted", len(sink.Events()), sink.Total())
	}
	return res, sink.Events(), snaps
}

// comparePlain asserts two allocations agree on assignment and
// statistics — the whole output of an unobserved run.
func comparePlain(t *testing.T, label string, a, b alloc.Result) {
	t.Helper()
	if a.Stats != b.Stats {
		t.Fatalf("%s: stats diverge: %+v vs %+v", label, a.Stats, b.Stats)
	}
	for u := range a.Assignment.ServingBS {
		if a.Assignment.ServingBS[u] != b.Assignment.ServingBS[u] {
			t.Fatalf("%s: UE %d: %d vs %d", label, u, a.Assignment.ServingBS[u], b.Assignment.ServingBS[u])
		}
	}
}

// compareRuns asserts two observed runs are byte-identical: same
// assignment, statistics, event stream, and snapshot sequence.
func compareRuns(t *testing.T, label string,
	aRes alloc.Result, aEvents []obs.Event, aSnaps []*engine.Snapshot,
	bRes alloc.Result, bEvents []obs.Event, bSnaps []*engine.Snapshot) {
	t.Helper()
	if aRes.Stats != bRes.Stats {
		t.Fatalf("%s: stats diverge: %+v vs %+v", label, aRes.Stats, bRes.Stats)
	}
	for u := range aRes.Assignment.ServingBS {
		if aRes.Assignment.ServingBS[u] != bRes.Assignment.ServingBS[u] {
			t.Fatalf("%s: UE %d: %d vs %d", label, u,
				aRes.Assignment.ServingBS[u], bRes.Assignment.ServingBS[u])
		}
	}
	if len(aEvents) != len(bEvents) {
		t.Fatalf("%s: %d events vs %d", label, len(aEvents), len(bEvents))
	}
	for i := range aEvents {
		if aEvents[i].Key() != bEvents[i].Key() || aEvents[i].Kind != bEvents[i].Kind {
			t.Fatalf("%s: event %d: %+v vs %+v", label, i, aEvents[i], bEvents[i])
		}
	}
	if len(aSnaps) != len(bSnaps) {
		t.Fatalf("%s: %d snapshots vs %d", label, len(aSnaps), len(bSnaps))
	}
	for i := range aSnaps {
		if diff := aSnaps[i].Diff(bSnaps[i]); diff != nil {
			t.Fatalf("%s: snapshot %d diverges:\n%v", label, i, diff)
		}
	}
}

// TestSoAParity pins the SoA arena engine against the naive reference
// on a spread of scenario seeds, at every swept worker count:
// assignments, statistics, ordered event streams, and round snapshots
// must be byte-identical. Race-enabled runs of this test (check.sh's
// soa-parity gate at workers 3) double as the data-race gate on the
// parallel propose merge.
func TestSoAParity(t *testing.T) {
	for _, seed := range []uint64{1, 7, 42, 99, 1234} {
		net, err := alloc.GenScenarioForTest(seed).Build(seed)
		if err != nil {
			continue
		}
		if net.Dense() == nil {
			t.Fatalf("seed %d: NewNetwork-built scenario has no dense view", seed)
		}
		dcfg := alloc.DefaultDMRAConfig()
		naiveRes, naiveEvents, naiveSnaps := soaRun(t, alloc.NewDMRA(dcfg).ForceNaive(), net)
		for _, workers := range soaTestWorkers() {
			res, events, snaps := soaRun(t, alloc.NewDMRA(dcfg).WithProposeWorkers(workers), net)
			compareRuns(t, "seed "+strconv.FormatUint(seed, 10)+" workers "+strconv.Itoa(workers),
				res, events, snaps, naiveRes, naiveEvents, naiveSnaps)
		}
	}
}

// TestSoARoundHookSerialVsParallel is the satellite regression test for
// the RoundHook contract: snapshots exported by the arena engine must be
// identical under serial and parallel propose, round by round.
func TestSoARoundHookSerialVsParallel(t *testing.T) {
	seed := uint64(4242)
	net, err := alloc.GenScenarioForTest(seed).Build(seed)
	if err != nil {
		t.Fatalf("build: %v", err)
	}
	dcfg := alloc.DefaultDMRAConfig()
	serialRes, serialEvents, serialSnaps := soaRun(t, alloc.NewDMRA(dcfg).WithProposeWorkers(1), net)
	if len(serialSnaps) == 0 {
		t.Fatal("round hook never fired")
	}
	for _, workers := range []int{2, 3, 5, 16} {
		res, events, snaps := soaRun(t, alloc.NewDMRA(dcfg).WithProposeWorkers(workers), net)
		compareRuns(t, "workers "+strconv.Itoa(workers),
			res, events, snaps, serialRes, serialEvents, serialSnaps)
	}
}

// TestSoASmoke50k runs a 53,900-UE dense-city match (the base rush-hour
// scenario at edge scale 7) and pins the serial arena engine to the
// naive reference, and parallel propose to the serial run: identical
// statistics and assignments at every swept worker count. At this
// population the pending list splits into many real chunks per round,
// so a race-enabled run (check.sh's soa-parity gate at workers 3)
// exercises the merge at benchmark-like scale, not toy scale. Plain
// Allocate, no observer: the event volume here would swamp the test
// sink, and stream-level parity is already pinned by TestSoAParity and
// FuzzSoAParity.
func TestSoASmoke50k(t *testing.T) {
	net, err := workload.DenseCity().Scale(7).Build(1)
	if err != nil {
		t.Fatalf("build: %v", err)
	}
	dcfg := alloc.DefaultDMRAConfig()
	serial, err := alloc.NewDMRA(dcfg).WithProposeWorkers(1).Allocate(net)
	if err != nil {
		t.Fatalf("serial allocate: %v", err)
	}
	if err := mec.ValidateAssignment(net, serial.Assignment); err != nil {
		t.Fatalf("serial assignment infeasible: %v", err)
	}
	if serial.Stats.Accepts == 0 {
		t.Fatal("50k scenario matched nothing; smoke is vacuous")
	}
	naive, err := alloc.NewDMRA(dcfg).ForceNaive().Allocate(net)
	if err != nil {
		t.Fatalf("naive allocate: %v", err)
	}
	comparePlain(t, "arena vs naive", serial, naive)
	for _, workers := range soaTestWorkers() {
		if workers == 1 {
			continue
		}
		par, err := alloc.NewDMRA(dcfg).WithProposeWorkers(workers).Allocate(net)
		if err != nil {
			t.Fatalf("workers %d: allocate: %v", workers, err)
		}
		if par.Stats != serial.Stats {
			t.Fatalf("workers %d: stats diverge: %+v vs serial %+v", workers, par.Stats, serial.Stats)
		}
		for u := range serial.Assignment.ServingBS {
			if par.Assignment.ServingBS[u] != serial.Assignment.ServingBS[u] {
				t.Fatalf("workers %d: UE %d: %d vs serial %d", workers, u,
					par.Assignment.ServingBS[u], serial.Assignment.ServingBS[u])
			}
		}
	}
}

// FuzzSoAParity is the SoA differential fuzz gate: on random scenarios,
// configurations (rho of either sign), and propose-worker counts, the
// arena engine must match the naive reference byte for byte —
// assignment, statistics, ordered event stream, round snapshots — both
// observed and unobserved (the unobserved leg is the one that selects
// on several workers; the observed one pins event order with a
// one-worker select), and the message-passing protocol runtime must
// emit the same event stream as the SoA solver
// (the wire runtime is pinned to the protocol stream, with seed-derived
// SoA worker counts on its solver side, by FuzzEngineParity in
// internal/wire — closing the three-runtime loop).
func FuzzSoAParity(f *testing.F) {
	f.Add(uint64(1), int16(250), uint8(0), uint8(1))
	f.Add(uint64(7), int16(0), uint8(1), uint8(3))
	f.Add(uint64(42), int16(777), uint8(2), uint8(2))
	f.Add(uint64(1234), int16(1000), uint8(3), uint8(8))
	f.Add(uint64(99), int16(31), uint8(0), uint8(0))
	f.Add(uint64(11), int16(-160), uint8(1), uint8(4))
	f.Fuzz(func(t *testing.T, seed uint64, rhoRaw int16, flags, workersRaw uint8) {
		net, err := alloc.GenScenarioForTest(seed).Build(seed)
		if err != nil {
			t.Skip() // generator can produce shapes Build rejects; not under test
		}
		workers := 1 + int(workersRaw%8)
		dcfg := alloc.DMRAConfig{
			Rho:        float64(rhoRaw) / 4,
			SPPriority: flags&1 == 0,
			FuTieBreak: flags&2 == 0,
		}

		naiveRes, naiveEvents, naiveSnaps := soaRun(t, alloc.NewDMRA(dcfg).ForceNaive(), net)
		soaRes, soaEvents, soaSnaps := soaRun(t, alloc.NewDMRA(dcfg).WithProposeWorkers(workers), net)
		compareRuns(t, "soa vs naive", soaRes, soaEvents, soaSnaps, naiveRes, naiveEvents, naiveSnaps)

		// Unobserved: no hook forces the select onto one worker, so the
		// BS-sliced select runs at the fuzzed width — it has no size
		// threshold (engine.TestArenaSelectWidths checks it fans out at
		// this scale) — and must still match the naive reference.
		plainSoA, err := alloc.NewDMRA(dcfg).WithProposeWorkers(workers).Allocate(net)
		if err != nil {
			t.Fatalf("soa allocate: %v", err)
		}
		comparePlain(t, "unobserved soa vs naive", plainSoA, naiveRes)
		comparePlain(t, "unobserved vs observed soa", plainSoA, soaRes)

		// Cross-runtime: the message-passing protocol must reproduce the SoA
		// solver's assignment and round/request/verdict counters exactly.
		// (Its event stream legitimately differs in kind vocabulary — it
		// emits permanent rejects and broadcasts the synchronous solver
		// folds into the next round — so the stream-level gate is
		// solver-vs-solver above and protocol-vs-wire in internal/wire.)
		pres, err := protocol.Run(net, protocol.Config{DMRA: dcfg, LatencyS: 1e-3})
		if err != nil {
			t.Fatalf("protocol: %v", err)
		}
		for u := range soaRes.Assignment.ServingBS {
			if pres.Assignment.ServingBS[u] != soaRes.Assignment.ServingBS[u] {
				t.Fatalf("UE %d: protocol -> %d, soa -> %d",
					u, pres.Assignment.ServingBS[u], soaRes.Assignment.ServingBS[u])
			}
		}
		if pres.Rounds != soaRes.Stats.Iterations || pres.Requests != soaRes.Stats.Proposals ||
			pres.Accepts != soaRes.Stats.Accepts || pres.Rejects != soaRes.Stats.Rejects {
			t.Fatalf("protocol counters (%d rounds, %d reqs, %d acc, %d rej) != soa stats %+v",
				pres.Rounds, pres.Requests, pres.Accepts, pres.Rejects, soaRes.Stats)
		}
	})
}
