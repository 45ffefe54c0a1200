// Differential tests pinning the incremental delta-repair engine to
// from-scratch DMRA: an engine.Incremental driven through fuzzed
// arrival/departure/demand-change sequences must hold exactly the
// assignment, residuals, and round statistics that re-running Alg. 1
// from scratch over each epoch's waiting set produces. The observed leg
// also pins the settle's event stream to the from-scratch one. In
// package alloc_test alongside the SoA parity suite, whose worker-count
// sweep (DMRA_TEST_PROPOSE_WORKERS) it shares.
package alloc_test

import (
	"testing"

	"dmra/internal/alloc"
	"dmra/internal/engine"
	"dmra/internal/mec"
	"dmra/internal/obs"
)

// deltaHarness drives the incremental engine and the from-scratch
// comparator (mec.State + SubView + the naive reference) through one
// identical churn sequence, comparing after every epoch. An observed
// harness settles through alloc.ArenaHooks and runs the comparator with
// an observer, comparing their event streams too.
type deltaHarness struct {
	t        *testing.T
	net      *mec.Network
	state    *mec.State
	sub      *mec.SubView
	dcfg     alloc.DMRAConfig
	observed bool
	res      alloc.Result
	inc      *engine.Incremental

	// Session-mirroring population state: every UE is in exactly one of
	// inactive, waiting, or active (active splits into edge — assigned
	// in state — and cloud).
	waiting  []mec.UEID
	active   []mec.UEID
	inactive []mec.UEID
}

func newDeltaHarness(t *testing.T, net *mec.Network, dcfg alloc.DMRAConfig, workers int, observed bool) *deltaHarness {
	t.Helper()
	h := &deltaHarness{
		t:        t,
		net:      net,
		state:    mec.NewState(net),
		sub:      net.NewSubView(),
		dcfg:     dcfg,
		observed: observed,
		inc:      new(engine.Incremental),
	}
	if err := h.inc.Begin(net, engine.Config(dcfg), workers); err != nil {
		t.Fatalf("Begin: %v", err)
	}
	h.inactive = make([]mec.UEID, len(net.UEs))
	for u := range h.inactive {
		h.inactive[u] = mec.UEID(u)
	}
	return h
}

// step applies one churn event decoded from b: two arrival codes (churn
// is arrival-heavy in every workload), one departure, one demand
// change, with the pick index and new demand drawn from the high bits.
func (h *deltaHarness) step(b byte) {
	arg := int(b >> 2)
	switch b & 3 {
	case 0, 1: // arrival
		if len(h.inactive) == 0 {
			return
		}
		k := arg % len(h.inactive)
		u := h.inactive[k]
		h.inactive[k] = h.inactive[len(h.inactive)-1]
		h.inactive = h.inactive[:len(h.inactive)-1]
		h.waiting = append(h.waiting, u)
		if err := h.inc.Arrive(u); err != nil {
			h.t.Fatalf("Arrive(%d): %v", u, err)
		}
	case 2: // departure of an active UE (edge or cloud)
		if len(h.active) == 0 {
			return
		}
		k := arg % len(h.active)
		u := h.active[k]
		h.active[k] = h.active[len(h.active)-1]
		h.active = h.active[:len(h.active)-1]
		if h.state.Assigned(u) {
			h.state.Unassign(u)
		}
		h.inc.Depart(u)
		h.inactive = append(h.inactive, u)
	case 3: // demand change, on any UE in any lifecycle state
		if len(h.net.UEs) == 0 {
			return
		}
		u := mec.UEID(arg % len(h.net.UEs))
		d := 1 + arg%6
		if h.state.Assigned(u) {
			// An assigned UE must be released before its demand mutates
			// (state.Unassign credits ue.CRUDemand), then re-compete: the
			// comparator re-queues it, mirroring SetDemand's re-pend.
			h.state.Unassign(u)
			for k, a := range h.active {
				if a == u {
					h.active[k] = h.active[len(h.active)-1]
					h.active = h.active[:len(h.active)-1]
					break
				}
			}
			h.waiting = append(h.waiting, u)
		}
		h.net.UEs[u].CRUDemand = d
		if err := h.inc.SetDemand(u, d); err != nil {
			h.t.Fatalf("SetDemand(%d, %d): %v", u, d, err)
		}
	}
}

// epoch settles the incremental engine, re-runs from-scratch DMRA over
// the same waiting set and residuals, and requires identical outcomes:
// per-UE placements, full per-BS/per-service residual ledgers, the
// Alg. 1 round counters, and in the observed leg the event streams.
func (h *deltaHarness) epoch() {
	if len(h.waiting) == 0 {
		return
	}
	t := h.t
	naive := alloc.NewDMRA(h.dcfg).ForceNaive()
	var hooks *engine.SoAHooks
	var incSink, naiveSink *obs.Sink
	var snaps int
	var last *engine.Snapshot
	if h.observed {
		incSink, naiveSink = obs.NewSink(nil, 1<<16), obs.NewSink(nil, 1<<16)
		hooks = alloc.ArenaHooks(obs.NewRecorder(nil, incSink))
		hooks.Snapshot = func(s *engine.Snapshot) { snaps, last = snaps+1, s }
		naive.WithObserver(obs.NewRecorder(nil, naiveSink))
	}
	ds, err := h.inc.SettleWith(hooks)
	if err != nil {
		t.Fatalf("Settle: %v", err)
	}
	sub := h.sub.Refresh(h.waiting, h.state)
	if err := naive.AllocateInto(sub, &h.res); err != nil {
		t.Fatalf("from-scratch allocate: %v", err)
	}
	if h.observed {
		h.compareEvents(ds.Frontier, incSink, naiveSink)
		// One snapshot per round, the last one the settled engine state.
		if snaps != ds.Rounds {
			t.Fatalf("%d snapshots over %d settle rounds", snaps, ds.Rounds)
		}
		if last != nil {
			for u, b := range h.inc.Serving() {
				if last.ServingBS[u] != mec.BSID(b) {
					t.Fatalf("final snapshot: UE %d on %d, engine %d", u, last.ServingBS[u], b)
				}
			}
			for b := range h.net.BSs {
				if last.RemRRB[b] != h.inc.RemRRB(b) {
					t.Fatalf("final snapshot: BS %d residual RRBs %d, engine %d", b, last.RemRRB[b], h.inc.RemRRB(b))
				}
			}
		}
	}
	if ds.Proposals != h.res.Stats.Proposals || ds.Accepts != h.res.Stats.Accepts ||
		ds.Rejects != h.res.Stats.Rejects {
		t.Fatalf("repair stats diverge: delta %+v vs from-scratch %+v", ds, h.res.Stats)
	}
	// A frontier of zero means every waiting UE had no candidates; the
	// from-scratch run still spins its one empty round.
	if ds.Frontier > 0 && ds.Rounds != h.res.Stats.Iterations {
		t.Fatalf("repair rounds %d != from-scratch rounds %d", ds.Rounds, h.res.Stats.Iterations)
	}

	serving := h.inc.Serving()
	for _, u := range h.waiting {
		want := h.res.Assignment.ServingBS[u]
		if got := serving[u]; got != int32(want) {
			t.Fatalf("UE %d: delta-repair -> %d, from-scratch -> %d", u, got, want)
		}
		if want != mec.CloudBS {
			if err := h.state.Assign(u, want); err != nil {
				t.Fatalf("Assign(%d, %d): %v", u, want, err)
			}
		}
		h.active = append(h.active, u)
	}
	h.waiting = h.waiting[:0]

	for b := 0; b < len(h.net.BSs); b++ {
		for j := 0; j < h.net.Services; j++ {
			if got, want := h.inc.RemCRU(b, j), h.state.RemainingCRU(mec.BSID(b), mec.ServiceID(j)); got != want {
				t.Fatalf("BS %d service %d: delta residual CRUs %d, from-scratch %d", b, j, got, want)
			}
		}
		if got, want := h.inc.RemRRB(b), h.state.RemainingRRBs(mec.BSID(b)); got != want {
			t.Fatalf("BS %d: delta residual RRBs %d, from-scratch %d", b, got, want)
		}
	}
}

// compareEvents requires the settle's events to equal the from-scratch
// run's, in order, once the latter's Cloud events are filtered to the
// frontier — the waiting UEs with at least one candidate link. An empty
// frontier settles without a round, so it must emit nothing.
func (h *deltaHarness) compareEvents(frontier int, incSink, naiveSink *obs.Sink) {
	t := h.t
	inFront := map[int]bool{}
	for _, u := range h.waiting {
		if len(h.net.Candidates(u)) > 0 {
			inFront[int(u)] = true
		}
	}
	if frontier != len(inFront) {
		t.Fatalf("frontier %d, want the %d waiting UEs with candidates", frontier, len(inFront))
	}
	var want []obs.Event
	if frontier > 0 {
		for _, e := range naiveSink.Events() {
			if e.Kind != obs.KindCloudFallback || inFront[e.UE] {
				want = append(want, e)
			}
		}
	}
	got := incSink.Events()
	for _, s := range []*obs.Sink{incSink, naiveSink} {
		if int64(len(s.Events())) != s.Total() {
			t.Fatalf("event ring dropped events: %d buffered, %d emitted", len(s.Events()), s.Total())
		}
	}
	if len(got) != len(want) {
		t.Fatalf("settle emitted %d events, from-scratch %d", len(got), len(want))
	}
	for i := range got {
		if got[i].Key() != want[i].Key() {
			t.Fatalf("event %d: settle %+v, from-scratch %+v", i, got[i], want[i])
		}
	}
}

// finish runs a last epoch over any queued churn and both ledgers'
// O(population) invariant recounts.
func (h *deltaHarness) finish() {
	h.epoch()
	if err := h.inc.CheckInvariants(); err != nil {
		h.t.Fatalf("incremental invariants: %v", err)
	}
	if err := h.state.CheckInvariants(); err != nil {
		h.t.Fatalf("state invariants: %v", err)
	}
	serving := h.inc.Serving()
	for u := range h.net.UEs {
		if want := h.state.ServingBS(mec.UEID(u)); serving[u] != int32(want) {
			h.t.Fatalf("final UE %d: delta-repair -> %d, from-scratch -> %d", u, serving[u], want)
		}
	}
}

// runScript drives a full churn sequence with an epoch every fourth
// event (so repairs interleave with fresh churn) and a final epoch.
func runScript(t *testing.T, net *mec.Network, dcfg alloc.DMRAConfig, workers int, observed bool, script []byte) {
	h := newDeltaHarness(t, net, dcfg, workers, observed)
	for i, b := range script {
		h.step(b)
		if i%4 == 3 {
			h.epoch()
		}
	}
	h.finish()
}

// deltaScript generates a deterministic pseudo-random churn script from
// a seed (xorshift; no global RNG so runs are reproducible).
func deltaScript(seed uint64, n int) []byte {
	s := seed*2654435761 + 1
	out := make([]byte, n)
	for i := range out {
		s ^= s << 13
		s ^= s >> 7
		s ^= s << 17
		out[i] = byte(s)
	}
	return out
}

// TestDeltaParityScripts pins delta-repair ≡ from-scratch across
// scenario seeds and the swept propose-worker widths on long
// deterministic churn scripts, unobserved and observed — the non-fuzz
// face of FuzzDeltaParity, and what check.sh's delta-parity gate runs
// race-enabled.
func TestDeltaParityScripts(t *testing.T) {
	for _, seed := range []uint64{1, 7, 42, 99, 1234} {
		net, err := alloc.GenScenarioForTest(seed).Build(seed)
		if err != nil {
			continue
		}
		dcfg := alloc.DefaultDMRAConfig()
		for _, workers := range soaTestWorkers() {
			for _, observed := range []bool{false, true} {
				runScript(t, net, dcfg, workers, observed, deltaScript(seed*64+uint64(workers), 400))
				// Fresh comparator state per run: rebuild the network so
				// the demand mutations of one sweep don't leak into the next.
				net, err = alloc.GenScenarioForTest(seed).Build(seed)
				if err != nil {
					t.Fatalf("rebuild seed %d: %v", seed, err)
				}
			}
		}
	}
}

// TestDeltaDepartureRefill pins the invalidation path specifically: fill
// the network to saturation, depart a block of served UEs, and require
// the re-arrivals to land exactly where a from-scratch run puts them —
// the case that is wrong if a ledger credit fails to invalidate the
// cached candidate drops of the UEs covering the credited BS.
func TestDeltaDepartureRefill(t *testing.T) {
	net, err := alloc.GenScenarioForTest(7).Build(7)
	if err != nil {
		t.Fatalf("build: %v", err)
	}
	for _, workers := range soaTestWorkers() {
		h := newDeltaHarness(t, net, alloc.DefaultDMRAConfig(), workers, false)
		// Saturate: everyone arrives, one epoch.
		for u := range net.UEs {
			h.step(byte(u<<2) | 0)
		}
		h.epoch()
		// Churn waves: depart a sweep of active UEs, re-arrive, repeat.
		for wave := 0; wave < 6; wave++ {
			for i := 0; i < len(net.UEs)/3; i++ {
				h.step(byte(i<<2) | 2)
			}
			h.epoch()
			for i := 0; i < len(net.UEs)/3; i++ {
				h.step(byte(i<<2) | 0)
			}
			h.epoch()
		}
		h.finish()
		net, err = alloc.GenScenarioForTest(7).Build(7)
		if err != nil {
			t.Fatalf("rebuild: %v", err)
		}
	}
}

// FuzzDeltaParity is the delta-repair differential fuzz gate: across
// fuzzed scenarios, rho values of either sign, worker counts, and churn
// scripts, the incremental engine's placements, residual ledgers, and
// round counters must equal a from-scratch DMRA run over every epoch's
// waiting set; flags bit 2 selects the observed leg, which compares the
// event streams as well.
func FuzzDeltaParity(f *testing.F) {
	f.Add(uint64(1), int16(250), uint8(0), uint8(1), []byte{0, 4, 8, 1, 2, 12, 3, 0})
	f.Add(uint64(7), int16(0), uint8(1), uint8(3), deltaScript(7, 64))
	f.Add(uint64(42), int16(777), uint8(2), uint8(2), deltaScript(42, 128))
	f.Add(uint64(1234), int16(1000), uint8(3), uint8(8), deltaScript(1234, 32))
	f.Add(uint64(99), int16(31), uint8(0), uint8(0), deltaScript(99, 200))
	f.Add(uint64(11), int16(-160), uint8(5), uint8(2), deltaScript(11, 160))
	f.Fuzz(func(t *testing.T, seed uint64, rhoRaw int16, flags, workersRaw uint8, script []byte) {
		net, err := alloc.GenScenarioForTest(seed).Build(seed)
		if err != nil {
			t.Skip() // generator can produce shapes Build rejects; not under test
		}
		if net.Dense() == nil {
			t.Skip()
		}
		dcfg := alloc.DMRAConfig{
			Rho:        float64(rhoRaw) / 4,
			SPPriority: flags&1 == 0,
			FuTieBreak: flags&2 == 0,
		}
		if len(script) > 512 {
			script = script[:512]
		}
		runScript(t, net, dcfg, 1+int(workersRaw%8), flags&4 != 0, script)
	})
}
