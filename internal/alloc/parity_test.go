// The differential parity harness. Alg. 1 is decentralized, so DMRA must
// reach the same matching whether it is solved in memory (the naive
// reference, the arena engine at any propose width, the incremental
// delta-repair engine), exchanged as UE/BS messages (internal/protocol)
// or run over TCP at any region count (internal/wire). TestParity runs a
// fixed table of cases and FuzzParity searches the same space; both draw
// every network from the one fuzz scenario generator and run every case
// through checkParity. In package alloc_test so it can drive protocol and
// wire, which import alloc.
package alloc_test

import (
	"fmt"
	"os"
	"slices"
	"strconv"
	"sync"
	"testing"
	"time"

	"dmra/internal/alloc"
	"dmra/internal/engine"
	"dmra/internal/mec"
	"dmra/internal/obs"
	"dmra/internal/protocol"
	"dmra/internal/wire"
	"dmra/internal/workload"
)

// parityCase is one harness scenario.
type parityCase struct {
	net *mec.Network
	cfg alloc.DMRAConfig
	// workers are the propose widths of the arena and Incremental rows.
	workers []int
	// regions are the cluster's region counts besides one region.
	regions []int
	// skipCluster leaves out the region-cluster rows.
	skipCluster bool
	// script is the churn the Incremental row replays, one event a byte.
	script []byte
	// seed drives the lossy protocol's drops.
	seed uint64
}

// envInt reads an integer test override; ok is false when it is unset.
func envInt(name string) (n int, ok bool) {
	v := os.Getenv(name)
	if v == "" {
		return 0, false
	}
	n, err := strconv.Atoi(v)
	if err != nil {
		panic(name + " must be an integer, got " + v)
	}
	return n, true
}

// testWidths returns the propose widths a case sweeps: def, unless
// DMRA_TEST_PROPOSE_WORKERS pins one (scripts/check.sh runs the harness
// race-enabled at widths 1 and 3).
func testWidths(def ...int) []int {
	if n, ok := envInt("DMRA_TEST_PROPOSE_WORKERS"); ok {
		return []int{n}
	}
	return def
}

// testRegions returns the region counts the cluster row runs at besides
// one: def, unless DMRA_TEST_REGIONS pins one (scripts/check.sh runs the
// harness at region counts 1 and 3).
func testRegions(def ...int) []int {
	if n, ok := envInt("DMRA_TEST_REGIONS"); ok {
		return []int{n}
	}
	return def
}

// TestParity runs the harness over a fixed table: generator shapes at
// their own populations across a spread of propose widths, a width sweep
// past the fuzzed range, one shape crowded from zero to 800 UEs, a region
// sweep, DMRA configurations across both ablation switches and both
// signs of rho, and 25 more generator shapes without the cluster.
func TestParity(t *testing.T) {
	const own = -1 // keep the generator's own UE count
	dflt := alloc.DefaultDMRAConfig()
	rows := []struct {
		name    string
		seed    uint64
		ues     int
		cfg     alloc.DMRAConfig
		workers []int
		regions []int
	}{
		{"gen1", 1, own, dflt, []int{1, 2, 3, 7}, []int{2}},
		{"gen7", 7, own, dflt, []int{1, 2, 3, 7}, []int{3}},
		{"gen42", 42, own, dflt, []int{1, 2, 3, 7}, []int{4}},
		{"gen99", 99, own, dflt, []int{1, 2, 3, 7}, []int{5}},
		{"gen1234", 1234, own, dflt, []int{1, 2, 3, 7}, []int{7}},
		{"widths", 4242, own, dflt, []int{1, 2, 3, 5, 16}, []int{3}},
		{"crowd0", 42, 0, dflt, []int{1, 3}, []int{2}},
		{"crowd1", 42, 1, dflt, []int{1, 3}, []int{2}},
		{"crowd50", 42, 50, dflt, []int{1, 3}, []int{3}},
		{"crowd300", 42, 300, dflt, []int{1, 3}, []int{4}},
		{"crowd800", 42, 800, dflt, []int{1, 3}, []int{3}},
		{"regions", 10, 220, dflt, []int{1, 3}, []int{2, 3, 4, 7}},
		{"rho0", 1234, 400, alloc.DMRAConfig{Rho: 0, SPPriority: true, FuTieBreak: true}, []int{1, 3}, []int{3}},
		{"rho500-noSP", 1234, 400, alloc.DMRAConfig{Rho: 500, FuTieBreak: true}, []int{1, 3}, []int{3}},
		{"rho2000-noFu", 1234, 400, alloc.DMRAConfig{Rho: 2000, SPPriority: true}, []int{1, 3}, []int{3}},
		{"rho250-plain", 1234, 400, alloc.DMRAConfig{Rho: 250}, []int{1, 3}, []int{3}},
		{"rho800-plain", 1234, 400, alloc.DMRAConfig{Rho: 800}, []int{1, 3}, []int{3}},
		{"rho-40", 1234, 400, alloc.DMRAConfig{Rho: -40, SPPriority: true, FuTieBreak: true}, []int{1, 3}, []int{3}},
	}
	handoffs, ran := 0, 0
	for _, r := range rows {
		t.Run(r.name, func(t *testing.T) {
			ran++
			wl := workload.RandomShape(r.seed)
			if r.ues != own {
				wl.UEs = r.ues
			}
			net, err := wl.Build(r.seed)
			if err != nil {
				t.Fatalf("build: %v", err)
			}
			handoffs += checkParity(t, parityCase{
				net:     net,
				cfg:     r.cfg,
				workers: testWidths(r.workers...),
				regions: testRegions(r.regions...),
				script:  deltaScript(r.seed, 400),
				seed:    r.seed,
			})
		})
	}
	// Random generator shapes (sparse services, narrow coverage,
	// shadowing, both pricing laws) at their own populations: every row
	// but the region cluster.
	t.Run("shapes", func(t *testing.T) {
		shapes := uint64(25)
		if testing.Short() {
			shapes = 5
		}
		for seed := uint64(2000); seed < 2000+shapes; seed++ {
			net, err := workload.RandomShape(seed).Build(seed)
			if err != nil {
				t.Fatalf("seed %d: build: %v", seed, err)
			}
			t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
				checkParity(t, parityCase{net: net, cfg: dflt, workers: testWidths(1), skipCluster: true, seed: seed})
			})
		}
	})
	// Unless DMRA_TEST_REGIONS pins one region, some row must split the
	// map so that proposals cross it.
	if ran > 0 && handoffs == 0 && testRegions(2)[0] > 1 {
		t.Error("no proposal crossed a region boundary; the sub-batch merge went untested")
	}
}

// FuzzParity is the harness's fuzz face; scripts/check.sh fuzzes it.
// Its corpus starts from every seed set below. FuzzSoAParity,
// FuzzDMRACachedEquivalence and FuzzDeltaParity replay one set each,
// under the name of the check it was written for; all four run the same
// body, fuzzParity.
func FuzzParity(f *testing.F) {
	fuzzParity(f, soaSeeds, unscaledRhoSeeds, churnSeeds, clusterSeeds())
}

// FuzzSoAParity replays soaSeeds.
func FuzzSoAParity(f *testing.F) { fuzzParity(f, soaSeeds) }

// FuzzDMRACachedEquivalence replays unscaledRhoSeeds.
func FuzzDMRACachedEquivalence(f *testing.F) { fuzzParity(f, unscaledRhoSeeds) }

// FuzzDeltaParity replays churnSeeds.
func FuzzDeltaParity(f *testing.F) { fuzzParity(f, churnSeeds) }

// parityInput is one fuzz input of the harness; see fuzzParity.
type parityInput struct {
	seed              uint64
	rhoRaw            int16
	flags, workersRaw uint8
	script            []byte
}

// soaSeeds: propose widths 1-8, no churn script.
var soaSeeds = []parityInput{
	{1, 250, 0, 1, nil},
	{7, 0, 1, 3, nil},
	{42, 777, 2, 2, nil},
	{1234, 1000, 3, 8, nil},
	{99, 31, 0, 0, nil},
	{11, -160, 1, 4, nil},
}

// unscaledRhoSeeds: unscaled rho (flags bit 3), out to the int16
// extremes.
var unscaledRhoSeeds = []parityInput{
	{1, 250, 8, 0, nil},
	{7, 0, 9, 0, nil},
	{42, -40, 10, 0, nil},
	{1234, 1000, 11, 0, nil},
	{99, -8192, 8, 0, nil},
}

// churnSeeds: churn scripts for the Incremental row.
var churnSeeds = []parityInput{
	{1, 250, 0, 1, []byte{0, 4, 8, 1, 2, 12, 3, 0}},
	{7, 0, 1, 3, deltaScript(7, 64)},
	{42, 777, 2, 2, deltaScript(42, 128)},
	{1234, 1000, 3, 8, deltaScript(1234, 32)},
	{99, 31, 0, 0, deltaScript(99, 200)},
	{11, -160, 5, 2, deltaScript(11, 160)},
}

// clusterSeeds: the default configuration (rho 250) with the cluster
// rows, at seed-derived widths and region counts.
func clusterSeeds() []parityInput {
	var in []parityInput
	for _, seed := range []uint64{0, 1, 7, 42, 137, 5000} {
		in = append(in, parityInput{seed, 1000, 0x70, uint8(seed / 7 % 8), nil})
	}
	return in
}

// fuzzParity runs the harness on each input of f: a fuzzed generator
// seed, rho of either sign (rhoRaw/4, or rhoRaw itself when flags bit 3
// is set), both ablation switches (flags bits 0 and 1), a propose width
// of 1-8, a seed-derived region count of 1-8 and a churn script. The
// region-cluster rows run only on inputs with flags bits 4-6 all set
// (0x70): each cluster run starts a TCP server per BS, paced to the
// loopback port budget (see paceServers), and on every input they would
// hold the other rows to that pace. Fuzz with -parallel 2 or fewer.
// The seed sets are added to f's corpus in order.
func fuzzParity(f *testing.F, sets ...[]parityInput) {
	for _, set := range sets {
		for _, in := range set {
			f.Add(in.seed, in.rhoRaw, in.flags, in.workersRaw, in.script)
		}
	}
	f.Fuzz(func(t *testing.T, seed uint64, rhoRaw int16, flags, workersRaw uint8, script []byte) {
		net, err := workload.RandomShape(seed).Build(seed)
		if err != nil {
			t.Skip() // generator can produce shapes Build rejects; not under test
		}
		rho := float64(rhoRaw) / 4
		if flags&8 != 0 {
			rho = float64(rhoRaw)
		}
		if len(script) > 512 {
			script = script[:512]
		}
		checkParity(t, parityCase{
			net: net,
			cfg: alloc.DMRAConfig{
				Rho:        rho,
				SPPriority: flags&1 == 0,
				FuTieBreak: flags&2 == 0,
			},
			workers:     testWidths(1 + int(workersRaw%8)),
			regions:     testRegions(1 + int(seed/3%8)),
			skipCluster: flags&0x70 != 0x70,
			script:      script,
			seed:        seed,
		})
	})
}

// checkParity runs every row of the harness on c and fails t at the
// first disagreement. Solver rows (the arena observed and unobserved,
// Incremental under churn) must equal the naive reference in assignment,
// stats, ordered events and per-round snapshots; message rows (protocol,
// region cluster) must equal each other in assignment and ordered
// events; the two families must agree on the assignment and the round,
// request, accept and reject counts. It returns the cluster's
// cross-region handoffs.
func checkParity(t *testing.T, c parityCase) int {
	t.Helper()
	naive := solve(t, alloc.NewDMRA(c.cfg).ForceNaive(), c.net, true)
	if len(naive.snaps) != naive.res.Stats.Iterations {
		t.Fatalf("naive: %d snapshots over %d rounds", len(naive.snaps), naive.res.Stats.Iterations)
	}
	for _, w := range c.workers {
		label := fmt.Sprintf("width %d", w)
		arena := solve(t, alloc.NewDMRA(c.cfg).WithProposeWorkers(w), c.net, true)
		compareResults(t, label+" arena", arena.res, naive.res)
		compareEvents(t, label+" arena", arena.events, naive.events)
		compareSnaps(t, label+" arena", arena.snaps, naive.snaps)
		// Unobserved, no hook pins the select to one worker, so the
		// BS-sliced select runs at width w too.
		plain := solve(t, alloc.NewDMRA(c.cfg).WithProposeWorkers(w), c.net, false)
		compareResults(t, label+" unobserved arena", plain.res, naive.res)

		for _, observed := range []bool{false, true} {
			h := newChurn(t, c, w, observed)
			for i, b := range c.script {
				if b&2 == 0 {
					h.arrive(int(b >> 2))
				} else {
					h.depart(int(b >> 2))
				}
				if i%4 == 3 {
					h.epoch()
				}
			}
			h.finish()
		}
		h := newChurn(t, c, w, false)
		h.refill()
		h.finish()
	}
	return checkMessages(t, c, naive.res)
}

// solverRun is what the solver rows compare: the result and, for an
// observed run, the ordered event stream and per-round snapshots.
type solverRun struct {
	res    alloc.Result
	events []obs.Event
	snaps  []*engine.Snapshot
}

// solver is what solve drives: an *alloc.DMRA, or the naive reference
// over one.
type solver interface {
	WithObserver(*obs.Recorder) *alloc.DMRA
	Allocate(*mec.Network) (alloc.Result, error)
}

// solve runs d over net, observed or plain, and validates its assignment.
func solve(t *testing.T, d solver, net *mec.Network, observed bool) solverRun {
	t.Helper()
	var run solverRun
	var sink *obs.Sink
	if observed {
		sink = newSink()
		d.WithObserver(obs.NewRecorder(nil, sink)).
			WithRoundHook(func(s *engine.Snapshot) { run.snaps = append(run.snaps, s.Clone()) })
	}
	res, err := d.Allocate(net)
	if err != nil {
		t.Fatalf("allocate: %v", err)
	}
	validate(t, "solver", net, res.Assignment.ServingBS)
	run.res = res
	if observed {
		run.events = drain(t, sink)
	}
	return run
}

// validate passes an output assignment through mec.ValidateAssignment.
func validate(t *testing.T, label string, net *mec.Network, serving []mec.BSID) {
	t.Helper()
	if err := mec.ValidateAssignment(net, mec.Assignment{ServingBS: serving}); err != nil {
		t.Fatalf("%s: infeasible assignment: %v", label, err)
	}
}

// newSink returns an event sink for one run. Its ring grows with the
// run up to a fixed cap far above any harness run's event count; drain
// checks that nothing was dropped.
func newSink() *obs.Sink {
	return obs.NewSink(nil, 1<<20)
}

// drain returns sink's events, failing if its ring dropped any.
func drain(t *testing.T, sink *obs.Sink) []obs.Event {
	t.Helper()
	events := sink.Events()
	if int64(len(events)) != sink.Total() {
		t.Fatalf("event ring dropped events: %d buffered, %d emitted", len(events), sink.Total())
	}
	return events
}

// compareResults requires equal stats and assignments.
func compareResults(t *testing.T, label string, got, want alloc.Result) {
	t.Helper()
	if got.Stats != want.Stats {
		t.Fatalf("%s: stats %+v, want %+v", label, got.Stats, want.Stats)
	}
	compareServing(t, label, got.Assignment.ServingBS, want.Assignment.ServingBS)
}

// compareServing requires every UE on the same BS.
func compareServing(t *testing.T, label string, got, want []mec.BSID) {
	t.Helper()
	for u := range want {
		if got[u] != want[u] {
			t.Fatalf("%s: UE %d on %d, want %d", label, u, got[u], want[u])
		}
	}
}

// compareEvents requires the same ordered (kind, round, UE, BS) stream;
// timing and region attribution are runtime-specific and excluded.
func compareEvents(t *testing.T, label string, got, want []obs.Event) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d events, want %d", label, len(got), len(want))
	}
	for i := range got {
		if got[i].Key() != want[i].Key() {
			t.Fatalf("%s: event %d: %+v, want %+v", label, i, got[i], want[i])
		}
	}
}

// compareSnaps requires the same per-round snapshot sequence.
func compareSnaps(t *testing.T, label string, got, want []*engine.Snapshot) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d snapshots, want %d", label, len(got), len(want))
	}
	for i := range got {
		if diff := got[i].Diff(want[i]); diff != nil {
			t.Fatalf("%s: snapshot %d diverges:\n%v", label, i, diff)
		}
	}
}

// checkMessages runs the message rows: the loss-free protocol against the
// solver's result, the lossy protocol, and unless c.skipCluster the
// region cluster at one region and at each of c.regions against the
// protocol and the one-region run, then unobserved at two regions against
// the observed runs. It returns the observed cluster's cross-region
// handoffs.
func checkMessages(t *testing.T, c parityCase, solver alloc.Result) int {
	t.Helper()
	sink := newSink()
	proto, err := protocol.Run(c.net, protocol.Config{DMRA: c.cfg, LatencyS: 1e-3, Obs: obs.NewRecorder(nil, sink)})
	if err != nil {
		t.Fatalf("protocol: %v", err)
	}
	validate(t, "protocol", c.net, proto.Assignment.ServingBS)
	compareServing(t, "protocol vs solver", proto.Assignment.ServingBS, solver.Assignment.ServingBS)
	if proto.Rounds != solver.Stats.Iterations || proto.Requests != solver.Stats.Proposals ||
		proto.Accepts != solver.Stats.Accepts || proto.Rejects != solver.Stats.Rejects {
		t.Fatalf("protocol counters (%d rounds, %d reqs, %d acc, %d rej) != solver stats %+v",
			proto.Rounds, proto.Requests, proto.Accepts, proto.Rejects, solver.Stats)
	}
	events := drain(t, sink)

	// Loss may change the matching; it must still be feasible and quiesce.
	lossy, err := protocol.Run(c.net, protocol.Config{DMRA: c.cfg, LatencyS: 1e-3, DropRate: 0.15, LossSeed: c.seed})
	if err != nil {
		t.Fatalf("lossy protocol: %v", err)
	}
	validate(t, "lossy protocol", c.net, lossy.Assignment.ServingBS)
	if c.skipCluster {
		return 0
	}

	handoffs := 0
	var base wire.RegionResult
	for i, regions := range append([]int{1}, c.regions...) {
		label := fmt.Sprintf("cluster at %d regions", regions)
		paceServers(len(c.net.BSs))
		sink := newSink()
		res, err := wire.RunRegionCluster(c.net, wire.RegionConfig{DMRA: c.cfg, Regions: regions, Obs: obs.NewRecorder(nil, sink)})
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		validate(t, label, c.net, res.Assignment.ServingBS)
		compareServing(t, label+" vs protocol", res.Assignment.ServingBS, proto.Assignment.ServingBS)
		compareEvents(t, label+" vs protocol", drain(t, sink), events)
		if want := max(1, min(regions, len(c.net.BSs))); res.Regions != want {
			t.Fatalf("%s: ran %d coordinators, want %d", label, res.Regions, want)
		}
		if res.CrashedBSs != 0 || res.RestartedBSs != 0 || res.ReadmittedUEs != 0 {
			t.Fatalf("%s: healthy run reported recovery events: %+v", label, res)
		}
		if want := crossings(c.net, events, res.BSRegions); res.HandoffProposals != want {
			t.Fatalf("%s: %d handoffs, want the %d proposals that cross a region boundary",
				label, res.HandoffProposals, want)
		}
		handoffs += res.HandoffProposals
		if i == 0 {
			if res.Rounds != proto.Rounds {
				t.Fatalf("%s: %d rounds, protocol %d", label, res.Rounds, proto.Rounds)
			}
			base = res
			continue
		}
		if res.Rounds != base.Rounds || res.Frames != base.Frames || !slices.Equal(res.PerBS, base.PerBS) {
			t.Fatalf("%s: rounds/frames %d/%d, per-BS traffic %+v; one region %d/%d, %+v",
				label, res.Rounds, res.Frames, res.PerBS, base.Rounds, base.Frames, base.PerBS)
		}
	}

	// The unobserved cluster at two regions, the shape the benchmark
	// times: it runs the same rounds with no event pass, so it must equal
	// the observed runs in assignment, rounds, frames and per-BS bytes,
	// and route exactly the proposals the observed stream shows crossing
	// its partition.
	paceServers(len(c.net.BSs))
	plain, err := wire.RunRegionCluster(c.net, wire.RegionConfig{DMRA: c.cfg, Regions: 2})
	if err != nil {
		t.Fatalf("unobserved cluster at 2 regions: %v", err)
	}
	compareServing(t, "unobserved cluster at 2 regions", plain.Assignment.ServingBS, base.Assignment.ServingBS)
	if plain.Rounds != base.Rounds || plain.Frames != base.Frames || !slices.Equal(plain.PerBS, base.PerBS) {
		t.Fatalf("unobserved cluster at 2 regions: rounds/frames %d/%d, per-BS traffic %+v; observed %d/%d, %+v",
			plain.Rounds, plain.Frames, plain.PerBS, base.Rounds, base.Frames, base.PerBS)
	}
	if want := crossings(c.net, events, plain.BSRegions); plain.HandoffProposals != want {
		t.Fatalf("unobserved cluster at 2 regions: %d handoffs, want the %d proposals that cross a region boundary",
			plain.HandoffProposals, want)
	}
	return handoffs
}

// loopback paces the cluster rows' TCP servers. Every BS server leaves
// one loopback socket in TIME_WAIT for a minute and the default
// ephemeral range holds about 28k ports, so an unpaced fuzz loop runs
// out of ports within seconds ("bind: address already in use"). The
// first 2000 servers start at once, which covers TestParity and the fuzz
// seeds; after that a process starts at most 120 a second, so two fuzz
// workers keep under 20k sockets waiting.
var loopback struct {
	sync.Mutex
	paid time.Time // when the servers started so far are paid for
}

// paceServers blocks until n more BS servers fit the loopback budget.
func paceServers(n int) {
	const burst, perSecond = 2000, 120
	loopback.Lock()
	defer loopback.Unlock()
	now := time.Now()
	if loopback.paid.Before(now) {
		loopback.paid = now
	}
	loopback.paid = loopback.paid.Add(time.Duration(n) * time.Second / perSecond)
	if wait := loopback.paid.Sub(now) - burst*time.Second/perSecond; wait > 0 {
		time.Sleep(wait)
	}
}

// crossings counts the proposals in events that cross a region boundary
// under the partition bsRegion, a UE being homed in the region of its
// nearest candidate BS (ties to the lower candidate index).
func crossings(net *mec.Network, events []obs.Event, bsRegion []int) int {
	n := 0
	for _, e := range events {
		if e.Kind != obs.KindPropose {
			continue
		}
		u := mec.UEID(e.UE)
		lo, hi := net.CandRange(u)
		near := net.LinkAt(u, lo)
		for k := lo + 1; k < hi; k++ {
			if l := net.LinkAt(u, k); l.DistanceM < near.DistanceM {
				near = l
			}
		}
		if bsRegion[e.BS] != bsRegion[near.BS] {
			n++
		}
	}
	return n
}

// churn drives the Incremental row: an engine.Incremental and a
// from-scratch comparator (mec.State, a SubView over the waiting set and
// the naive reference) through one churn sequence, compared after every
// epoch. Every UE is inactive, waiting or active (active splits into edge
// — assigned in state — and cloud), the lifecycle online sessions drive.
// An observed churn settles through alloc.ArenaHooks and compares the
// event streams too.
type churn struct {
	t        *testing.T
	net      *mec.Network
	state    *mec.State
	sub      *mec.SubView
	cfg      alloc.DMRAConfig
	observed bool
	res      alloc.Result
	inc      *engine.Incremental

	waiting  []mec.UEID
	active   []mec.UEID
	inactive []mec.UEID
}

func newChurn(t *testing.T, c parityCase, workers int, observed bool) *churn {
	t.Helper()
	h := &churn{
		t:        t,
		net:      c.net,
		state:    mec.NewState(c.net),
		sub:      c.net.NewSubView(),
		cfg:      c.cfg,
		observed: observed,
		inc:      new(engine.Incremental),
	}
	if err := h.inc.Begin(c.net, engine.Config(c.cfg), workers); err != nil {
		t.Fatalf("Begin: %v", err)
	}
	h.inactive = make([]mec.UEID, len(c.net.UEs))
	for u := range h.inactive {
		h.inactive[u] = mec.UEID(u)
	}
	return h
}

// arrive moves the k-th (mod count) inactive UE to the waiting set.
func (h *churn) arrive(k int) {
	if len(h.inactive) == 0 {
		return
	}
	k %= len(h.inactive)
	u := h.inactive[k]
	h.inactive[k] = h.inactive[len(h.inactive)-1]
	h.inactive = h.inactive[:len(h.inactive)-1]
	h.waiting = append(h.waiting, u)
	if err := h.inc.Arrive(u); err != nil {
		h.t.Fatalf("Arrive(%d): %v", u, err)
	}
}

// depart retires the k-th (mod count) active UE, edge or cloud.
func (h *churn) depart(k int) {
	if len(h.active) == 0 {
		return
	}
	k %= len(h.active)
	u := h.active[k]
	h.active[k] = h.active[len(h.active)-1]
	h.active = h.active[:len(h.active)-1]
	if h.state.Assigned(u) {
		h.state.Unassign(u)
	}
	h.inc.Depart(u)
	h.inactive = append(h.inactive, u)
}

// refill saturates the network (every UE arrives, one epoch), then runs
// six waves that each depart a third of the population and re-arrive as
// many: the case a ledger credit that fails to invalidate the cached
// candidate drops at the credited BS gets wrong.
func (h *churn) refill() {
	n := len(h.net.UEs)
	for i := 0; i < n; i++ {
		h.arrive(i)
	}
	h.epoch()
	for wave := 0; wave < 6; wave++ {
		for i := 0; i < n/3; i++ {
			h.depart(i)
		}
		h.epoch()
		for i := 0; i < n/3; i++ {
			h.arrive(i)
		}
		h.epoch()
	}
}

// epoch settles the incremental engine, re-runs the naive reference over
// the same waiting set and residuals, and requires identical per-UE
// placements, residual ledgers, round counters and, observed, event
// streams and snapshots.
func (h *churn) epoch() {
	if len(h.waiting) == 0 {
		return
	}
	t := h.t
	naive := alloc.NewDMRA(h.cfg).ForceNaive()
	var hooks *engine.SoAHooks
	var incSink, naiveSink *obs.Sink
	var snaps int
	var last *engine.Snapshot
	if h.observed {
		incSink, naiveSink = newSink(), newSink()
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

	out := make([]mec.BSID, len(serving))
	for u, b := range serving {
		out[u] = mec.BSID(b)
	}
	validate(t, "incremental", h.net, out)
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
func (h *churn) compareEvents(frontier int, incSink, naiveSink *obs.Sink) {
	t := h.t
	inFront := map[int]bool{}
	for _, u := range h.waiting {
		if h.net.CoverCount(u) > 0 {
			inFront[int(u)] = true
		}
	}
	if frontier != len(inFront) {
		t.Fatalf("frontier %d, want the %d waiting UEs with candidates", frontier, len(inFront))
	}
	var want []obs.Event
	if frontier > 0 {
		for _, e := range drain(t, naiveSink) {
			if e.Kind != obs.KindCloudFallback || inFront[e.UE] {
				want = append(want, e)
			}
		}
	}
	compareEvents(t, "settle vs from-scratch", drain(t, incSink), want)
}

// finish runs a last epoch over any queued churn and both ledgers'
// O(population) invariant recounts.
func (h *churn) finish() {
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

// TestSoASmoke50k runs a 53,900-UE dense-city match (the base rush-hour
// scenario at edge scale 7) and pins the serial arena engine to the
// naive reference, and parallel propose to the serial run: identical
// statistics and assignments at every swept width. At this population
// the pending list splits into many real chunks per round, so a
// race-enabled run (check.sh's parity step at width 3) exercises the
// merge at benchmark-like scale. Plain Allocate, no observer: the event
// volume here would swamp the test sink, and stream-level parity is
// pinned by TestParity and FuzzParity.
func TestSoASmoke50k(t *testing.T) {
	net, err := workload.DenseCity().Scale(7).Build(1)
	if err != nil {
		t.Fatalf("build: %v", err)
	}
	dcfg := alloc.DefaultDMRAConfig()
	serial := solve(t, alloc.NewDMRA(dcfg).WithProposeWorkers(1), net, false).res
	if serial.Stats.Accepts == 0 {
		t.Fatal("50k scenario matched nothing; smoke is vacuous")
	}
	compareResults(t, "arena vs naive", serial, solve(t, alloc.NewDMRA(dcfg).ForceNaive(), net, false).res)
	for _, workers := range testWidths(1, 2, 3, 7) {
		if workers == 1 {
			continue
		}
		par := solve(t, alloc.NewDMRA(dcfg).WithProposeWorkers(workers), net, false).res
		compareResults(t, fmt.Sprintf("width %d vs serial", workers), par, serial)
	}
}
