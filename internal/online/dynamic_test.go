package online

import (
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"

	"dmra/internal/alloc"
	"dmra/internal/exp"
	"dmra/internal/geo"
	"dmra/internal/mec"
	"dmra/internal/obs"
	"dmra/internal/radio"
	"dmra/internal/rng"
	"dmra/internal/workload/dynamic"
)

// legacyReport is the subset of Report the pre-spec driver produced.
type legacyReport struct {
	Arrivals, Departures, Saturated  int
	EdgeServed, CloudServed          int
	ProfitTime                       float64
	MeanConcurrent, MeanOccupancyRRB float64
	Epochs, ReassignChecks           int
}

func legacy(r Report) legacyReport {
	return legacyReport{
		Arrivals: r.Arrivals, Departures: r.Departures, Saturated: r.Saturated,
		EdgeServed: r.EdgeServed, CloudServed: r.CloudServed,
		ProfitTime: r.ProfitTime, MeanConcurrent: r.MeanConcurrent,
		MeanOccupancyRRB: r.MeanOccupancyRRB,
		Epochs:           r.Epochs, ReassignChecks: r.ReassignChecks,
	}
}

// TestDefaultProcessByteIdentical pins the refactor's compatibility
// contract: with Workload nil, every report field the pre-spec driver
// produced is byte-identical to the pre-PR implementation under the
// same seeds. The golden values below were captured from the
// pre-refactor internal/online at commit b63f425's lineage (hard-coded
// Poisson/exponential driver, full queue drain).
func TestDefaultProcessByteIdentical(t *testing.T) {
	cases := []struct {
		name string
		cfg  Config
		want legacyReport
	}{
		{"fast-seed1", fastConfig(), legacyReport{
			Arrivals: 250, Departures: 188, EdgeServed: 250,
			ProfitTime: 65819.03492415675, MeanConcurrent: 47.53956610406388,
			MeanOccupancyRRB: 0.06508746122235377, Epochs: 120, ReassignChecks: 250}},
		{"fast-seed7", func() Config { c := fastConfig(); c.Seed = 7; return c }(), legacyReport{
			Arrivals: 239, Departures: 172, EdgeServed: 239,
			ProfitTime: 64706.09751375544, MeanConcurrent: 46.049124773365214,
			MeanOccupancyRRB: 0.06094815541237033, Epochs: 120, ReassignChecks: 239}},
		{"default-short", func() Config {
			c := DefaultConfig()
			c.DurationS = 60
			c.Scenario.UEs = 600
			return c
		}(), legacyReport{
			Arrivals: 274, Departures: 61, EdgeServed: 274,
			ProfitTime: 81362.4733677494, MeanConcurrent: 114.69535925137497,
			MeanOccupancyRRB: 0.15780025426204344, Epochs: 60, ReassignChecks: 274}},
		{"heavy", func() Config {
			c := fastConfig()
			c.ArrivalRate = 20
			c.MeanHoldS = 120
			c.DurationS = 90
			c.Scenario.UEs = 2500
			return c
		}(), legacyReport{
			Arrivals: 1757, Departures: 515, EdgeServed: 1092, CloudServed: 665,
			ProfitTime: 516440.67106074875, MeanConcurrent: 699.2030958817053,
			MeanOccupancyRRB: 0.7518271393371085, Epochs: 90, ReassignChecks: 1757}},
	}
	for _, tt := range cases {
		t.Run(tt.name, func(t *testing.T) {
			rep, err := Run(tt.cfg)
			if err != nil {
				t.Fatal(err)
			}
			if got := legacy(rep); got != tt.want {
				t.Errorf("default-process session diverged from pre-PR output:\n got %+v\nwant %+v", got, tt.want)
			}
			if rep.Cohorts != nil {
				t.Errorf("default session reported cohorts: %+v", rep.Cohorts)
			}
		})
	}
}

// singleCohortSpec builds a one-cohort spec over the whole pool.
func singleCohortSpec(arrival dynamic.ArrivalSpec, hold dynamic.DistSpec) *dynamic.Spec {
	return &dynamic.Spec{
		Version: dynamic.SpecVersion,
		Cohorts: []dynamic.Cohort{{Name: "all", PoolShare: 1, Arrival: arrival, HoldS: hold}},
	}
}

// writeTraceSpec writes a trace CSV plus a spec referencing it and
// returns the loaded spec.
func writeTraceSpec(t *testing.T, trace string, cohorts []dynamic.Cohort) *dynamic.Spec {
	t.Helper()
	dir := t.TempDir()
	tracePath := filepath.Join(dir, "trace.csv")
	if err := os.WriteFile(tracePath, []byte(trace), 0o644); err != nil {
		t.Fatal(err)
	}
	spec := dynamic.Spec{Version: dynamic.SpecVersion, Cohorts: cohorts, Trace: "trace.csv"}
	specPath := filepath.Join(dir, "spec.json")
	if err := spec.Save(specPath); err != nil {
		t.Fatal(err)
	}
	loaded, err := dynamic.Load(specPath)
	if err != nil {
		t.Fatal(err)
	}
	return &loaded
}

// TestHorizonBoundary pins the unified horizon semantics with hold
// times that straddle the horizon: departures strictly before DurationS
// count, one at exactly DurationS counts, ones past it never fire.
func TestHorizonBoundary(t *testing.T) {
	// Arrivals at 0.5, 3.5, 8.5; epochs every 1 s; constant 6 s holds.
	// UE A matches at t=1, departs at 7 (inside). UE B matches at t=4,
	// departs at exactly 10 (counts). UE C matches at t=9, would depart
	// at 15 (never fires). A fourth arrival at exactly t=10 is outside
	// the horizon and must not be admitted.
	spec := writeTraceSpec(t,
		"t,cohort,demand\n0.5,all,\n3.5,all,\n8.5,all,\n10,all,\n",
		[]dynamic.Cohort{{
			Name: "all", PoolShare: 1,
			HoldS: dynamic.DistSpec{Dist: dynamic.DistConstant, Value: 6},
		}})
	cfg := fastConfig()
	cfg.Workload = spec
	cfg.DurationS = 10
	cfg.EpochS = 1
	rep, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Arrivals != 3 {
		t.Errorf("arrivals = %d, want 3 (the t=10 event is at the horizon)", rep.Arrivals)
	}
	if rep.Departures != 2 {
		t.Errorf("departures = %d, want 2 (t=7 and exactly t=10; t=15 is past the horizon)", rep.Departures)
	}
	if rep.EdgeServed+rep.CloudServed != 3 {
		t.Errorf("served = %d, want 3", rep.EdgeServed+rep.CloudServed)
	}
	if rep.Epochs != 10 {
		t.Errorf("epochs = %d, want 10 (epoch at exactly the horizon counts)", rep.Epochs)
	}
}

// fixedAllocator returns a pre-computed assignment regardless of input,
// to force admission failures.
type fixedAllocator struct{ a mec.Assignment }

func (f fixedAllocator) Name() string { return "fixed" }
func (f fixedAllocator) Allocate(*mec.Network) (alloc.Result, error) {
	return alloc.Result{Assignment: f.a}, nil
}

// twoUEOneBS builds a network where BS 0 can hold exactly one of the
// two UEs' tasks.
func twoUEOneBS(t *testing.T) *mec.Network {
	t.Helper()
	rc := radio.DefaultConfig()
	rc.InterferenceMarginDB = 20
	pr := mec.Pricing{BasePrice: 1, CrossSPFactor: 2, DistanceSigma: 0.004, Law: mec.DistanceLinear}
	sps := []mec.SP{{ID: 0, Name: "sp", CRUPrice: 6, OtherCostPerCRU: 1}}
	bss := []mec.BS{{ID: 0, SP: 0, Pos: geo.Point{}, CRUCapacity: []int{3}, MaxRRBs: 1000}}
	ues := []mec.UE{
		{ID: 0, SP: 0, Pos: geo.Point{X: 10}, Service: 0, CRUDemand: 3, RateBps: 2e6},
		{ID: 1, SP: 0, Pos: geo.Point{X: 20}, Service: 0, CRUDemand: 3, RateBps: 2e6},
	}
	net, err := mec.NewNetwork(sps, bss, ues, 1, rc, pr)
	if err != nil {
		t.Fatal(err)
	}
	return net
}

// TestRefusedGrantFailsEpochBurnsNoRNG pins the from-scratch route's
// grant contract: the SubView hands the allocator the ledger's own
// residuals, so a grant the ledger refuses is an allocator fault and
// fails the epoch with the ledger's error, before the UE consumes a
// lifetime draw, so the cohort's RNG stream never depends on it.
func TestRefusedGrantFailsEpochBurnsNoRNG(t *testing.T) {
	net := twoUEOneBS(t)
	state := mec.NewState(net)
	// Drain BS 0 with UE 0 so UE 1's forced edge assignment must fail.
	if err := state.Assign(0, 0); err != nil {
		t.Fatal(err)
	}
	a := mec.NewAssignment(2)
	a.ServingBS[1] = 0 // BS 0 has no CRUs left: Assign must fail

	newSession := func() *session {
		co := &cohortRun{
			name: "default", pool: 2,
			proc: dynamic.Poisson{RateHz: 1},
			hold: dynamic.ExpSampler{Mean: 60},
			src:  rng.New(99),
		}
		return &session{
			cfg:       Config{DurationS: 100, EpochS: 1},
			net:       net,
			state:     state,
			subview:   net.NewSubView(),
			allocator: fixedAllocator{a: a},
			active:    make(map[mec.UEID]placement),
			cohorts:   []*cohortRun{co},
			cohortOf:  []int{0, 0},
			waiting:   []mec.UEID{1},
		}
	}

	s := newSession()
	if err := s.match(); !errors.Is(err, mec.ErrNoCRU) {
		t.Fatalf("match = %v, want the ledger's %v", err, mec.ErrNoCRU)
	}
	if _, ok := s.active[1]; ok {
		t.Errorf("refused grant placed UE 1")
	}
	if got, want := s.cohorts[0].src.Uint64(), rng.New(99).Uint64(); got != want {
		t.Errorf("refused grant burned RNG draws: next=%d, untouched stream gives %d", got, want)
	}

	// Control: a successful (cloud) placement consumes exactly the one
	// lifetime draw.
	s2 := newSession()
	cloud := mec.NewAssignment(2) // everything on the cloud
	s2.allocator = fixedAllocator{a: cloud}
	if err := s2.match(); err != nil {
		t.Fatal(err)
	}
	if len(s2.waiting) != 0 {
		t.Fatalf("cloud placement left %v waiting", s2.waiting)
	}
	probe := rng.New(99)
	dynamic.ExpSampler{Mean: 60}.Sample(probe)
	if got, want := s2.cohorts[0].src.Uint64(), probe.Uint64(); got != want {
		t.Errorf("successful placement consumed draws beyond the one lifetime draw")
	}
}

// TestSpecSessionDeterministic: same spec + seed give byte-identical
// reports across repeated runs and across replication worker counts.
func TestSpecSessionDeterministic(t *testing.T) {
	spec := &dynamic.Spec{
		Version: dynamic.SpecVersion,
		Cohorts: []dynamic.Cohort{
			{Name: "steady", PoolShare: 0.5,
				Arrival: dynamic.ArrivalSpec{Process: dynamic.ProcessPoisson, RateHz: 1},
				HoldS:   dynamic.DistSpec{Dist: dynamic.DistExponential, Mean: 30}},
			{Name: "bursty", PoolShare: 0.3,
				Arrival:      dynamic.ArrivalSpec{Process: dynamic.ProcessGamma, RateHz: 0.8, CV: 2},
				HoldS:        dynamic.DistSpec{Dist: dynamic.DistUniform, Min: 10, Max: 50},
				CRUDemandMin: 4, CRUDemandMax: 5},
			{Name: "spiky", PoolShare: 0.2,
				Arrival: dynamic.ArrivalSpec{Process: dynamic.ProcessDiurnal, RateHz: 0.5,
					Phases: []dynamic.PhaseSpec{{DurationS: 20, RateFactor: 3}, {DurationS: 40, RateFactor: 0}}},
				HoldS:      dynamic.DistSpec{Dist: dynamic.DistLognormal, Mean: 20, Sigma: 1},
				RateMinBps: 4e6, RateMaxBps: 6e6},
		},
	}
	cfg := fastConfig()
	cfg.Workload = spec
	cfg.DurationS = 120

	a, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("spec session not deterministic:\n%+v\n%+v", a, b)
	}
	if len(a.Cohorts) != 3 {
		t.Fatalf("cohort reports = %d, want 3", len(a.Cohorts))
	}
	totalArr := 0
	for _, c := range a.Cohorts {
		totalArr += c.Arrivals
		if c.PoolSize == 0 {
			t.Errorf("cohort %s has empty pool", c.Name)
		}
	}
	if totalArr != a.Arrivals {
		t.Errorf("cohort arrivals sum %d != total %d", totalArr, a.Arrivals)
	}

	// Replicated across different worker counts: each replication's
	// report must be identical regardless of scheduling.
	const n = 6
	runGrid := func(procs int) []Report {
		out := make([]Report, n)
		err := exp.ForEach(procs, n, func(i int) error {
			c := cfg
			c.Seed = cfg.Seed + uint64(i)
			rep, err := Run(c)
			out[i] = rep
			return err
		})
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	serial, parallel := runGrid(1), runGrid(4)
	if !reflect.DeepEqual(serial, parallel) {
		t.Fatal("replicated spec sessions differ between -procs 1 and 4")
	}
}

// TestLittlesLawPerProcess checks each generative arrival process
// against Little's law: mean concurrent ~ rate x mean hold under light
// load, within a generous tolerance for the short horizon.
func TestLittlesLawPerProcess(t *testing.T) {
	arrivals := []dynamic.ArrivalSpec{
		{Process: dynamic.ProcessPoisson, RateHz: 1},
		{Process: dynamic.ProcessGamma, RateHz: 1, CV: 2},
		{Process: dynamic.ProcessWeibull, RateHz: 1, Shape: 1.5},
		{Process: dynamic.ProcessDiurnal, RateHz: 1,
			Phases: []dynamic.PhaseSpec{{DurationS: 25, RateFactor: 0.5}, {DurationS: 25, RateFactor: 1.5}}},
	}
	for _, a := range arrivals {
		t.Run(a.Process, func(t *testing.T) {
			cfg := fastConfig()
			cfg.Workload = singleCohortSpec(a, dynamic.DistSpec{Dist: dynamic.DistExponential, Mean: 20})
			cfg.DurationS = 400
			rep, err := Run(cfg)
			if err != nil {
				t.Fatal(err)
			}
			proc, err := a.NewProcess()
			if err != nil {
				t.Fatal(err)
			}
			want := dynamic.MeanRate(proc) * 20
			if math.Abs(rep.MeanConcurrent-want) > want*0.5 {
				t.Errorf("%s: mean concurrent = %v, Little's law predicts ~%v", a.Process, rep.MeanConcurrent, want)
			}
			if rep.Saturated != 0 {
				t.Errorf("%s: saturated = %d at light load", a.Process, rep.Saturated)
			}
		})
	}
}

// TestTraceReplaySession replays a recorded trace with demand hints and
// checks the per-cohort accounting.
func TestTraceReplaySession(t *testing.T) {
	// 40 interactive arrivals with CRU hint 3, 20 batch with hint 5,
	// merged into one time-sorted trace.
	type ev struct {
		t      float64
		cohort string
		demand int
	}
	var evs []ev
	for i := 0; i < 40; i++ {
		evs = append(evs, ev{float64(i) * 2, "interactive", 3})
	}
	for i := 0; i < 20; i++ {
		evs = append(evs, ev{float64(i)*4 + 1, "batch", 5})
	}
	sort.Slice(evs, func(i, j int) bool { return evs[i].t < evs[j].t })
	var sb strings.Builder
	sb.WriteString("t,cohort,demand\n")
	for _, e := range evs {
		fmt.Fprintf(&sb, "%g,%s,%d\n", e.t, e.cohort, e.demand)
	}
	spec := writeTraceSpec(t, sb.String(), []dynamic.Cohort{
		{Name: "interactive", PoolShare: 0.6,
			HoldS: dynamic.DistSpec{Dist: dynamic.DistExponential, Mean: 15}},
		{Name: "batch", PoolShare: 0.4,
			HoldS:        dynamic.DistSpec{Dist: dynamic.DistConstant, Value: 30},
			CRUDemandMin: 5, CRUDemandMax: 5},
	})
	cfg := fastConfig()
	cfg.Workload = spec
	cfg.DurationS = 100
	rep, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Cohorts) != 2 {
		t.Fatalf("cohorts = %d, want 2", len(rep.Cohorts))
	}
	inter, batch := rep.Cohorts[0], rep.Cohorts[1]
	// Events strictly inside the horizon: interactive at 0,2,...,98 → 50
	// recorded, 40 exist; batch at 1,5,...,77 → 20.
	if inter.Arrivals != 40 {
		t.Errorf("interactive arrivals = %d, want 40", inter.Arrivals)
	}
	if batch.Arrivals != 20 {
		t.Errorf("batch arrivals = %d, want 20", batch.Arrivals)
	}
	if rep.Arrivals != 60 {
		t.Errorf("total arrivals = %d, want 60", rep.Arrivals)
	}
	// Trace replay must be repeatable: Run re-loads the trace from the
	// spec each time, so stateful Replay cursors never leak across runs.
	rep2, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(rep, rep2) {
		t.Fatal("trace replay not deterministic")
	}
}

// TestCohortObsCounters checks that a spec session streams its per-cohort
// lifecycle counts into the recorder's registry.
func TestCohortObsCounters(t *testing.T) {
	spec := singleCohortSpec(
		dynamic.ArrivalSpec{Process: dynamic.ProcessPoisson, RateHz: 2},
		dynamic.DistSpec{Dist: dynamic.DistExponential, Mean: 20})
	cfg := fastConfig()
	cfg.Workload = spec
	reg := obs.NewRegistry()
	cfg.Obs = obs.NewRecorder(reg, nil)
	rep, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	got := int(reg.Counter(obs.Label("online_cohort_arrivals_total", "cohort", "all")).Value())
	if got != rep.Arrivals {
		t.Errorf("arrivals counter = %d, report says %d", got, rep.Arrivals)
	}
	dep := int(reg.Counter(obs.Label("online_cohort_departures_total", "cohort", "all")).Value())
	if dep != rep.Departures {
		t.Errorf("departures counter = %d, report says %d", dep, rep.Departures)
	}
	served := int(reg.Counter(obs.Label("online_cohort_edge_served_total", "cohort", "all")).Value()) +
		int(reg.Counter(obs.Label("online_cohort_cloud_served_total", "cohort", "all")).Value())
	if served != rep.EdgeServed+rep.CloudServed {
		t.Errorf("served counters = %d, report says %d", served, rep.EdgeServed+rep.CloudServed)
	}
}
