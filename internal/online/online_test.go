package online

import (
	"math"
	"strings"
	"testing"

	"dmra/internal/alloc"
	"dmra/internal/geo"
	"dmra/internal/mec"
	"dmra/internal/obs"
	"dmra/internal/radio"
)

func fastConfig() Config {
	cfg := DefaultConfig()
	cfg.Scenario.UEs = 400
	cfg.ArrivalRate = 2
	cfg.MeanHoldS = 30
	cfg.DurationS = 120
	return cfg
}

func TestDefaultConfigValid(t *testing.T) {
	if err := DefaultConfig().Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestValidateRejects(t *testing.T) {
	tests := []struct {
		name    string
		mutate  func(*Config)
		wantSub string
	}{
		{"zero arrivals", func(c *Config) { c.ArrivalRate = 0 }, "arrival rate"},
		{"zero hold", func(c *Config) { c.MeanHoldS = 0 }, "mean hold"},
		{"zero epoch", func(c *Config) { c.EpochS = 0 }, "epoch"},
		{"zero duration", func(c *Config) { c.DurationS = 0 }, "duration"},
		{"duration below epoch", func(c *Config) { c.DurationS = 0.5; c.EpochS = 1 }, "below one epoch"},
		{"bad algorithm", func(c *Config) { c.Algorithm = "oracle" }, "unknown allocator"},
		{"bad scenario", func(c *Config) { c.Scenario.SPs = 0 }, "SPs"},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			cfg := DefaultConfig()
			tt.mutate(&cfg)
			err := cfg.Validate()
			if err == nil {
				t.Fatal("expected error")
			}
			if !strings.Contains(err.Error(), tt.wantSub) {
				t.Fatalf("error %q does not mention %q", err, tt.wantSub)
			}
		})
	}
}

func TestRunBasicSession(t *testing.T) {
	rep, err := Run(fastConfig())
	if err != nil {
		t.Fatal(err)
	}
	// ~2 arrivals/s over 120 s.
	if rep.Arrivals < 150 || rep.Arrivals > 350 {
		t.Errorf("arrivals = %d, want ~240", rep.Arrivals)
	}
	if rep.EdgeServed+rep.CloudServed == 0 {
		t.Fatal("no tasks admitted")
	}
	if rep.EdgeRatio() <= 0.5 {
		t.Errorf("edge ratio = %v, want mostly edge under light load", rep.EdgeRatio())
	}
	if rep.ProfitTime <= 0 {
		t.Errorf("profit-time integral = %v, want positive", rep.ProfitTime)
	}
	if rep.Epochs < int(120/fastConfig().EpochS)-2 {
		t.Errorf("epochs = %d, want ~120", rep.Epochs)
	}
	if rep.MeanConcurrent <= 0 {
		t.Error("mean concurrent population is zero")
	}
	if rep.MeanOccupancyRRB <= 0 || rep.MeanOccupancyRRB >= 1 {
		t.Errorf("mean RRB occupancy = %v, want in (0,1)", rep.MeanOccupancyRRB)
	}
	if rep.Saturated != 0 {
		t.Errorf("saturated = %d, want 0 at this load", rep.Saturated)
	}
}

func TestRunDeterministic(t *testing.T) {
	a, err := Run(fastConfig())
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(fastConfig())
	if err != nil {
		t.Fatal(err)
	}
	if a.Arrivals != b.Arrivals || a.Departures != b.Departures ||
		a.EdgeServed != b.EdgeServed || a.CloudServed != b.CloudServed ||
		a.ProfitTime != b.ProfitTime || a.MeanConcurrent != b.MeanConcurrent {
		t.Fatalf("non-deterministic session:\n%+v\n%+v", a, b)
	}
}

func TestRunSeedsDiffer(t *testing.T) {
	cfg := fastConfig()
	a, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Seed = 2
	b, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a.Arrivals == b.Arrivals && a.ProfitTime == b.ProfitTime {
		t.Error("different seeds produced identical sessions")
	}
}

func TestLittlesLaw(t *testing.T) {
	// Under light load: mean concurrent ~ lambda * mean hold (Little's
	// law), within generous tolerance for a short horizon.
	cfg := fastConfig()
	cfg.ArrivalRate = 1
	cfg.MeanHoldS = 20
	cfg.DurationS = 400
	rep, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	want := cfg.ArrivalRate * cfg.MeanHoldS // 20
	if math.Abs(rep.MeanConcurrent-want) > want*0.5 {
		t.Errorf("mean concurrent = %v, Little's law predicts ~%v", rep.MeanConcurrent, want)
	}
}

func TestHeavyLoadForwardsToCloud(t *testing.T) {
	cfg := fastConfig()
	cfg.ArrivalRate = 20
	cfg.MeanHoldS = 120
	cfg.DurationS = 180
	cfg.Scenario.UEs = 2500
	rep, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if rep.CloudServed == 0 {
		t.Error("overloaded session never used the cloud")
	}
	if rep.MeanOccupancyRRB < 0.5 {
		t.Errorf("occupancy = %v, want high under overload", rep.MeanOccupancyRRB)
	}
}

func TestDeparturesFreeCapacity(t *testing.T) {
	// With short holding times the system reaches steady state and keeps
	// admitting: departures must be within the same order as arrivals.
	cfg := fastConfig()
	cfg.MeanHoldS = 10
	cfg.DurationS = 300
	rep, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Departures < rep.Arrivals/2 {
		t.Errorf("departures = %d vs arrivals = %d: resources are not cycling", rep.Departures, rep.Arrivals)
	}
}

func TestAlgorithmsComparableOnline(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-algorithm online comparison is slow")
	}
	cfg := fastConfig()
	cfg.ArrivalRate = 8
	cfg.MeanHoldS = 90
	cfg.DurationS = 240
	cfg.Scenario.UEs = 1500

	profits := make(map[string]float64)
	for _, algo := range []string{"dmra", "nonco", "random"} {
		c := cfg
		c.Algorithm = algo
		if algo == "dmra" {
			c.DMRA = alloc.DefaultDMRAConfig()
		}
		rep, err := Run(c)
		if err != nil {
			t.Fatalf("%s: %v", algo, err)
		}
		profits[algo] = rep.ProfitTime
	}
	if profits["dmra"] <= profits["random"] {
		t.Errorf("online DMRA %v not above random %v", profits["dmra"], profits["random"])
	}
}

func TestSaturationCounting(t *testing.T) {
	// A tiny profile pool must saturate under sustained arrivals.
	cfg := fastConfig()
	cfg.Scenario.UEs = 5
	cfg.ArrivalRate = 5
	cfg.MeanHoldS = 1000
	cfg.DurationS = 60
	rep, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Saturated == 0 {
		t.Error("expected saturation with a 5-profile pool")
	}
}

func TestRecordSeries(t *testing.T) {
	cfg := fastConfig()
	cfg.RecordSeries = true
	rep, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Series) != rep.Epochs {
		t.Fatalf("series has %d samples for %d epochs", len(rep.Series), rep.Epochs)
	}
	prevT := -1.0
	ramped := false
	for _, s := range rep.Series {
		if s.TimeS <= prevT {
			t.Fatalf("series times not increasing: %v after %v", s.TimeS, prevT)
		}
		prevT = s.TimeS
		if s.OccupancyRRB < 0 || s.OccupancyRRB > 1 {
			t.Fatalf("occupancy %v outside [0,1]", s.OccupancyRRB)
		}
		if s.ProfitRate > 0 {
			ramped = true
		}
	}
	if !ramped {
		t.Error("profit rate never became positive")
	}
	// Off by default.
	plain, err := Run(fastConfig())
	if err != nil {
		t.Fatal(err)
	}
	if plain.Series != nil {
		t.Error("series recorded without RecordSeries")
	}
}

// TestSubViewZeroResidualBSStaysPresent is the regression test for the
// congestion edge case the SubView fixed: a BS whose residual RRBs hit
// zero used to be rebuilt into the per-epoch reduced network with a fake
// 1-RRB budget and zeroed services, which silently dropped its links and
// shrank every covered UE's f_u. The sub-view must keep the drained BS
// present with its true zero residual — still a candidate, rejecting
// normally — and preserve coverage counts from the parent network.
func TestSubViewZeroResidualBSStaysPresent(t *testing.T) {
	rc := radio.DefaultConfig()
	rc.InterferenceMarginDB = 20
	pr := mec.Pricing{BasePrice: 1, CrossSPFactor: 2, DistanceSigma: 0.004, Law: mec.DistanceLinear}
	sps := []mec.SP{{ID: 0, Name: "sp", CRUPrice: 6, OtherCostPerCRU: 1}}
	build := func(bs0RRBs, bs0CRUs int) *mec.Network {
		bss := []mec.BS{
			{ID: 0, SP: 0, Pos: geo.Point{}, CRUCapacity: []int{bs0CRUs}, MaxRRBs: bs0RRBs},
			{ID: 1, SP: 0, Pos: geo.Point{X: 60}, CRUCapacity: []int{20}, MaxRRBs: 100},
		}
		ues := []mec.UE{
			{ID: 0, SP: 0, Pos: geo.Point{X: 10}, Service: 0, CRUDemand: 3, RateBps: 2e6},
			{ID: 1, SP: 0, Pos: geo.Point{X: 30}, Service: 0, CRUDemand: 3, RateBps: 2e6},
		}
		net, err := mec.NewNetwork(sps, bss, ues, 1, rc, pr)
		if err != nil {
			t.Fatal(err)
		}
		return net
	}

	// First build discovers the link cost; the second sizes BS 0 so that
	// admitting UE 0 drains it to exactly zero residual RRBs.
	probe := build(100, 20)
	l, ok := probe.Link(0, 0)
	if !ok {
		t.Fatal("UE 0 does not cover BS 0")
	}
	net := build(l.RRBs, probe.UEs[0].CRUDemand)
	state := mec.NewState(net)
	if err := state.Assign(0, 0); err != nil {
		t.Fatal(err)
	}
	if rem := state.RemainingRRBs(0); rem != 0 {
		t.Fatalf("BS 0 residual RRBs = %d, want 0", rem)
	}

	sub := net.NewSubView().Refresh([]mec.UEID{1}, state)
	if got := sub.BSs[0].MaxRRBs; got != 0 {
		t.Errorf("drained BS 0 in sub-view has MaxRRBs = %d, want 0", got)
	}
	if got, want := sub.CoverCount(1), net.CoverCount(1); got != want {
		t.Errorf("sub-view f_u = %d, want parent's %d", got, want)
	}
	if got, want := len(sub.Candidates(1)), len(net.Candidates(1)); got != want {
		t.Errorf("sub-view candidate count = %d, want %d (drained BS must stay a candidate)", got, want)
	}
	if cands := sub.Candidates(0); cands != nil {
		t.Errorf("inactive UE 0 has %d candidates, want none", len(cands))
	}

	res, err := alloc.NewDMRA(alloc.DefaultDMRAConfig()).Allocate(sub)
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Assignment.ServingBS[1]; got != 1 {
		t.Errorf("UE 1 served by BS %d, want the non-drained BS 1", got)
	}
	if got := res.Assignment.ServingBS[0]; got != mec.CloudBS {
		t.Errorf("inactive UE 0 served by BS %d, want cloud", got)
	}
}

// TestRunBuildsNoNetworksAfterSetup pins the sub-view refactor's headline
// property: a whole dynamic session performs exactly one network build
// (the scenario itself). A baseline session re-matches from scratch and
// every epoch reuses the session's SubView; default and observed DMRA
// sessions repair their epochs in the persistent delta-repair engine.
func TestRunBuildsNoNetworksAfterSetup(t *testing.T) {
	observed := fastConfig()
	observed.Obs = obs.NewRecorder(obs.NewRegistry(), nil)
	baseline := fastConfig()
	baseline.Algorithm = "greedy"
	for name, cfg := range map[string]Config{"default": fastConfig(), "observed": observed, "baseline": baseline} {
		before := mec.NetworkBuilds()
		if _, err := Run(cfg); err != nil {
			t.Fatal(err)
		}
		if got := mec.NetworkBuilds() - before; got != 1 {
			t.Fatalf("%s session performed %d network builds, want exactly 1 (scenario setup)", name, got)
		}
	}
}
