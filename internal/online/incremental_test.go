package online

import (
	"reflect"
	"testing"
)

// TestIncrementalOffIsIdentical pins the satellite contract of the
// delta-repair PR: with Incremental explicitly false, the session is
// byte-identical to the pre-PR driver — the same golden values
// TestDefaultProcessByteIdentical pins — and reports no delta activity.
func TestIncrementalOffIsIdentical(t *testing.T) {
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
	}
	for _, tt := range cases {
		t.Run(tt.name, func(t *testing.T) {
			tt.cfg.Incremental = false
			rep, err := Run(tt.cfg)
			if err != nil {
				t.Fatal(err)
			}
			if got := legacy(rep); got != tt.want {
				t.Errorf("legacy mode diverged from pre-PR output:\n got %+v\nwant %+v", got, tt.want)
			}
			if rep.DeltaFrontier != 0 || rep.DeltaReleased != 0 ||
				rep.DeltaInvalidated != 0 || rep.DeltaRepairRounds != 0 {
				t.Errorf("legacy mode reported delta activity: %+v", rep)
			}
		})
	}
}

// TestIncrementalSessionMatchesLegacy runs the same session with
// Incremental set and down the from-scratch reference route (every epoch
// re-matched by the naive DMRA allocator over a SubView) and requires
// the full reports equal — lifecycle counts, profit and occupancy
// integrals, series — with only the Delta* counters new. This is the
// session-level face of the delta-repair ≡ from-scratch equivalence the
// engine fuzz proves.
func TestIncrementalSessionMatchesLegacy(t *testing.T) {
	cases := []struct {
		name string
		cfg  Config
	}{
		{"fast", fastConfig()},
		{"fast-seed7", func() Config { c := fastConfig(); c.Seed = 7; return c }()},
		{"saturating", func() Config {
			c := fastConfig()
			c.ArrivalRate = 20
			c.MeanHoldS = 120
			c.DurationS = 90
			c.Scenario.UEs = 2500
			return c
		}()},
		{"series", func() Config {
			c := fastConfig()
			c.RecordSeries = true
			c.DurationS = 60
			return c
		}()},
	}
	for _, tt := range cases {
		t.Run(tt.name, func(t *testing.T) {
			base, err := fromScratch(tt.cfg)
			if err != nil {
				t.Fatal(err)
			}
			inc := tt.cfg
			inc.Incremental = true
			got, err := Run(inc)
			if err != nil {
				t.Fatal(err)
			}
			if got.DeltaFrontier == 0 && got.Arrivals > 0 {
				t.Errorf("incremental session reported no frontier over %d arrivals", got.Arrivals)
			}
			got.DeltaFrontier, got.DeltaReleased = 0, 0
			got.DeltaInvalidated, got.DeltaRepairRounds = 0, 0
			if !reflect.DeepEqual(base, got) {
				t.Errorf("incremental session diverged from from-scratch mode:\n got %+v\nwant %+v", got, base)
			}
		})
	}
}

// TestIncrementalValidate pins the mode's configuration constraints.
func TestIncrementalValidate(t *testing.T) {
	c := fastConfig()
	c.Incremental = true
	if err := c.Validate(); err != nil {
		t.Fatalf("incremental dmra config rejected: %v", err)
	}
	bad := c
	bad.Algorithm = "greedy"
	if err := bad.Validate(); err == nil {
		t.Error("incremental mode accepted a non-dmra policy")
	}
	neg := c
	neg.DMRA.Rho = -1
	if err := neg.Validate(); err != nil {
		t.Errorf("incremental mode rejected rho < 0: %v", err)
	}
}
