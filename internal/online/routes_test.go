package online

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"encoding/json"
	"hash/fnv"
	"math"
	"reflect"
	"testing"

	"dmra/internal/alloc"
	"dmra/internal/mec"
	"dmra/internal/obs"
	"dmra/internal/workload"
	"dmra/internal/workload/dynamic"
)

// benchShapeConfig is the benchmark's session shape at base scale: a
// steady Poisson cohort and a bursty gamma cohort (CV 2) with mean-60 s
// exponential lifetimes over the dense city with four times its
// hotspots, re-matched every second for two simulated minutes.
func benchShapeConfig(seed uint64) Config {
	hold := dynamic.DistSpec{Dist: dynamic.DistExponential, Mean: 60}
	spec := dynamic.Spec{Version: dynamic.SpecVersion, Cohorts: []dynamic.Cohort{
		{Name: "steady", PoolShare: 0.7, HoldS: hold,
			Arrival: dynamic.ArrivalSpec{Process: dynamic.ProcessPoisson, RateHz: 7}},
		{Name: "bursty", PoolShare: 0.3, HoldS: hold,
			Arrival: dynamic.ArrivalSpec{Process: dynamic.ProcessGamma, RateHz: 3, CV: 2}},
	}}
	cfg := DefaultConfig()
	cfg.Scenario = workload.DenseCity()
	cfg.Scenario.HotspotCount *= 4
	cfg.Workload = &spec
	cfg.EpochS = 1
	cfg.DurationS = 120
	cfg.Seed = seed
	return cfg
}

// routeCases are the session shapes every epoch route must agree on:
// the benchmark's shape on two seeds, and the fast, saturating
// (cloud-fallback) and series sessions the incremental tests use.
func routeCases() []struct {
	name string
	cfg  Config
} {
	return []struct {
		name string
		cfg  Config
	}{
		{"bench-seed1", benchShapeConfig(1)},
		{"bench-seed2", benchShapeConfig(2)},
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
}

// fromScratch runs cfg down the SubView + allocator route with a DMRA
// allocator as testHookAllocator: every epoch re-matches the waiting set
// from scratch with the arena engine over the SubView's masked store
// (TestParity pins the arena to the naive reference), the reference the
// delta-repair routes must reproduce.
func fromScratch(cfg Config) (Report, error) {
	testHookAllocator = alloc.NewDMRA(cfg.DMRA)
	defer func() { testHookAllocator = nil }()
	return Run(cfg)
}

// TestSessionEpochRoutesAgree runs each session shape down every epoch
// route — the default delta repair, Incremental set, an observed
// session, and the from-scratch reference — and requires the reports
// equal once the Delta* counters are zeroed. The observed session must
// stream Alg. 1 events. A rho < 0 session takes the default route too
// and must equal its own from-scratch reference. No session may build a
// network after its scenario, on any route.
func TestSessionEpochRoutesAgree(t *testing.T) {
	for _, tt := range routeCases() {
		t.Run(tt.name, func(t *testing.T) {
			cfg := tt.cfg
			builds := mec.NetworkBuilds()
			def, err := Run(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if def.DeltaFrontier != 0 || def.DeltaReleased != 0 ||
				def.DeltaInvalidated != 0 || def.DeltaRepairRounds != 0 {
				t.Errorf("default session reported delta activity without Incremental: %+v", def)
			}
			if def.EdgeServed == 0 || def.Departures == 0 {
				t.Fatalf("degenerate session %+v", def)
			}

			inc := cfg
			inc.Incremental = true
			got, err := Run(inc)
			if err != nil {
				t.Fatal(err)
			}
			if got.DeltaFrontier == 0 {
				t.Errorf("incremental session reported no frontier")
			}
			got.DeltaFrontier, got.DeltaReleased = 0, 0
			got.DeltaInvalidated, got.DeltaRepairRounds = 0, 0
			if !reflect.DeepEqual(def, got) {
				t.Errorf("Incremental report differs from the default:\n got %+v\nwant %+v", got, def)
			}

			ref, err := fromScratch(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(def, ref) {
				t.Errorf("default report differs from the from-scratch reference:\n got %+v\nwant %+v", def, ref)
			}

			reg := obs.NewRegistry()
			observed := cfg
			observed.Obs = obs.NewRecorder(reg, nil)
			got, err = Run(observed)
			if err != nil {
				t.Fatal(err)
			}
			if reg.Counter("dmra_proposals_total").Value() == 0 {
				t.Errorf("observed session streamed no Alg. 1 events")
			}
			if !reflect.DeepEqual(def, got) {
				t.Errorf("observed report differs from the unobserved one:\n got %+v\nwant %+v", got, def)
			}

			neg := cfg
			neg.DMRA.Rho = -1
			rep, err := Run(neg)
			if err != nil {
				t.Fatalf("rho < 0 session: %v", err)
			}
			if rep.EdgeServed == 0 {
				t.Errorf("rho < 0 session served nothing: %+v", rep)
			}
			if ref, err = fromScratch(neg); err != nil {
				t.Fatalf("rho < 0 from-scratch session: %v", err)
			}
			if !reflect.DeepEqual(rep, ref) {
				t.Errorf("rho < 0 report differs from the from-scratch reference:\n got %+v\nwant %+v", rep, ref)
			}
			if n := mec.NetworkBuilds() - builds; n != 6 {
				t.Errorf("six sessions built %d networks, want 6 (one scenario each)", n)
			}
		})
	}
}

// TestOccupancyCounterMatchesRecount runs a spec session with both the
// per-epoch series and a timeline writer, and requires every occupancy
// it reports to match the values the driver produced when it recounted
// RRBs over every BS at each sample: the mean occupancy integral, and
// FNV-1a hashes of the series and timeline occupancy float bits. The
// running total must be the same integer as the recount, so every float
// is bit-identical. Run's end-of-session CheckInvariants recounts the
// total as well, and the mec tests check it after random scripts.
func TestOccupancyCounterMatchesRecount(t *testing.T) {
	cfg := benchShapeConfig(3)
	cfg.DurationS = 60
	cfg.RecordSeries = true
	var tl bytes.Buffer
	cfg.Timeline = &tl
	cfg.TimelineEveryS = 2.5
	rep, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}

	const (
		wantMean     = 0.2864601444233934
		wantSeries   = 60
		wantSeriesH  = 0x65ba5ea9e979eda5
		wantTimeline = 24
		wantTimeH    = 0x2cefbce5b44f46bd
	)
	if rep.MeanOccupancyRRB != wantMean {
		t.Errorf("MeanOccupancyRRB = %v, recount gave %v", rep.MeanOccupancyRRB, wantMean)
	}
	h := fnv.New64a()
	var b [8]byte
	for _, e := range rep.Series {
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(e.OccupancyRRB))
		h.Write(b[:])
	}
	if len(rep.Series) != wantSeries || h.Sum64() != wantSeriesH {
		t.Errorf("series occupancy: %d samples hashing %#x, recount gave %d hashing %#x",
			len(rep.Series), h.Sum64(), wantSeries, uint64(wantSeriesH))
	}
	h.Reset()
	lines := 0
	sc := bufio.NewScanner(&tl)
	for sc.Scan() {
		var sample obs.TimelineSample
		if err := json.Unmarshal(sc.Bytes(), &sample); err != nil {
			t.Fatal(err)
		}
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(sample.OccupancyRRB))
		h.Write(b[:])
		lines++
	}
	if lines != wantTimeline || h.Sum64() != wantTimeH {
		t.Errorf("timeline occupancy: %d samples hashing %#x, recount gave %d hashing %#x",
			lines, h.Sum64(), wantTimeline, uint64(wantTimeH))
	}
}
