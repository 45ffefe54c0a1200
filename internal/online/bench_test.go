package online

import (
	"encoding/json"
	"os"
	"runtime"
	"testing"
	"time"

	"dmra/internal/workload/dynamic"
)

// benchSessionConfig is the pinned BenchmarkSession scenario: a moderately
// loaded two-minute session over a 600-profile population. The same
// configuration feeds the BENCH_BASELINE record, so cross-PR comparisons
// via scripts/benchdiff.sh time identical work.
func benchSessionConfig() Config {
	cfg := DefaultConfig()
	cfg.Scenario.UEs = 600
	cfg.ArrivalRate = 3
	cfg.MeanHoldS = 60
	cfg.DurationS = 120
	return cfg
}

// BenchmarkSession times one full dynamic session: scenario build, Poisson
// arrivals, per-epoch re-matching, departures. Unobserved DMRA epochs
// delta-repair the standing match, so epoch cost follows churn, and the
// per-event bookkeeping (occupancy integral, margins, event queue) is O(1).
func BenchmarkSession(b *testing.B) {
	cfg := benchSessionConfig()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cfg.Seed = uint64(i + 1)
		if _, err := Run(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// TestWriteSessionBenchBaseline appends one JSON line to the file named by
// BENCH_BASELINE (skipped when unset): the BenchmarkSession ns/op and
// allocs/op. Run via `make bench`; scripts/benchdiff.sh compares the last
// two records and fails on regression.
func TestWriteSessionBenchBaseline(t *testing.T) {
	path := os.Getenv("BENCH_BASELINE")
	if path == "" {
		t.Skip("BENCH_BASELINE not set")
	}
	cfg := benchSessionConfig()
	r := testing.Benchmark(func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			cfg.Seed = uint64(i + 1)
			if _, err := Run(cfg); err != nil {
				b.Fatal(err)
			}
		}
	})
	baseline := map[string]any{
		"time":       time.Now().UTC().Format(time.RFC3339),
		"benchmark":  "BenchmarkSession",
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"ns_op":      r.NsPerOp(),
		"allocs_op":  r.AllocsPerOp(),
	}
	data, err := json.Marshal(baseline)
	if err != nil {
		t.Fatal(err)
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if _, err := f.Write(append(data, '\n')); err != nil {
		t.Fatal(err)
	}
	t.Logf("appended BenchmarkSession baseline to %s", path)
}

// benchWorkloadSpecs pins one single-cohort spec per arrival process at
// the same offered load as benchSessionConfig (3 UE/s x 60 s), so the
// per-process events/sec numbers in BENCH_exp.json time comparable work.
func benchWorkloadSpecs() []struct {
	name string
	spec *dynamic.Spec
} {
	hold := dynamic.DistSpec{Dist: dynamic.DistExponential, Mean: 60}
	one := func(a dynamic.ArrivalSpec) *dynamic.Spec {
		return &dynamic.Spec{
			Version: dynamic.SpecVersion,
			Cohorts: []dynamic.Cohort{{Name: "all", PoolShare: 1, Arrival: a, HoldS: hold}},
		}
	}
	return []struct {
		name string
		spec *dynamic.Spec
	}{
		{"poisson", one(dynamic.ArrivalSpec{Process: dynamic.ProcessPoisson, RateHz: 3})},
		{"gamma", one(dynamic.ArrivalSpec{Process: dynamic.ProcessGamma, RateHz: 3, CV: 2})},
		{"weibull", one(dynamic.ArrivalSpec{Process: dynamic.ProcessWeibull, RateHz: 3, Shape: 1.5})},
		{"diurnal", one(dynamic.ArrivalSpec{Process: dynamic.ProcessDiurnal, RateHz: 3,
			Phases: []dynamic.PhaseSpec{{DurationS: 30, RateFactor: 0.5}, {DurationS: 30, RateFactor: 1.5}}})},
	}
}

// BenchmarkDynamicSession times a full spec-driven session per arrival
// process and reports the engine's events/sec throughput alongside
// ns/op.
func BenchmarkDynamicSession(b *testing.B) {
	for _, tc := range benchWorkloadSpecs() {
		b.Run(tc.name, func(b *testing.B) {
			cfg := benchSessionConfig()
			cfg.Workload = tc.spec
			events := 0
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				cfg.Seed = uint64(i + 1)
				rep, err := Run(cfg)
				if err != nil {
					b.Fatal(err)
				}
				events += rep.Events
			}
			b.ReportMetric(float64(events)/b.Elapsed().Seconds(), "events/sec")
		})
	}
}

// TestWriteDynamicSessionBenchBaseline appends one per-case JSON line
// (ns/op and events/sec per arrival process) to the file named by
// BENCH_BASELINE. Run via `make bench`; scripts/benchdiff.sh compares
// the last two records case by case.
func TestWriteDynamicSessionBenchBaseline(t *testing.T) {
	path := os.Getenv("BENCH_BASELINE")
	if path == "" {
		t.Skip("BENCH_BASELINE not set")
	}
	cases := map[string]any{}
	for _, tc := range benchWorkloadSpecs() {
		cfg := benchSessionConfig()
		cfg.Workload = tc.spec
		events := 0
		r := testing.Benchmark(func(b *testing.B) {
			events = 0
			for i := 0; i < b.N; i++ {
				cfg.Seed = uint64(i + 1)
				rep, err := Run(cfg)
				if err != nil {
					b.Fatal(err)
				}
				events += rep.Events
			}
		})
		perOp := float64(events) / float64(r.N)
		cases[tc.name] = map[string]any{
			"ns_op":          r.NsPerOp(),
			"events_per_op":  perOp,
			"events_per_sec": perOp / (float64(r.NsPerOp()) / 1e9),
		}
	}
	baseline := map[string]any{
		"time":       time.Now().UTC().Format(time.RFC3339),
		"benchmark":  "BenchmarkDynamicSession",
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"cases":      cases,
	}
	data, err := json.Marshal(baseline)
	if err != nil {
		t.Fatal(err)
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if _, err := f.Write(append(data, '\n')); err != nil {
		t.Fatal(err)
	}
	t.Logf("appended BenchmarkDynamicSession baseline to %s", path)
}
