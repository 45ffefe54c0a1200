package online

import "testing"

// BenchmarkSession times one full dynamic session — scenario build, Poisson
// arrivals, per-epoch re-matching, departures — pinned to a moderately
// loaded two-minute session over a 600-profile population. Unobserved
// DMRA epochs delta-repair the standing match, so epoch cost follows
// churn, and the per-event bookkeeping (occupancy integral, margins, event
// queue) is O(1).
func BenchmarkSession(b *testing.B) {
	cfg := DefaultConfig()
	cfg.Scenario.UEs = 600
	cfg.ArrivalRate = 3
	cfg.MeanHoldS = 60
	cfg.DurationS = 120
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cfg.Seed = uint64(i + 1)
		if _, err := Run(cfg); err != nil {
			b.Fatal(err)
		}
	}
}
