package alloc

import (
	"testing"

	"dmra/internal/engine"
	"dmra/internal/mec"
	"dmra/internal/workload"
)

// churnSession drives the incremental engine through steady-state churn:
// a standing population is matched once untimed, then every epoch departs
// a fixed fraction of the edge-served UEs, re-arrives the same UEs, and
// settles — the delta-repair cost the tentpole claims is O(churn).
type churnSession struct {
	net     *mec.Network
	inc     *engine.Incremental
	cursor  int
	scratch []mec.UEID
}

func newChurnSession(b testing.TB, net *mec.Network) *churnSession {
	b.Helper()
	cs := &churnSession{net: net, inc: new(engine.Incremental)}
	if err := cs.inc.Begin(net, engine.Config(DefaultDMRAConfig()), 0); err != nil {
		b.Fatal(err)
	}
	for u := range net.UEs {
		if err := cs.inc.Arrive(mec.UEID(u)); err != nil {
			b.Fatal(err)
		}
	}
	if _, err := cs.inc.Settle(); err != nil {
		b.Fatal(err)
	}
	return cs
}

// epoch departs up to k edge-served UEs picked by a deterministic cyclic
// scan, re-arrives them, and settles. Returns the number of churn events
// applied (a departure and an arrival per picked UE).
func (cs *churnSession) epoch(b testing.TB, k int) int {
	serving := cs.inc.Serving()
	n := len(serving)
	picked := cs.scratch[:0]
	for scanned := 0; len(picked) < k && scanned < n; scanned++ {
		u := cs.cursor
		cs.cursor++
		if cs.cursor == n {
			cs.cursor = 0
		}
		if serving[u] >= 0 {
			picked = append(picked, mec.UEID(u))
		}
	}
	for _, u := range picked {
		cs.inc.Depart(u)
	}
	for _, u := range picked {
		if err := cs.inc.Arrive(u); err != nil {
			b.Fatal(err)
		}
	}
	if _, err := cs.inc.Settle(); err != nil {
		b.Fatal(err)
	}
	cs.scratch = picked
	return 2 * len(picked)
}

// churnCases are the standing-population x churn-fraction grid of the
// BenchmarkChurn gate: the dense-city scenario at ~10k and ~110k UEs,
// with 1% and 10% of the population cycling per epoch.
func churnCases() []struct {
	name  string
	scale int
	frac  float64
} {
	return []struct {
		name  string
		scale int
		frac  float64
	}{
		{"10k-1pct", 3, 0.01},
		{"10k-10pct", 3, 0.10},
		{"100k-1pct", 10, 0.01},
		{"100k-10pct", 10, 0.10},
	}
}

// BenchmarkChurn compares per-epoch cost under churn: the incremental
// arm delta-repairs only the churned frontier; the scratch arm is the
// pre-PR driver, a full from-scratch re-match of the whole standing
// population every epoch. Both arms see the same churn (each departure
// is refilled by the same UE's re-arrival, so the population is
// unchanged and the scratch epoch is exactly one full match). Reported
// events/sec is churn events absorbed per wall-clock second.
func BenchmarkChurn(b *testing.B) {
	for _, tc := range churnCases() {
		b.Run(tc.name, func(b *testing.B) {
			// Built inside the sub-benchmark so filtered runs never pay
			// for the scenario construction.
			net := benchNet(b, workload.DenseCity().Scale(tc.scale))
			k := int(float64(len(net.UEs)) * tc.frac)
			b.Run("incremental", func(b *testing.B) {
				cs := newChurnSession(b, net)
				events := 0
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					events += cs.epoch(b, k)
				}
				b.ReportMetric(float64(events)/b.Elapsed().Seconds(), "events/sec")
			})
			b.Run("scratch", func(b *testing.B) {
				cfg := engine.Config(DefaultDMRAConfig())
				var a engine.Arena
				if _, err := a.Run(net, cfg, 0, nil); err != nil {
					b.Fatal(err)
				}
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if _, err := a.Run(net, cfg, 0, nil); err != nil {
						b.Fatal(err)
					}
				}
				b.ReportMetric(float64(2*k*b.N)/b.Elapsed().Seconds(), "events/sec")
			})
		})
	}
}
