package alloc

import (
	"testing"

	"dmra/internal/mec"
	"dmra/internal/workload"
)

// benchScenarios are the three densities BenchmarkAllocate pins: a sparse
// suburb, the paper's default §VI population, and the rush-hour dense-city
// scenario of examples/densecity (hotspot-clustered demand, Zipf services).
func benchScenarios() []struct {
	name string
	cfg  workload.Config
} {
	sparse := workload.Default()
	sparse.UEs = 300
	def := workload.Default()
	def.UEs = 900
	return []struct {
		name string
		cfg  workload.Config
	}{
		{"sparse-300ue", sparse},
		{"default-900ue", def},
		{"densecity-1100ue", workload.DenseCity()},
	}
}

// benchScaledScenarios are the constant-density dense-city rungs for
// the SoA arena engine: the 100k mid-rung and the million-UE headline
// case. Scale factors are edge multipliers (UE count grows with the
// square): ×10 is 110,000 UEs over 2,500 BSs, ×31 is 1,057,100 UEs over
// 24,025 BSs, both at the base scenario's local density. The 1M rung is
// skipped under -short so check.sh's bench smoke stays fast; run it via
// `make bench-1m`.
func benchScaledScenarios() []struct {
	name  string
	scale int
	short bool
} {
	return []struct {
		name  string
		scale int
		short bool
	}{
		{"densecity-100k", 10, false},
		{"densecity-1M", 31, true},
	}
}

func benchNet(b testing.TB, cfg workload.Config) *mec.Network {
	net, err := cfg.Build(1)
	if err != nil {
		b.Fatal(err)
	}
	return net
}

func benchAllocate(b *testing.B, net *mec.Network) {
	d := NewDMRA(DefaultDMRAConfig())
	var res Result
	// Warm the arena pool and res's backing so the timed loop measures
	// steady state.
	if err := d.AllocateInto(net, &res); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := d.AllocateInto(net, &res); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAllocate times DMRA's arena engine at three scenario
// densities and the scaled dense-city rungs. With a nil observer the
// steady-state hot path does not allocate; TestAllocateIntoAllocationFree
// asserts it.
func BenchmarkAllocate(b *testing.B) {
	for _, sc := range benchScenarios() {
		net := benchNet(b, sc.cfg)
		b.Run(sc.name, func(b *testing.B) {
			benchAllocate(b, net)
		})
	}
	for _, sc := range benchScaledScenarios() {
		b.Run(sc.name, func(b *testing.B) {
			if sc.short && testing.Short() {
				b.Skipf("%s skipped under -short (run via make bench-1m)", sc.name)
			}
			// Built inside the sub-benchmark (untimed: benchAllocate resets
			// the timer) so filtered and -short runs never pay for it.
			net := benchNet(b, workload.DenseCity().Scale(sc.scale))
			benchAllocate(b, net)
		})
	}
}
