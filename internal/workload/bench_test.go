package workload

import "testing"

// buildScales holds the |BS| sweep for BenchmarkNewNetwork. The area grows
// with the BS count so coverage density stays constant: an all-pairs link
// build is O(|UE|*|BS|) across the sweep, while the grid-indexed build
// stays proportional to |UE| * (BSs within coverage) — the gap widens
// superlinearly with scale.
func buildScales() []struct {
	name string
	cfg  Config
} {
	return []struct {
		name string
		cfg  Config
	}{
		{"25bs-600ue", Default().Scale(1)},
		{"100bs-2400ue", Default().Scale(2)},
		{"400bs-9600ue", Default().Scale(4)},
		{"2500bs-110kue", DenseCity().Scale(10)},
	}
}

// BenchmarkNewNetwork times full scenario construction (placement,
// validation, and the grid-indexed candidate-link build) across the BS
// scale sweep.
func BenchmarkNewNetwork(b *testing.B) {
	for _, sc := range buildScales() {
		b.Run(sc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := sc.cfg.Build(1); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
	// The million-UE rung (24,025 BSs, 1,057,100 UEs, ~7M candidate
	// links) is skipped under -short so check.sh's bench smoke stays
	// fast; `make bench-1m` runs it.
	b.Run("24kbs-1Mue", func(b *testing.B) {
		if testing.Short() {
			b.Skip("1M build skipped under -short (run via make bench-1m)")
		}
		cfg := DenseCity().Scale(31)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := cfg.Build(1); err != nil {
				b.Fatal(err)
			}
		}
	})
}
