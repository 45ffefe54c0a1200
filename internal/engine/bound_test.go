package engine_test

import (
	"testing"

	"dmra/internal/engine"
	"dmra/internal/mec"
	"dmra/internal/workload"
)

// TestRoundBound pins the bound to its definition — one round per
// candidate link plus the final empty round — across randomized shapes,
// and checks it always dominates the optimistic |UE|+1 the runtimes used
// historically (every assignable UE has at least one candidate).
func TestRoundBound(t *testing.T) {
	for seed := uint64(0); seed < 30; seed++ {
		net, err := workload.RandomShape(seed).Build(seed)
		if err != nil {
			continue
		}
		links := 0
		covered := 0
		for u := range net.UEs {
			c := net.CoverCount(mec.UEID(u))
			links += c
			if c > 0 {
				covered++
			}
		}
		got := engine.RoundBound(net)
		if got != links+1 {
			t.Fatalf("seed %d: RoundBound = %d, want links+1 = %d", seed, got, links+1)
		}
		if got < covered+1 {
			t.Fatalf("seed %d: RoundBound %d below covered-UE bound %d", seed, got, covered+1)
		}
	}
}
