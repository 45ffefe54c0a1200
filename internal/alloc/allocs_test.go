package alloc

import (
	"testing"

	"dmra/internal/workload"
)

// TestAllocateIntoAllocationFree pins the steady-state hot path: once a
// warm-up run has sized the pooled arena and the result's backing, DMRA
// matches each BenchmarkAllocate density without a heap allocation.
func TestAllocateIntoAllocationFree(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector makes sync.Pool drop arenas")
	}
	for _, sc := range benchScenarios() {
		net := benchNet(t, sc.cfg)
		d := NewDMRA(DefaultDMRAConfig())
		var res Result
		allocs := testing.AllocsPerRun(5, func() {
			if err := d.AllocateInto(net, &res); err != nil {
				t.Fatal(err)
			}
		})
		if allocs != 0 {
			t.Errorf("%s: AllocateInto allocates %.1f times per run, want 0", sc.name, allocs)
		}
	}
}

// TestChurnEpochAllocations pins the incremental engine's per-epoch cost
// under churn: departing, re-arriving and settling 100 UEs of a standing
// ~10k-UE dense city allocates at most once.
func TestChurnEpochAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector makes sync.Pool drop items")
	}
	cs := newChurnSession(t, benchNet(t, workload.DenseCity().Scale(3)))
	allocs := testing.AllocsPerRun(10, func() { cs.epoch(t, 100) })
	if allocs > 1 {
		t.Errorf("churn epoch allocates %.1f times per run, want at most 1", allocs)
	}
}
