package engine

import (
	"testing"

	"dmra/internal/workload"
)

// TestArenaResetAllocationFree pins BenchmarkArenaReset's steady state:
// once a full run has sized every arena array, the between-run reset
// allocates nothing. Reset uses no sync.Pool, so the count holds under
// the race detector too.
func TestArenaResetAllocationFree(t *testing.T) {
	net, err := workload.DenseCity().Scale(3).Build(1)
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	var a Arena
	if _, err := a.Run(net, cfg, 0, nil); err != nil {
		t.Fatal(err)
	}
	csr := net.Dense()
	if allocs := testing.AllocsPerRun(10, func() { a.reset(csr, cfg) }); allocs != 0 {
		t.Errorf("Arena.reset allocates %.1f times per run, want 0", allocs)
	}
}
