package engine

import (
	"testing"

	"dmra/internal/mec"
	"dmra/internal/rng"
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

// TestSelectRoundAllocationFree pins a BS server's steady state: once a
// SelectScratch has seen an inbox, a select round over an inbox of that
// size — hundreds of requests over several services, as one BS receives
// on a dense city — allocates nothing.
func TestSelectRoundAllocationFree(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	src := rng.New(3).SplitLabeled("select-allocs")
	reqs := randomRequests(src, 600)
	for i := range reqs {
		reqs[i].Service = mec.ServiceID(src.Intn(8))
	}
	cru := make([]int, 8)
	for j := range cru {
		cru[j] = 40
	}
	cfg := DefaultConfig()
	led := NewBSLedger(cru, 30)
	var sc SelectScratch
	round := func() {
		led.Reset(cru, 30)
		if _, err := cfg.SelectRound(led, reqs, &sc); err != nil {
			t.Fatal(err)
		}
	}
	round()
	if allocs := testing.AllocsPerRun(20, round); allocs != 0 {
		t.Errorf("SelectRound allocates %.1f times per round on a warm scratch, want 0", allocs)
	}
}
