package engine_test

import (
	"slices"
	"testing"

	"dmra/internal/engine"
	"dmra/internal/mec"
	"dmra/internal/workload"
)

// buildIncNet builds a small deterministic scenario.
func buildIncNet(t *testing.T, seed uint64) *mec.Network {
	t.Helper()
	wl := workload.RandomShape(seed)
	wl.UEs = 80
	net, err := wl.Build(seed)
	if err != nil {
		t.Fatalf("build: %v", err)
	}
	return net
}

// TestIncrementalLifecycle exercises the basic contract: an empty
// session settles to nothing; arrivals admit and match a one-shot run;
// departures credit the ledger back to full capacity.
func TestIncrementalLifecycle(t *testing.T) {
	net := buildIncNet(t, 3)
	cfg := engine.DefaultConfig()

	var inc engine.Incremental
	if err := inc.Begin(net, cfg, 1); err != nil {
		t.Fatalf("Begin: %v", err)
	}
	ds, err := inc.Settle()
	if err != nil {
		t.Fatalf("empty Settle: %v", err)
	}
	if ds.Frontier != 0 || ds.Rounds != 0 || inc.AssignedCount() != 0 {
		t.Fatalf("empty session settled to %+v, %d assigned", ds, inc.AssignedCount())
	}

	for u := range net.UEs {
		if err := inc.Arrive(mec.UEID(u)); err != nil {
			t.Fatalf("Arrive(%d): %v", u, err)
		}
	}
	if ds, err = inc.Settle(); err != nil {
		t.Fatalf("Settle: %v", err)
	}
	if ds.Accepts == 0 || inc.AssignedCount() != ds.Accepts-ds.Released {
		// Released is 0 here; Accepts counts admissions, each UE admitted
		// at most once per Settle since re-proposals only follow rejects.
		t.Fatalf("full-population settle: %+v, %d assigned", ds, inc.AssignedCount())
	}

	// An assigned UE cannot re-arrive; its departure must free it.
	var served mec.UEID = -1
	for u := range net.UEs {
		if inc.ServingBS(mec.UEID(u)) >= 0 {
			served = mec.UEID(u)
			break
		}
	}
	if served < 0 {
		t.Fatal("nothing admitted; lifecycle test is vacuous")
	}
	if err := inc.Arrive(served); err == nil {
		t.Fatal("Arrive on an assigned UE succeeded")
	}

	for u := range net.UEs {
		inc.Depart(mec.UEID(u))
	}
	if inc.AssignedCount() != 0 {
		t.Fatalf("%d UEs still assigned after full departure", inc.AssignedCount())
	}
	csr := net.Dense()
	if book := inc.Book(); !slices.Equal(book.CRU, csr.CRUCap) || !slices.Equal(book.RRB, csr.MaxRRB) {
		t.Fatal("residuals after drain differ from the capacities")
	}
	if err := inc.CheckInvariants(); err != nil {
		t.Fatalf("invariants after drain: %v", err)
	}
}

// TestArenaLazyResetReuse pins satellite 1's correctness face: a reused
// Arena (stamp-invalidated regions, no O(links) zeroing) must produce
// the same assignment and stats run after run, including after runs of
// a *different* scenario interleave on the same arena.
func TestArenaLazyResetReuse(t *testing.T) {
	netA := buildIncNet(t, 11)
	netB := buildIncNet(t, 12)
	cfg := engine.DefaultConfig()
	var arena engine.Arena

	runOn := func(net *mec.Network) (engine.SoAStats, []int32) {
		stats, err := arena.Run(net, cfg, 2, nil)
		if err != nil {
			t.Fatalf("run: %v", err)
		}
		serving := make([]int32, len(arena.Serving()))
		copy(serving, arena.Serving())
		return stats, serving
	}
	statsA, servingA := runOn(netA)
	statsB, servingB := runOn(netB)
	for i := 0; i < 3; i++ {
		if s, v := runOn(netA); s != statsA || !equalInt32(v, servingA) {
			t.Fatalf("rerun %d on A diverged: %+v vs %+v", i, s, statsA)
		}
		if s, v := runOn(netB); s != statsB || !equalInt32(v, servingB) {
			t.Fatalf("rerun %d on B diverged: %+v vs %+v", i, s, statsB)
		}
	}
}

func equalInt32(a, b []int32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
