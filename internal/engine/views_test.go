package engine_test

import (
	"slices"
	"testing"

	"dmra/internal/engine"
	"dmra/internal/mec"
	"dmra/internal/workload"
)

// viewOf reads UE u's view of BS b out of the proposer.
func viewOf(t *testing.T, net *mec.Network, p *engine.Proposer, u mec.UEID, b mec.BSID) (remCRU, remRRBs int) {
	t.Helper()
	g := net.Dense().FindCand(u, b)
	if g < 0 {
		t.Fatalf("BS %d is not a candidate of UE %d", b, u)
	}
	lo, _ := net.CandRange(u)
	return p.ViewForTest(u, int(g-lo))
}

// TestViewTableBroadcast pins the Proposer's view bookkeeping: initial
// views equal the deployment capacities, a broadcast reaches every
// covered UE but the missed ones, which keep their older view however
// many broadcasts they miss, and a broadcast that misses no one brings
// every view back to the BS's row.
func TestViewTableBroadcast(t *testing.T) {
	wl := workload.RandomShape(5)
	wl.UEs = 40
	net, err := wl.Build(5)
	if err != nil {
		t.Fatalf("build: %v", err)
	}
	p := engine.NewProposer(net, engine.DefaultConfig())

	var b mec.BSID = -1
	for bb := range net.BSs {
		if len(p.Covered(mec.BSID(bb))) >= 3 {
			b = mec.BSID(bb)
			break
		}
	}
	if b < 0 {
		t.Skip("scenario has no BS covering three UEs")
	}
	covered := p.Covered(b)
	first, last := covered[0], covered[len(covered)-1]
	capRRB := net.BSs[b].MaxRRBs
	capCRU := func(u mec.UEID) int { return net.BSs[b].CRUCapacity[net.UEs[u].Service] }
	check := func(step string, u mec.UEID, wantCRU, wantRRB int) {
		t.Helper()
		if remCRU, remRRBs := viewOf(t, net, p, u, b); remCRU != wantCRU || remRRBs != wantRRB {
			t.Fatalf("%s: UE %d view of BS %d is (%d, %d), want (%d, %d)", step, u, b, remCRU, remRRBs, wantCRU, wantRRB)
		}
	}
	for _, u := range covered {
		check("initial", u, capCRU(u), capRRB)
	}

	// The last covered UE misses the first broadcast.
	updated := make([]int, net.Services)
	p.ApplyBroadcast(b, updated, 1, []mec.UEID{last})
	check("first broadcast, receiver", first, 0, 1)
	check("first broadcast, missed", last, capCRU(last), capRRB)

	// The second broadcast misses the first and the last covered UE,
	// listed with a UE outside b's range: the last keeps the capacities,
	// the first the first broadcast, the rest read the second.
	var stranger mec.UEID = -1
	for u := range net.UEs {
		if !slices.Contains(covered, mec.UEID(u)) {
			stranger = mec.UEID(u)
			break
		}
	}
	for j := range updated {
		updated[j] = j + 1
	}
	missed := []mec.UEID{first, last}
	if stranger >= 0 {
		missed = append(missed, stranger)
		slices.Sort(missed)
	}
	p.ApplyBroadcast(b, updated, 3, missed)
	check("second broadcast, missed twice", last, capCRU(last), capRRB)
	check("second broadcast, missed once", first, 0, 1)
	for _, u := range covered[1 : len(covered)-1] {
		check("second broadcast, receiver", u, int(net.UEs[u].Service)+1, 3)
	}

	// A broadcast that misses no one reaches every covered UE.
	clear(updated)
	p.ApplyBroadcast(b, updated, 2, nil)
	for _, u := range covered {
		check("loss-free broadcast", u, 0, 2)
	}
}
