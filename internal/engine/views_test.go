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
// views equal the deployment capacities, and ApplyBroadcast updates
// exactly the receivers, in or out of Covered order.
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
		if len(p.Covered(mec.BSID(bb))) >= 2 {
			b = mec.BSID(bb)
			break
		}
	}
	if b < 0 {
		t.Skip("scenario has no BS covering two UEs")
	}
	covered := p.Covered(b)
	for _, u := range covered {
		remCRU, remRRBs := viewOf(t, net, p, u, b)
		if want := net.BSs[b].CRUCapacity[net.UEs[u].Service]; remCRU != want || remRRBs != net.BSs[b].MaxRRBs {
			t.Fatalf("UE %d initial view of BS %d: (%d, %d), want (%d, %d)",
				u, b, remCRU, remRRBs, want, net.BSs[b].MaxRRBs)
		}
	}

	// Broadcast to all covered UEs but the last: the missed receiver keeps
	// its stale view.
	updated := make([]int, net.Services)
	p.ApplyBroadcast(b, updated, 1, covered[:len(covered)-1])
	if remCRU, remRRBs := viewOf(t, net, p, covered[0], b); remCRU != 0 || remRRBs != 1 {
		t.Errorf("receiver view: (%d, %d), want (0, 1)", remCRU, remRRBs)
	}
	if _, remRRBs := viewOf(t, net, p, covered[len(covered)-1], b); remRRBs != net.BSs[b].MaxRRBs {
		t.Errorf("missed receiver saw the broadcast: remRRBs=%d", remRRBs)
	}

	// Receivers out of Covered order, plus a UE outside b's range: every
	// covered receiver still updates and the stranger is ignored.
	var stranger mec.UEID = -1
	for u := range net.UEs {
		if !slices.Contains(covered, mec.UEID(u)) {
			stranger = mec.UEID(u)
			break
		}
	}
	receivers := append([]mec.UEID{stranger}, covered...)
	slices.Reverse(receivers)
	for j := range updated {
		updated[j] = j + 1
	}
	p.ApplyBroadcast(b, updated, 3, receivers)
	for _, u := range covered {
		svc := net.UEs[u].Service
		if remCRU, remRRBs := viewOf(t, net, p, u, b); remCRU != int(svc)+1 || remRRBs != 3 {
			t.Fatalf("UE %d after unordered broadcast: (%d, %d), want (%d, 3)", u, remCRU, remRRBs, svc+1)
		}
	}
}
