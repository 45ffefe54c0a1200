package engine_test

import (
	"slices"
	"testing"

	"dmra/internal/engine"
	"dmra/internal/mec"
)

// TestViewTableBroadcast pins the view/version bookkeeping: initial views
// equal the deployment capacities, ApplyBroadcast updates exactly the
// receivers, and the version counter advances even for an empty receiver
// set (the conservative-under-loss contract the PrefScorer relies on).
func TestViewTableBroadcast(t *testing.T) {
	wl := genScenario(5)
	wl.UEs = 40
	net, err := wl.Build(5)
	if err != nil {
		t.Fatalf("build: %v", err)
	}
	tbl := engine.NewViewTable(net)

	var b mec.BSID = -1
	for bb := range net.BSs {
		if len(tbl.Covered(mec.BSID(bb))) >= 2 {
			b = mec.BSID(bb)
			break
		}
	}
	if b < 0 {
		t.Skip("scenario has no BS covering two UEs")
	}
	covered := tbl.Covered(b)
	for _, u := range covered {
		view := tbl.UE(u)
		remCRU, remRRBs := view.Residual(b, net.UEs[u].Service)
		if want := net.BSs[b].CRUCapacity[net.UEs[u].Service]; remCRU != want || remRRBs != net.BSs[b].MaxRRBs {
			t.Fatalf("UE %d initial view of BS %d: (%d, %d), want (%d, %d)",
				u, b, remCRU, remRRBs, want, net.BSs[b].MaxRRBs)
		}
		if view.ResidualVersion(b) != 0 {
			t.Fatalf("UE %d: initial version %d, want 0", u, view.ResidualVersion(b))
		}
	}

	// Broadcast to all covered UEs but the last: the missed receiver keeps
	// its stale view while the version still advances.
	updated := make([]int, net.Services)
	tbl.ApplyBroadcast(b, updated, 1, covered[:len(covered)-1])
	heard := tbl.UE(covered[0])
	if remCRU, remRRBs := heard.Residual(b, net.UEs[covered[0]].Service); remCRU != 0 || remRRBs != 1 {
		t.Errorf("receiver view: (%d, %d), want (0, 1)", remCRU, remRRBs)
	}
	missed := tbl.UE(covered[len(covered)-1])
	if _, remRRBs := missed.Residual(b, net.UEs[covered[len(covered)-1]].Service); remRRBs != net.BSs[b].MaxRRBs {
		t.Errorf("missed receiver saw the broadcast: remRRBs=%d", remRRBs)
	}
	if heard.ResidualVersion(b) != 1 || missed.ResidualVersion(b) != 1 {
		t.Errorf("versions after broadcast: %d/%d, want 1/1",
			heard.ResidualVersion(b), missed.ResidualVersion(b))
	}
	tbl.ApplyBroadcast(b, updated, 1, nil)
	if heard.ResidualVersion(b) != 2 {
		t.Errorf("version after empty-receiver broadcast: %d, want 2", heard.ResidualVersion(b))
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
	tbl.ApplyBroadcast(b, updated, 3, receivers)
	for _, u := range covered {
		view := tbl.UE(u)
		svc := net.UEs[u].Service
		if remCRU, remRRBs := view.Residual(b, svc); remCRU != int(svc)+1 || remRRBs != 3 {
			t.Fatalf("UE %d after unordered broadcast: (%d, %d), want (%d, 3)", u, remCRU, remRRBs, svc+1)
		}
	}
}
