package engine_test

import (
	"slices"
	"testing"

	"dmra/internal/engine"
	"dmra/internal/mec"
	"dmra/internal/rng"
	"dmra/internal/workload"
)

// cands assembles UE u's candidate links from net's store.
func cands(net *mec.Network, u mec.UEID) []mec.Link {
	lo, hi := net.CandRange(u)
	var out []mec.Link
	for k := lo; k < hi; k++ {
		out = append(out, net.LinkAt(u, k))
	}
	return out
}

// residualFunc is a leg's reference resource picture: what UE u's k-th
// candidate BS (cands(net, u)[k]) has left for u, its remaining CRUs
// of u's service and its remaining RRBs.
type residualFunc func(u mec.UEID, k int) (remCRU, remRRBs int)

// naiveBest is the reference sweep Proposer.Propose must reproduce: the
// first strictly-smaller Eq. 17 preference, in candidate order, over the
// candidates that are not dropped and that res can still fit. tied
// reports whether another such candidate shares the winning value, i.e.
// whether the candidate-index tie-break decided the answer.
func naiveBest(cfg engine.Config, net *mec.Network, u mec.UEID, res residualFunc, dropped []bool) (best int, tied bool) {
	best = -1
	bestV := 0.0
	ue := &net.UEs[u]
	for k, l := range cands(net, u) {
		remC, remR := res(u, k)
		if dropped[k] || remC < ue.CRUDemand || remR < l.RRBs {
			continue
		}
		v := cfg.Preference(l, remC, remR)
		switch {
		case best < 0 || v < bestV:
			best, bestV, tied = k, v, false
		case v == bestV:
			tied = true
		}
	}
	return best, tied
}

// ledgerLeg lowers a mec.State by random grants and broadcasts the
// granting BS's residuals to every UE it covers — the loss-free case of
// the message-passing runtimes, where every view of a BS equals its
// ledger. The reference reads the ledger.
func ledgerLeg(t *testing.T, net *mec.Network, p *engine.Proposer) (func(*rng.Source), residualFunc) {
	state := mec.NewState(net)
	cru := make([]int, net.Services)
	lower := func(src *rng.Source) {
		u := mec.UEID(src.Intn(len(net.UEs)))
		cands := cands(net, u)
		if len(cands) == 0 || state.Assigned(u) {
			return
		}
		b := cands[src.Intn(len(cands))].BS
		if !state.CanServe(u, b) {
			return
		}
		if err := state.Assign(u, b); err != nil {
			t.Fatalf("assign: %v", err)
		}
		for j := range cru {
			cru[j] = state.RemainingCRU(b, mec.ServiceID(j))
		}
		p.ApplyBroadcast(b, cru, state.RemainingRRBs(b), nil)
	}
	res := func(u mec.UEID, k int) (int, int) {
		return state.Residual(cands(net, u)[k].BS, net.UEs[u].Service)
	}
	return lower, res
}

// viewsLeg lowers the proposer's views the way lossy broadcasts do: BS
// b's residuals only ever shrink, and each broadcast reaches a random
// subset of the UEs it covers, so every UE's view is monotone
// non-increasing but views of one BS disagree. New values are drawn from
// a few levels, often exactly a covered UE's demand, so equal residuals
// (Eq. 17 ties) and exact fits are common. The reference is a shadow copy
// of every UE's view, updated for the same receivers.
func viewsLeg(net *mec.Network, p *engine.Proposer) (func(*rng.Source), residualFunc) {
	remCRU := make([][]int, len(net.BSs))
	remRRB := make([]int, len(net.BSs))
	for b := range net.BSs {
		remCRU[b] = append([]int(nil), net.BSs[b].CRUCapacity...)
		remRRB[b] = net.BSs[b].MaxRRBs
	}
	type view struct{ cru, rrb int }
	shadow := make([][]view, len(net.UEs))
	for u := range net.UEs {
		for _, l := range cands(net, mec.UEID(u)) {
			shadow[u] = append(shadow[u], view{net.BSs[l.BS].CRUCapacity[net.UEs[u].Service], net.BSs[l.BS].MaxRRBs})
		}
	}
	lower := func(src *rng.Source) {
		b := mec.BSID(src.Intn(len(net.BSs)))
		cov := p.Covered(b)
		if len(cov) == 0 {
			return
		}
		u := cov[src.Intn(len(cov))]
		link, _ := net.Link(u, b)
		cru, rrb := remCRU[b], &remRRB[b]
		switch src.Intn(3) {
		case 0: // exact fit for u
			svc := net.UEs[u].Service
			cru[svc] = min(cru[svc], net.UEs[u].CRUDemand)
			*rrb = min(*rrb, link.RRBs)
		case 1: // a shared low level
			lvl := 2 * src.Intn(8)
			for j := range cru {
				cru[j] = min(cru[j], lvl)
			}
			*rrb = min(*rrb, lvl)
		default: // a small debit
			svc := net.UEs[u].Service
			cru[svc] = max(0, cru[svc]-src.Intn(3))
			*rrb = max(0, *rrb-src.Intn(3))
		}
		var missed []mec.UEID
		for _, v := range cov {
			if src.Float64() >= 0.7 {
				missed = append(missed, v)
				continue
			}
			k := slices.IndexFunc(cands(net, v), func(l mec.Link) bool { return l.BS == b })
			shadow[v][k] = view{cru[net.UEs[v].Service], *rrb}
		}
		p.ApplyBroadcast(b, cru, *rrb, missed)
	}
	res := func(u mec.UEID, k int) (int, int) {
		return shadow[u][k].cru, shadow[u][k].rrb
	}
	return lower, res
}

// TestProposerMatchesNaiveSweep drives a proposer through a random
// interleaving of monotone view lowering, DropBS calls and proposals,
// checking every proposal (target, request, and the candidate-index
// tie-break) against the full sweep. It runs two legs: views lowered by
// loss-free broadcasts of a mec.State ledger lowered by grants, and views
// lowered by lossy broadcasts; the loss-free leg must build no per-slot
// view state. Half the scenarios have one SP and
// distance-free pricing, so every link has the same price and Eq. 17
// ties whenever residuals match.
func TestProposerMatchesNaiveSweep(t *testing.T) {
	ties := 0
	for _, rho := range []float64{-1, 0, engine.DefaultConfig().Rho, 50} {
		cfg := engine.DefaultConfig()
		cfg.Rho = rho
		for seed := uint64(0); seed < 8; seed++ {
			wl := workload.RandomShape(seed)
			wl.UEs = 60
			if seed%2 == 0 {
				wl.SPs = 1
				wl.Pricing.DistanceSigma = 0
			}
			net, err := wl.Build(seed)
			if err != nil {
				t.Fatalf("rho %g seed %d: build: %v", rho, seed, err)
			}
			legs := []struct {
				name string
				leg  func(*engine.Proposer) (func(*rng.Source), residualFunc)
			}{
				{"ledger", func(p *engine.Proposer) (func(*rng.Source), residualFunc) { return ledgerLeg(t, net, p) }},
				{"views", func(p *engine.Proposer) (func(*rng.Source), residualFunc) { return viewsLeg(net, p) }},
			}
			for _, leg := range legs {
				p := engine.NewProposer(net, cfg)
				lower, res := leg.leg(p)
				ties += checkProposerLeg(t, cfg, net, p, res, lower, rng.New(seed).SplitLabeled("propose-"+leg.name))
				if leg.name == "ledger" && p.SlotStateForTest() {
					t.Fatalf("rho %g seed %d: loss-free broadcasts built per-slot view state", rho, seed)
				}
			}
		}
	}
	if ties == 0 {
		t.Fatal("no proposal was decided by the candidate-index tie-break")
	}
}

// checkProposerLeg runs one random script against p and returns how
// many proposals the tie-break decided.
func checkProposerLeg(t *testing.T, cfg engine.Config, net *mec.Network, p *engine.Proposer, res residualFunc, lower func(*rng.Source), src *rng.Source) (ties int) {
	t.Helper()
	dropped := make([][]bool, len(net.UEs))
	for u := range dropped {
		dropped[u] = make([]bool, len(cands(net, mec.UEID(u))))
	}
	var swept uint64
	for step := 0; step < 600; step++ {
		u := mec.UEID(src.Intn(len(net.UEs)))
		cands := cands(net, u)
		switch src.Intn(4) {
		case 0:
			if len(cands) > 0 {
				k := src.Intn(len(cands))
				dropped[u][k] = true
				p.DropBS(u, cands[k].BS)
			} else {
				p.DropBS(u, 0)
			}
		case 1:
			lower(src)
		default:
			wantK, tied := naiveBest(cfg, net, u, res, dropped[u])
			before := swept
			req, b, ok := p.Propose(u, &swept)
			if swept-before > uint64(len(cands)) {
				t.Fatalf("rho %g step %d UE %d: swept %d of %d candidates", cfg.Rho, step, u, swept-before, len(cands))
			}
			if ok != (wantK >= 0) {
				t.Fatalf("rho %g step %d UE %d: ok=%v, naive k=%d", cfg.Rho, step, u, ok, wantK)
			}
			if p.Empty(u) == ok {
				t.Fatalf("rho %g step %d UE %d: Empty=%v after a sweep with ok=%v", cfg.Rho, step, u, p.Empty(u), ok)
			}
			if !ok {
				continue
			}
			l := cands[wantK]
			want := engine.Request{
				UE: u, Service: net.UEs[u].Service, CRUs: net.UEs[u].CRUDemand, RRBs: l.RRBs,
				SameSP: l.SameSP, Fu: net.CoverCount(u), PricePerCRU: l.PricePerCRU,
			}
			if b != l.BS || req != want {
				t.Fatalf("rho %g step %d UE %d: proposed %+v to BS %d, naive %+v to BS %d (k=%d)", cfg.Rho, step, u, req, b, want, l.BS, wantK)
			}
			if tied {
				ties++
			}
		}
	}
	return ties
}

// TestProposerEmptyAndDropBS covers the bookkeeping edges: DropBS on a
// non-candidate BS is a no-op, repeated drops do not double-count, and
// Empty flips exactly when the last candidate goes.
func TestProposerEmptyAndDropBS(t *testing.T) {
	wl := workload.RandomShape(3)
	wl.UEs = 20
	net, err := wl.Build(3)
	if err != nil {
		t.Fatalf("build: %v", err)
	}
	p := engine.NewProposer(net, engine.DefaultConfig())
	for u := range net.UEs {
		uid := mec.UEID(u)
		cands := cands(net, uid)
		if p.Empty(uid) != (len(cands) == 0) {
			t.Fatalf("UE %d: Empty=%v with %d candidates", u, p.Empty(uid), len(cands))
		}
		p.DropBS(uid, mec.BSID(len(net.BSs)+5)) // never a candidate
		for i, l := range cands {
			if p.Empty(uid) {
				t.Fatalf("UE %d: empty after dropping %d of %d candidates", u, i, len(cands))
			}
			p.DropBS(uid, l.BS)
			p.DropBS(uid, l.BS) // idempotent
		}
		if !p.Empty(uid) {
			t.Fatalf("UE %d: not empty after dropping all candidates", u)
		}
	}
}
