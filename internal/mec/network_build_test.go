package mec

import (
	"math"
	"slices"
	"testing"
	"time"

	"dmra/internal/geo"
	"dmra/internal/radio"
	"dmra/internal/rng"
)

// randomScenario builds a scenario with n UEs and m BSs scattered over a
// 1200x900 area, exercising mixed SPs, services, and shadowing.
func randomScenario(t *testing.T, seed uint64, nUE, nBS int, shadow bool) *Network {
	t.Helper()
	src := rng.New(seed).SplitLabeled("build-test")
	area, err := geo.NewArea(1200, 900)
	if err != nil {
		t.Fatal(err)
	}
	sps := testSPs(3)
	const services = 4
	bsPts := area.RandomPoints(src, nBS)
	bss := make([]BS, nBS)
	for b := range bss {
		caps := make([]int, services)
		for j := range caps {
			caps[j] = src.Intn(120)
		}
		bss[b] = BS{ID: BSID(b), SP: SPID(src.Intn(3)), Pos: bsPts[b], CRUCapacity: caps, MaxRRBs: 40 + src.Intn(30)}
	}
	uePts := area.RandomPoints(src, nUE)
	ues := make([]UE, nUE)
	for u := range ues {
		ues[u] = UE{
			ID:        UEID(u),
			SP:        SPID(src.Intn(3)),
			Pos:       uePts[u],
			Service:   ServiceID(src.Intn(services)),
			CRUDemand: 1 + src.Intn(6),
			RateBps:   (0.5 + src.Float64()) * 1e6,
		}
	}
	rc := radio.DefaultConfig()
	if shadow {
		rc.ShadowingStdDB = 4
		rc.ShadowingSeed = seed
	}
	net, err := NewNetwork(sps, bss, ues, services, rc, testPricing())
	if err != nil {
		t.Fatalf("NewNetwork: %v", err)
	}
	return net
}

// candidates assembles UE u's candidate links from the store.
func candidates(n *Network, u UEID) []Link {
	lo, hi := n.CandRange(u)
	var out []Link
	for k := lo; k < hi; k++ {
		out = append(out, n.LinkAt(u, k))
	}
	return out
}

// TestLinkBinarySearchMatchesScan checks Link against a linear scan for
// every (UE, BS) pair, hits and misses alike.
func TestLinkBinarySearchMatchesScan(t *testing.T) {
	net := randomScenario(t, 11, 80, 14, true)
	for u := range net.UEs {
		for b := range net.BSs {
			var want Link
			found := false
			for _, l := range candidates(net, UEID(u)) {
				if l.BS == BSID(b) {
					want, found = l, true
					break
				}
			}
			got, ok := net.Link(UEID(u), BSID(b))
			if ok != found || got != want {
				t.Fatalf("Link(%d,%d) = %+v,%v; scan = %+v,%v", u, b, got, ok, want, found)
			}
		}
	}
}

// TestStateResetReuse checks that Reset over the same network rewinds the
// ledger without reallocating, and that the book's rows agree with
// Residual.
func TestStateResetReuse(t *testing.T) {
	net := randomScenario(t, 21, 50, 8, false)
	s := NewState(net)
	var u UEID
	var b BSID
	found := false
	for uu := range net.UEs {
		if cs := candidates(net, UEID(uu)); len(cs) > 0 {
			u, b, found = UEID(uu), cs[0].BS, true
			break
		}
	}
	if !found {
		t.Fatal("no candidate links in scenario")
	}
	if err := s.Assign(u, b); err != nil {
		t.Fatalf("Assign: %v", err)
	}
	k := s.Book()
	cru, rrb := k.Residual(b, net.UEs[u].Service)
	if cru != int(k.Row(b)[net.UEs[u].Service]) || rrb != int(k.RRB[b]) {
		t.Fatal("Residual disagrees with the book's rows")
	}
	s.Unassign(u)

	s.Reset(net)
	fresh := NewState(net)
	if !slices.Equal(s.Book().CRU, fresh.Book().CRU) || !slices.Equal(s.Book().RRB, fresh.Book().RRB) {
		t.Fatal("reset book differs from fresh")
	}
	for uu := range net.UEs {
		if s.Assigned(UEID(uu)) {
			t.Fatalf("UE %d still assigned after Reset", uu)
		}
	}
	if err := s.CheckInvariants(); err != nil {
		t.Fatalf("CheckInvariants after Reset: %v", err)
	}
}

// TestNewNetworkRejectsNonFinite feeds NewNetwork non-finite positions,
// rates and SP prices directly, past any workload validation: each must
// return an error within a deadline instead of reaching the grid build
// or pricing NaN links.
func TestNewNetworkRejectsNonFinite(t *testing.T) {
	nan, inf := math.NaN(), math.Inf(1)
	cases := map[string]func(sps []SP, bss []BS, ues []UE){
		"bs-position-nan": func(_ []SP, bss []BS, _ []UE) { bss[1].Pos.X = nan },
		"bs-position-inf": func(_ []SP, bss []BS, _ []UE) { bss[0].Pos.Y = -inf },
		"ue-position-nan": func(_ []SP, _ []BS, ues []UE) { ues[2].Pos.Y = nan },
		"ue-rate-nan":     func(_ []SP, _ []BS, ues []UE) { ues[0].RateBps = nan },
		"ue-rate-inf":     func(_ []SP, _ []BS, ues []UE) { ues[3].RateBps = inf },
		"sp-price-nan":    func(sps []SP, _ []BS, _ []UE) { sps[0].CRUPrice = nan },
		"sp-cost-inf":     func(sps []SP, _ []BS, _ []UE) { sps[1].OtherCostPerCRU = inf },
		// Finite coordinates whose extent overflows float64 pass
		// validation and must be refused by the grid build.
		"extent-overflow": func(_ []SP, bss []BS, _ []UE) {
			bss[0].Pos.X, bss[1].Pos.X = -math.MaxFloat64, math.MaxFloat64
		},
	}
	for name, mutate := range cases {
		t.Run(name, func(t *testing.T) {
			net := randomScenario(t, 3, 6, 4, false)
			sps := slices.Clone(net.SPs)
			bss := slices.Clone(net.BSs)
			ues := slices.Clone(net.UEs)
			mutate(sps, bss, ues)
			done := make(chan error, 1)
			go func() {
				_, err := NewNetwork(sps, bss, ues, net.Services, net.Radio, net.Pricing)
				done <- err
			}()
			select {
			case err := <-done:
				if err == nil {
					t.Fatal("NewNetwork accepted the non-finite value")
				}
			case <-time.After(5 * time.Second):
				t.Fatal("NewNetwork did not return within 5 s")
			}
		})
	}
}
