package mec

import (
	"testing"

	"dmra/internal/rng"
)

// grantedRRBs is the RRBs the ledger's residual rows say are granted:
// the sum over b of MaxRRBs - RemainingRRBs(b), the total an online
// session's teardown compares with its placement table.
func grantedRRBs(s *State) int {
	used := 0
	for b := range s.net.BSs {
		used += s.net.BSs[b].MaxRRBs - s.RemainingRRBs(BSID(b))
	}
	return used
}

// heldRRBs sums the link RRBs of every served UE: the used-RRB total
// recounted from the assignment alone.
func heldRRBs(s *State) int {
	used := 0
	for u, b := range s.assignment.ServingBS {
		if l, ok := s.net.Link(UEID(u), b); ok {
			used += l.RRBs
		}
	}
	return used
}

// TestUsedRRBsRandomScripts drives random Assign/Unassign scripts and
// checks after every step that the RRBs the residual rows say are
// granted equal the served UEs' link RRBs, and that CheckInvariants
// accepts the ledger. A Reset must zero the total.
func TestUsedRRBsRandomScripts(t *testing.T) {
	for seed := uint64(1); seed <= 5; seed++ {
		net := randomScenario(t, seed, 300, 12, seed%2 == 0)
		s := NewState(net)
		src := rng.New(seed).SplitLabeled("rrb-script")
		for step := 0; step < 2000; step++ {
			u := UEID(src.Intn(len(net.UEs)))
			if s.Assigned(u) && src.Intn(3) == 0 {
				s.Unassign(u)
			} else if cands := candidates(net, u); len(cands) > 0 {
				// Failed grants must leave the rows untouched too.
				_ = s.Assign(u, cands[src.Intn(len(cands))].BS)
			}
			if got, want := grantedRRBs(s), heldRRBs(s); got != want {
				t.Fatalf("seed %d step %d: residual rows grant %d RRBs, served links hold %d", seed, step, got, want)
			}
			if step%100 == 0 {
				if err := s.CheckInvariants(); err != nil {
					t.Fatalf("seed %d step %d: %v", seed, step, err)
				}
			}
		}
		if grantedRRBs(s) == 0 {
			t.Fatalf("seed %d: script granted nothing; the test exercises no debits", seed)
		}
		s.Reset(net)
		if got := grantedRRBs(s); got != 0 {
			t.Fatalf("seed %d: %d RRBs granted after Reset", seed, got)
		}
	}
}

// TestCheckInvariantsCatchesDriftedRRBTotal corrupts only the RRB
// residual of the BS a grant debited, so the granted total drifts by
// one, and requires the recount to notice.
func TestCheckInvariantsCatchesDriftedRRBTotal(t *testing.T) {
	net := randomScenario(t, 3, 100, 6, false)
	s := NewState(net)
	for u := range net.UEs {
		if c := candidates(net, UEID(u)); len(c) > 0 && s.Assign(UEID(u), c[0].BS) == nil {
			s.remRRB[c[0].BS]++
			break
		}
	}
	if grantedRRBs(s) == heldRRBs(s) {
		t.Fatal("no grant made; the test corrupts nothing")
	}
	if err := s.CheckInvariants(); err == nil {
		t.Fatal("CheckInvariants accepted a drifted used-RRB total")
	}
}

// TestSubViewRefreshDropsInactive: a UE dropped from the active set
// exposes no candidates after the next Refresh, while the UEs that stay
// or join expose their parent links.
func TestSubViewRefreshDropsInactive(t *testing.T) {
	net := randomScenario(t, 7, 200, 10, false)
	var covered []UEID
	for u := range net.UEs {
		if net.CoverCount(UEID(u)) > 0 {
			covered = append(covered, UEID(u))
		}
	}
	if len(covered) < 6 {
		t.Fatalf("only %d covered UEs", len(covered))
	}
	sv := net.NewSubView()
	st := NewState(net)
	first := covered[:4]
	// Refresh must not keep the caller's slice: the session compacts
	// its waiting list in place between epochs.
	buf := append([]UEID(nil), first...)
	sv.Refresh(buf, st)
	for i := range buf {
		buf[i] = covered[5]
	}
	second := []UEID{covered[1], covered[5]}
	sub := sv.Refresh(second, st)
	for _, u := range covered {
		want := 0
		if u == covered[1] || u == covered[5] {
			want = net.CoverCount(u)
		}
		if got := len(candidates(sub, u)); got != want {
			t.Errorf("UE %d exposes %d candidates after Refresh, want %d", u, got, want)
		}
	}
	sub = sv.Refresh(nil, st)
	for _, u := range covered {
		if n := len(candidates(sub, u)); n != 0 {
			t.Errorf("UE %d exposes %d candidates with an empty active set", u, n)
		}
	}
}
