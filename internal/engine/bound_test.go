package engine_test

import (
	"strings"
	"testing"

	"dmra/internal/engine"
	"dmra/internal/mec"
	"dmra/internal/workload"
)

// TestRoundBound pins the bound to its definition — one round per
// candidate link plus the final empty round — across randomized shapes,
// and checks it always dominates the optimistic |UE|+1 the runtimes used
// historically (every assignable UE has at least one candidate).
func TestRoundBound(t *testing.T) {
	for seed := uint64(0); seed < 30; seed++ {
		net, err := workload.RandomShape(seed).Build(seed)
		if err != nil {
			continue
		}
		links := 0
		covered := 0
		for u := range net.UEs {
			c := net.CoverCount(mec.UEID(u))
			links += c
			if c > 0 {
				covered++
			}
		}
		got := engine.RoundBound(net)
		if got != links+1 {
			t.Fatalf("seed %d: RoundBound = %d, want links+1 = %d", seed, got, links+1)
		}
		if got < covered+1 {
			t.Fatalf("seed %d: RoundBound %d below covered-UE bound %d", seed, got, covered+1)
		}
	}
}

// TestBSLedgerCheckInvariants drives the ledger's consistency check
// through its three verdicts: healthy, negative CRUs, negative RRBs.
func TestBSLedgerCheckInvariants(t *testing.T) {
	led := engine.NewBSLedger([]int{5, 0}, 3)
	if err := led.CheckInvariants(); err != nil {
		t.Fatalf("fresh ledger flagged invalid: %v", err)
	}
	if err := led.Admit(engine.Request{Service: 0, CRUs: 5, RRBs: 3}); err != nil {
		t.Fatal(err)
	}
	if err := led.CheckInvariants(); err != nil {
		t.Fatalf("exactly-drained ledger flagged invalid: %v", err)
	}

	led.Reset([]int{2, -1}, 3)
	err := led.CheckInvariants()
	if err == nil || !strings.Contains(err.Error(), "service 1") {
		t.Fatalf("negative CRU residual not flagged: %v", err)
	}

	led.Reset([]int{2}, -4)
	err = led.CheckInvariants()
	if err == nil || !strings.Contains(err.Error(), "RRBs") {
		t.Fatalf("negative RRB residual not flagged: %v", err)
	}
}
