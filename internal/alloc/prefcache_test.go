package alloc

import (
	"testing"

	"dmra/internal/mec"
	"dmra/internal/workload"
)

// The proposer's differential test against the naive sweep lives in
// internal/engine (TestProposerMatchesNaiveSweep); this file keeps the
// candidate-set regression coverage of the naive reference path.

// TestCandidateSetDropIdxNoAliasing is the regression test for the splice
// bug: dropIdx used to append in place, shifting elements inside the
// backing array that earlier remaining-slice snapshots still aliased.
func TestCandidateSetDropIdxNoAliasing(t *testing.T) {
	wl := workload.RandomShape(1)
	wl.UEs = 10
	net, err := wl.Build(1)
	if err != nil {
		t.Fatalf("build: %v", err)
	}
	cs := newCandidateSet(net)
	for u := range net.UEs {
		uid := mec.UEID(u)
		if len(cs.remaining[u]) < 2 {
			continue
		}
		snapshot := cs.remaining[u]
		before := make([]int, len(snapshot))
		copy(before, snapshot)
		cs.dropIdx(uid, 0)
		for i := range before {
			if snapshot[i] != before[i] {
				t.Fatalf("UE %d: dropIdx mutated an aliased snapshot at %d: %v -> %v",
					u, i, before, snapshot)
			}
		}
		if len(cs.remaining[u]) != len(before)-1 || cs.remaining[u][0] != before[1] {
			t.Fatalf("UE %d: dropIdx result wrong: %v (was %v)", u, cs.remaining[u], before)
		}
	}
}
