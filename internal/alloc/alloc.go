// Package alloc contains the resource-allocation algorithms evaluated in
// the paper: DMRA (the contribution, Alg. 1), the DCSP and NonCo
// comparison schemes of §VI-B, and two extra baselines (random feasible and
// centralized greedy) used for sanity bounds and ablations.
//
// Every algorithm implements Allocator and operates on an immutable
// mec.Network through a mec.State ledger, so capacity constraints are
// enforced by construction and all algorithms are charged by identical
// accounting.
package alloc

import (
	"fmt"

	"dmra/internal/mec"
)

// Stats describes the work an allocation run performed. For iterative
// matching schemes an iteration is one propose/select round of the outer
// repeat loop; a proposal is one UE->BS service request.
type Stats struct {
	Iterations int
	Proposals  int
	Accepts    int
	Rejects    int
}

// Result bundles an allocation outcome with its run statistics.
type Result struct {
	Assignment mec.Assignment
	Stats      Stats
}

// Allocator computes a feasible UE-BS assignment for a scenario.
type Allocator interface {
	// Name identifies the algorithm in reports ("DMRA", "DCSP", ...).
	Name() string
	// Allocate solves the scenario. Implementations must return a
	// feasible assignment (mec.ValidateAssignment passes) and must be
	// deterministic given the same network (and, where applicable, the
	// same configured seed).
	Allocate(net *mec.Network) (Result, error)
}

// ByName returns the named built-in allocator. Recognized names: "dmra",
// "dcsp", "nonco", "random", "greedy", "stablematch",
// "localsearch", "auction" (case-sensitive, lower-case).
func ByName(name string) (Allocator, error) {
	switch name {
	case "dmra":
		return NewDMRA(DefaultDMRAConfig()), nil
	case "dcsp":
		return NewDCSP(), nil
	case "nonco":
		return NewNonCo(), nil
	case "random":
		return NewRandom(1), nil
	case "greedy":
		return NewGreedy(), nil
	case "stablematch":
		return NewStableMatch(), nil
	case "localsearch":
		return NewLocalSearch(), nil
	case "auction":
		return NewAuction(), nil
	default:
		return nil, fmt.Errorf("alloc: unknown allocator %q", name)
	}
}

// candidateSet tracks each UE's shrinking candidate list B_u (Alg. 1
// line 1): BSs are removed permanently once they lack resources at propose
// time, because BS resources never grow back (no eviction in Alg. 1).
type candidateSet struct {
	// remaining[u] holds the still-viable candidates of u, as offsets
	// into u's CandRange.
	remaining [][]int
}

func newCandidateSet(net *mec.Network) *candidateSet {
	cs := &candidateSet{remaining: make([][]int, len(net.UEs))}
	for u := range net.UEs {
		lo, hi := net.CandRange(mec.UEID(u))
		idx := make([]int, hi-lo)
		for i := range idx {
			idx[i] = i
		}
		cs.remaining[u] = idx
	}
	return cs
}

func (cs *candidateSet) empty(u mec.UEID) bool {
	return len(cs.remaining[u]) == 0
}

// forEach calls fn for every still-viable candidate link of u with its
// position in the remaining list.
func (cs *candidateSet) forEach(net *mec.Network, u mec.UEID, fn func(pos int, l mec.Link)) {
	lo, _ := net.CandRange(u)
	for pos, i := range cs.remaining[u] {
		fn(pos, net.LinkAt(u, lo+int32(i)))
	}
}

// dropIdx removes the candidate at position pos of u's remaining list.
// The removal builds a fresh slice: an in-place append splice would shift
// elements inside the backing array that a caller-held slice (e.g. an
// in-flight forEach, or a previous remaining[u] snapshot) still aliases.
func (cs *candidateSet) dropIdx(u mec.UEID, pos int) {
	rem := cs.remaining[u]
	out := make([]int, 0, len(rem)-1)
	out = append(out, rem[:pos]...)
	out = append(out, rem[pos+1:]...)
	cs.remaining[u] = out
}
