// Package opt contains an exact solver for the Total Profit Maximization
// problem (Eq. 11-16) on small instances. TPM with per-service CRU
// capacities and per-BS RRB budgets is a generalized assignment problem
// (NP-hard), so the solver is branch-and-bound with an admissible
// capacity-relaxed bound: it is exact but only practical for tens of UEs.
//
// Its role in this repository is verification, not production: property
// tests assert DMRA and every baseline never exceed the exact optimum, and
// the optimality-gap benchmarks (DESIGN.md ablation A5) quantify how far
// DMRA's decentralized matching lands from OPT.
package opt

import (
	"errors"
	"fmt"
	"sort"

	"dmra/internal/alloc"
	"dmra/internal/mec"
)

// DefaultNodeLimit bounds the search-tree size of Solve. At 10^7 nodes the
// solver completes in a few seconds on small instances; anything needing
// more is out of scope for an exact method.
const DefaultNodeLimit = 10_000_000

// ErrTooLarge is returned when the branch-and-bound search exceeds the
// configured node limit.
var ErrTooLarge = errors.New("opt: instance exceeds branch-and-bound node limit")

// Solution is an exact TPM optimum.
type Solution struct {
	Assignment mec.Assignment
	// Profit is the optimal total SP profit (Eq. 11).
	Profit float64
	// Nodes is the number of search nodes explored.
	Nodes int
}

// Solver solves TPM exactly by branch-and-bound.
type Solver struct {
	// NodeLimit caps the search; zero means DefaultNodeLimit.
	NodeLimit int
}

// Solve returns a profit-maximal feasible assignment for net. It returns
// ErrTooLarge if the search exceeds the node limit.
func (s *Solver) Solve(net *mec.Network) (Solution, error) {
	limit := s.NodeLimit
	if limit <= 0 {
		limit = DefaultNodeLimit
	}

	n := len(net.UEs)
	// Candidate links per UE sorted by decreasing margin, so the greedy
	// first descent finds a good incumbent early.
	cands := make([][]mec.Link, n)
	maxMargin := make([]float64, n)
	for u := 0; u < n; u++ {
		var links []mec.Link
		lo, hi := net.CandRange(mec.UEID(u))
		for k := lo; k < hi; k++ {
			links = append(links, net.LinkAt(mec.UEID(u), k))
		}
		sort.SliceStable(links, func(i, j int) bool {
			return alloc.Margin(net, links[i]) > alloc.Margin(net, links[j])
		})
		cands[u] = links
		if len(links) > 0 {
			maxMargin[u] = alloc.Margin(net, links[0])
		}
	}
	// suffixBound[u] = sum of maxMargin[u..n-1]: an admissible upper bound
	// on the profit still attainable from UE u onward (capacities relaxed).
	suffixBound := make([]float64, n+1)
	for u := n - 1; u >= 0; u-- {
		suffixBound[u] = suffixBound[u+1] + maxMargin[u]
	}

	// Order UEs by decreasing best margin: high-impact decisions first
	// tightens the bound sooner.
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(i, j int) bool {
		return maxMargin[order[i]] > maxMargin[order[j]]
	})
	// Recompute the suffix bound in search order.
	orderedBound := make([]float64, n+1)
	for i := n - 1; i >= 0; i-- {
		orderedBound[i] = orderedBound[i+1] + maxMargin[order[i]]
	}

	b := &search{
		net:     net,
		state:   mec.NewState(net),
		cands:   cands,
		order:   order,
		bound:   orderedBound,
		best:    mec.NewAssignment(n),
		bestVal: -1, // all-cloud scores 0 and must be representable
		limit:   limit,
	}
	if err := b.branch(0, 0); err != nil {
		return Solution{}, err
	}
	if b.bestVal < 0 {
		b.bestVal = 0 // n == 0 edge case: the empty assignment is optimal
	}
	return Solution{Assignment: b.best, Profit: b.bestVal, Nodes: b.nodes}, nil
}

type search struct {
	net     *mec.Network
	state   *mec.State
	cands   [][]mec.Link
	order   []int
	bound   []float64
	best    mec.Assignment
	bestVal float64
	nodes   int
	limit   int
}

func (b *search) branch(depth int, profit float64) error {
	b.nodes++
	if b.nodes > b.limit {
		return fmt.Errorf("%w: %d nodes", ErrTooLarge, b.nodes)
	}
	if depth == len(b.order) {
		if profit > b.bestVal {
			b.bestVal = profit
			b.best = b.state.Snapshot()
		}
		return nil
	}
	if profit+b.bound[depth] <= b.bestVal {
		return nil // even the relaxed remainder cannot beat the incumbent
	}
	u := mec.UEID(b.order[depth])

	// Try each feasible candidate, best margin first.
	for _, l := range b.cands[u] {
		if !b.state.CanServe(u, l.BS) {
			continue
		}
		if err := b.state.Assign(u, l.BS); err != nil {
			return err // CanServe passed; failure is a ledger bug
		}
		if err := b.branch(depth+1, profit+alloc.Margin(b.net, l)); err != nil {
			return err
		}
		b.state.Unassign(u)
	}
	// And the cloud branch (always feasible, zero profit).
	return b.branch(depth+1, profit)
}

// UpperBound returns the capacity-relaxed optimum: every UE served by its
// maximum-margin candidate with capacities ignored. It is a cheap
// admissible bound on TPM used in tests and reports.
func UpperBound(net *mec.Network) float64 {
	total := 0.0
	for u := range net.UEs {
		best := 0.0
		lo, hi := net.CandRange(mec.UEID(u))
		for k := lo; k < hi; k++ {
			best = max(best, alloc.Margin(net, net.LinkAt(mec.UEID(u), k)))
		}
		total += best
	}
	return total
}
