package alloc

import (
	"fmt"

	"dmra/internal/mec"
)

// LocalSearch is a centralized improvement heuristic: it seeds the
// assignment with Greedy and then applies first-improvement local moves
// until a local optimum:
//
//   - relocate: move a served UE to a candidate BS with a higher margin;
//   - insert: place a cloud UE on any BS with spare resources;
//   - eject: place a cloud UE by evicting a lower-margin UE from one of
//     its candidate BSs, re-inserting the victim elsewhere if possible
//     (the move is taken only if the net profit change is positive).
//
// It upper-bounds what a centralized controller could squeeze out of the
// same information, tighter than Greedy and far cheaper than the exact
// solver; DMRA's gap to LocalSearch is the price of decentralization.
type LocalSearch struct {
	// MaxPasses bounds the improvement sweeps (0 = DefaultMaxPasses).
	MaxPasses int
}

// DefaultMaxPasses bounds local-search sweeps; each sweep is O(|U|·|B_u|)
// and profit is monotone, so the bound only guards pathological inputs.
const DefaultMaxPasses = 50

var _ Allocator = (*LocalSearch)(nil)

// NewLocalSearch returns the local-search allocator.
func NewLocalSearch() *LocalSearch { return &LocalSearch{} }

// Name implements Allocator.
func (a *LocalSearch) Name() string { return "LocalSearch" }

// Allocate implements Allocator.
func (a *LocalSearch) Allocate(net *mec.Network) (Result, error) {
	seed, err := NewGreedy().Allocate(net)
	if err != nil {
		return Result{}, err
	}
	state := mec.NewState(net)
	for u, b := range seed.Assignment.ServingBS {
		if b == mec.CloudBS {
			continue
		}
		if err := state.Assign(mec.UEID(u), b); err != nil {
			return Result{}, fmt.Errorf("alloc: LocalSearch seeding: %w", err)
		}
	}

	stats, err := a.search(net, state, seed.Stats)
	if err != nil {
		return Result{}, err
	}
	if err := state.CheckInvariants(); err != nil {
		return Result{}, fmt.Errorf("alloc: LocalSearch produced invalid state: %w", err)
	}
	return Result{Assignment: state.Snapshot(), Stats: stats}, nil
}

// search runs the improvement sweeps over state until a local optimum or
// the pass cap, counting moves into stats. Every Assign a move makes was
// just shown feasible by a CanServe check or a release, so one failing
// means the ledger no longer matches the network: the search stops and
// returns that error.
func (a *LocalSearch) search(net *mec.Network, state *mec.State, stats Stats) (Stats, error) {
	maxPasses := a.MaxPasses
	if maxPasses <= 0 {
		maxPasses = DefaultMaxPasses
	}
	for pass := 0; pass < maxPasses; pass++ {
		improved := false
		for u := range net.UEs {
			uid := mec.UEID(u)
			var moved bool
			var err error
			if state.Assigned(uid) {
				moved, err = a.relocate(net, state, uid)
			} else if moved, err = a.insert(net, state, uid); err == nil && !moved {
				moved, err = a.eject(net, state, uid)
			}
			if err != nil {
				return stats, err
			}
			if moved {
				improved = true
				stats.Accepts++
			}
		}
		stats.Iterations++
		if !improved {
			break
		}
	}
	return stats, nil
}

// relocate moves a served UE to its best feasible candidate if that
// strictly raises its margin. Returns whether a move was made.
func (a *LocalSearch) relocate(net *mec.Network, state *mec.State, u mec.UEID) (bool, error) {
	cur := state.ServingBS(u)
	curLink, ok := net.Link(u, cur)
	if !ok {
		return false, nil
	}
	curMargin := Margin(net, curLink)
	// Release first so a move within the same BS's budget is visible.
	state.Unassign(u)
	best, bestMargin := cur, curMargin
	lo, hi := net.CandRange(u)
	for k := lo; k < hi; k++ {
		l := net.LinkAt(u, k)
		if !state.CanServe(u, l.BS) {
			continue
		}
		if m := Margin(net, l); m > bestMargin {
			best, bestMargin = l.BS, m
		}
	}
	if err := state.Assign(u, best); err != nil {
		// The released slot must remain assignable.
		return false, fmt.Errorf("alloc: LocalSearch relocate: %w", err)
	}
	return best != cur, nil
}

// insert places a cloud UE on its best feasible candidate, if any.
func (a *LocalSearch) insert(net *mec.Network, state *mec.State, u mec.UEID) (bool, error) {
	best := mec.CloudBS
	bestMargin := 0.0
	lo, hi := net.CandRange(u)
	for k := lo; k < hi; k++ {
		l := net.LinkAt(u, k)
		if !state.CanServe(u, l.BS) {
			continue
		}
		if m := Margin(net, l); m > bestMargin {
			best, bestMargin = l.BS, m
		}
	}
	if best == mec.CloudBS {
		return false, nil
	}
	if err := state.Assign(u, best); err != nil {
		return false, fmt.Errorf("alloc: LocalSearch insert: %w", err)
	}
	return true, nil
}

// eject tries to serve cloud UE u by evicting a cheaper UE from one of
// u's candidate BSs; the victim is re-inserted at its best alternative
// (possibly the cloud). The move commits only on a positive net gain.
func (a *LocalSearch) eject(net *mec.Network, state *mec.State, u mec.UEID) (bool, error) {
	lo, hi := net.CandRange(u)
	for k := lo; k < hi; k++ {
		l := net.LinkAt(u, k)
		uMargin := Margin(net, l)
		// Find a victim on this BS whose removal makes room for u.
		for v := range net.UEs {
			vid := mec.UEID(v)
			if vid == u || state.ServingBS(vid) != l.BS {
				continue
			}
			vLink, ok := net.Link(vid, l.BS)
			if !ok {
				continue
			}
			vMargin := Margin(net, vLink)
			state.Unassign(vid)
			if !state.CanServe(u, l.BS) {
				// Removing v does not free enough; restore and try next.
				if err := assignFeasible(state, vid, l.BS); err != nil {
					return false, err
				}
				continue
			}
			if err := assignFeasible(state, u, l.BS); err != nil {
				return false, err
			}
			// Re-insert the victim at its best remaining option.
			vBest := mec.CloudBS
			vBestMargin := 0.0
			vlo, vhi := net.CandRange(vid)
			for vk := vlo; vk < vhi; vk++ {
				vl := net.LinkAt(vid, vk)
				if !state.CanServe(vid, vl.BS) {
					continue
				}
				if m := Margin(net, vl); m > vBestMargin {
					vBest, vBestMargin = vl.BS, m
				}
			}
			gain := uMargin - vMargin + vBestMargin
			if gain <= 1e-12 {
				// Roll back: undo u, restore v.
				state.Unassign(u)
				if err := assignFeasible(state, vid, l.BS); err != nil {
					return false, err
				}
				continue
			}
			if vBest != mec.CloudBS {
				if err := assignFeasible(state, vid, vBest); err != nil {
					return false, err
				}
			}
			return true, nil
		}
	}
	return false, nil
}

// assignFeasible makes an assignment that a CanServe check or a release
// just showed feasible; a failure means the ledger no longer matches the
// network.
func assignFeasible(state *mec.State, u mec.UEID, b mec.BSID) error {
	if err := state.Assign(u, b); err != nil {
		return fmt.Errorf("alloc: LocalSearch eject: %w", err)
	}
	return nil
}
