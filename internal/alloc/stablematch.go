package alloc

import (
	"fmt"
	"sort"

	"dmra/internal/matching"
	"dmra/internal/mec"
)

// StableMatch is a classical-matching baseline that maps UE-BS association
// onto the hospitals/residents problem the paper cites as DMRA's
// foundation ([8][9]): UEs rank BSs by price (cheapest first), BSs rank
// UEs by the margin they realize, and each BS's seat count is its radio
// budget divided by the average RRB demand of its candidate links.
//
// Unlike DMRA, the seat abstraction cannot express heterogeneous RRB and
// per-service CRU demands exactly, so the stable matching is repaired
// greedily: proposals that turn out infeasible against the true ledger
// fall through to the UE's next stable-feasible option. The baseline
// quantifies what the paper gains by departing from the textbook
// formulation (dynamic preferences + exact resource checks).
type StableMatch struct{}

var _ Allocator = (*StableMatch)(nil)

// NewStableMatch returns the hospitals/residents baseline.
func NewStableMatch() *StableMatch { return &StableMatch{} }

// Name implements Allocator.
func (a *StableMatch) Name() string { return "StableMatch" }

// Allocate implements Allocator.
func (a *StableMatch) Allocate(net *mec.Network) (Result, error) {
	nUE := len(net.UEs)
	nBS := len(net.BSs)

	// Resident (UE) preferences: candidate BSs by ascending price.
	ueLinks := make([]map[mec.BSID]mec.Link, nUE)
	residentPrefs := make([][]int, nUE)
	for u := 0; u < nUE; u++ {
		var cands []mec.Link
		lo, hi := net.CandRange(mec.UEID(u))
		for k := lo; k < hi; k++ {
			cands = append(cands, net.LinkAt(mec.UEID(u), k))
		}
		sort.SliceStable(cands, func(i, j int) bool {
			if cands[i].PricePerCRU != cands[j].PricePerCRU {
				return cands[i].PricePerCRU < cands[j].PricePerCRU
			}
			return cands[i].BS < cands[j].BS
		})
		ueLinks[u] = make(map[mec.BSID]mec.Link, len(cands))
		residentPrefs[u] = make([]int, len(cands))
		for i, l := range cands {
			residentPrefs[u][i] = int(l.BS)
			ueLinks[u][l.BS] = l
		}
	}

	// Hospital (BS) preferences: candidate UEs by descending margin.
	type cand struct {
		ue     int
		margin float64
	}
	hospitalCands := make([][]cand, nBS)
	totalRRBDemand := make([]int, nBS)
	for u := 0; u < nUE; u++ {
		lo, hi := net.CandRange(mec.UEID(u))
		for k := lo; k < hi; k++ {
			l := net.LinkAt(mec.UEID(u), k)
			hospitalCands[l.BS] = append(hospitalCands[l.BS], cand{ue: u, margin: Margin(net, l)})
			totalRRBDemand[l.BS] += l.RRBs
		}
	}
	hospitalPrefs := make([][]int, nBS)
	capacity := make([]int, nBS)
	for b := 0; b < nBS; b++ {
		cs := hospitalCands[b]
		sort.SliceStable(cs, func(i, j int) bool {
			if cs[i].margin != cs[j].margin {
				return cs[i].margin > cs[j].margin
			}
			return cs[i].ue < cs[j].ue
		})
		hospitalPrefs[b] = make([]int, len(cs))
		for i, c := range cs {
			hospitalPrefs[b][i] = c.ue
		}
		// Seats: radio budget over the mean candidate RRB demand.
		if len(cs) > 0 {
			avg := float64(totalRRBDemand[b]) / float64(len(cs))
			capacity[b] = int(float64(net.Dense().MaxRRB[b]) / avg)
			if capacity[b] < 1 {
				capacity[b] = 1
			}
		}
	}

	assigned, err := matching.HospitalsResidents(residentPrefs, hospitalPrefs, capacity)
	if err != nil {
		return Result{}, fmt.Errorf("alloc: StableMatch: %w", err)
	}

	// Repair pass: commit the stable proposal where the true ledger
	// allows; otherwise walk the UE's remaining preference list.
	state := mec.NewState(net)
	stats := Stats{Iterations: 1}
	for u := 0; u < nUE; u++ {
		uid := mec.UEID(u)
		tried := false
		if h := assigned[u]; h != matching.Unmatched {
			stats.Proposals++
			tried = true
			if state.CanServe(uid, mec.BSID(h)) {
				if err := state.Assign(uid, mec.BSID(h)); err != nil {
					return Result{}, fmt.Errorf("alloc: StableMatch: %w", err)
				}
				stats.Accepts++
				continue
			}
			stats.Rejects++
		}
		for _, b := range residentPrefs[u] {
			if tried && b == assigned[u] {
				continue
			}
			if !state.CanServe(uid, mec.BSID(b)) {
				continue
			}
			stats.Proposals++
			if err := state.Assign(uid, mec.BSID(b)); err != nil {
				return Result{}, fmt.Errorf("alloc: StableMatch: %w", err)
			}
			stats.Accepts++
			break
		}
	}
	if err := state.CheckInvariants(); err != nil {
		return Result{}, fmt.Errorf("alloc: StableMatch produced invalid state: %w", err)
	}
	return Result{Assignment: state.Snapshot(), Stats: stats}, nil
}
