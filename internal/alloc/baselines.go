package alloc

import (
	"fmt"
	"sort"

	"dmra/internal/mec"
	"dmra/internal/rng"
)

// Random assigns each UE (in a seeded random order) to a uniformly chosen
// feasible candidate BS. It is the weakest sensible baseline: feasible but
// oblivious to price, SP affinity, and scarcity.
type Random struct {
	seed uint64
}

var _ Allocator = (*Random)(nil)

// NewRandom returns a Random allocator with the given seed. The same seed
// over the same network reproduces the same assignment.
func NewRandom(seed uint64) *Random { return &Random{seed: seed} }

// Name implements Allocator.
func (a *Random) Name() string { return "Random" }

// Allocate implements Allocator.
func (a *Random) Allocate(net *mec.Network) (Result, error) {
	state := mec.NewState(net)
	src := rng.New(a.seed)
	var stats Stats
	stats.Iterations = 1
	for _, u := range src.Perm(len(net.UEs)) {
		uid := mec.UEID(u)
		var feasible []mec.Link
		lo, hi := net.CandRange(uid)
		for k := lo; k < hi; k++ {
			if l := net.LinkAt(uid, k); state.CanServe(uid, l.BS) {
				feasible = append(feasible, l)
			}
		}
		if len(feasible) == 0 {
			continue
		}
		l := feasible[src.Intn(len(feasible))]
		stats.Proposals++
		if err := state.Assign(uid, l.BS); err != nil {
			return Result{}, fmt.Errorf("alloc: Random: %w", err)
		}
		stats.Accepts++
	}
	if err := state.CheckInvariants(); err != nil {
		return Result{}, fmt.Errorf("alloc: Random produced invalid state: %w", err)
	}
	return Result{Assignment: state.Snapshot(), Stats: stats}, nil
}

// Greedy is a centralized profit-greedy baseline: it sorts all candidate
// links by the SP margin a grant would realize, descending, and admits
// greedily subject to feasibility. It is not decentralized (it needs a
// global view) and serves as a strong heuristic reference for DMRA.
type Greedy struct{}

var _ Allocator = (*Greedy)(nil)

// NewGreedy returns the centralized greedy baseline.
func NewGreedy() *Greedy { return &Greedy{} }

// Name implements Allocator.
func (a *Greedy) Name() string { return "Greedy" }

// Margin returns the MEC-layer profit realized by serving link l:
// c_j^u * (m_k - m_k^o - p_{i,u}).
func Margin(net *mec.Network, l mec.Link) float64 {
	ue := &net.UEs[l.UE]
	sp := &net.SPs[ue.SP]
	return float64(ue.CRUDemand) * (sp.CRUPrice - sp.OtherCostPerCRU - l.PricePerCRU)
}

// Allocate implements Allocator.
func (a *Greedy) Allocate(net *mec.Network) (Result, error) {
	state := mec.NewState(net)
	var stats Stats
	stats.Iterations = 1

	var links []mec.Link
	for u := range net.UEs {
		lo, hi := net.CandRange(mec.UEID(u))
		for k := lo; k < hi; k++ {
			links = append(links, net.LinkAt(mec.UEID(u), k))
		}
	}
	sort.SliceStable(links, func(i, j int) bool {
		mi, mj := Margin(net, links[i]), Margin(net, links[j])
		if mi != mj {
			return mi > mj
		}
		if links[i].UE != links[j].UE {
			return links[i].UE < links[j].UE
		}
		return links[i].BS < links[j].BS
	})
	for _, l := range links {
		if state.Assigned(l.UE) || !state.CanServe(l.UE, l.BS) {
			continue
		}
		stats.Proposals++
		if err := state.Assign(l.UE, l.BS); err != nil {
			return Result{}, fmt.Errorf("alloc: Greedy: %w", err)
		}
		stats.Accepts++
	}
	if err := state.CheckInvariants(); err != nil {
		return Result{}, fmt.Errorf("alloc: Greedy produced invalid state: %w", err)
	}
	return Result{Assignment: state.Snapshot(), Stats: stats}, nil
}
