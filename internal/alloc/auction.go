package alloc

import (
	"fmt"
	"sort"

	"dmra/internal/mec"
)

// Auction is a decentralized ascending-price market baseline in the
// spirit of the distributed price-adjustment schemes the paper's related
// work surveys (Xie et al.): every BS maintains a congestion surcharge
// per RRB; each round, unassigned UEs bid for the candidate BS with the
// highest net value (SP margin minus surcharge), BSs admit bids in
// descending net value while resources last, and a BS that had to turn
// bidders away raises its surcharge — shifting future demand elsewhere.
// UEs whose best net value drops to zero exit to the cloud.
//
// Compared with DMRA the mechanism needs no same-SP or scarcity
// tie-breaks: prices encode congestion. It converges because every round
// either admits a UE or raises a price, and prices are bounded by the
// largest margin.
type Auction struct {
	// EpsilonStep is the per-round surcharge increment of a congested BS
	// (price units per RRB). Zero means DefaultEpsilonStep.
	EpsilonStep float64
}

// DefaultEpsilonStep balances convergence speed against price overshoot;
// margins are O(10) and RRB demands O(1-3), so half-unit steps converge
// in tens of rounds.
const DefaultEpsilonStep = 0.5

var _ Allocator = (*Auction)(nil)

// NewAuction returns the ascending-price market allocator.
func NewAuction() *Auction { return &Auction{} }

// Name implements Allocator.
func (a *Auction) Name() string { return "Auction" }

// bid is one UE's offer for one BS in a round.
type bid struct {
	link mec.Link
	net  float64 // margin minus surcharge
}

// Allocate implements Allocator.
func (a *Auction) Allocate(net *mec.Network) (Result, error) {
	eps := a.EpsilonStep
	if eps <= 0 {
		eps = DefaultEpsilonStep
	}
	state := mec.NewState(net)
	cands := newCandidateSet(net)
	price := make([]float64, len(net.BSs)) // surcharge per RRB
	var stats Stats

	// Termination: each round admits a UE, drops a candidate, or raises a
	// price; prices are bounded by the max margin, so the round count is
	// bounded. maxRounds encodes that bound with slack.
	maxMargin := 0.0
	for u := range net.UEs {
		lo, hi := net.CandRange(mec.UEID(u))
		for k := lo; k < hi; k++ {
			maxMargin = max(maxMargin, Margin(net, net.LinkAt(mec.UEID(u), k)))
		}
	}
	maxRounds := len(net.UEs) + net.Dense().Links() +
		len(net.BSs)*(int(maxMargin/eps)+2) + 1

	for round := 0; ; round++ {
		if round > maxRounds {
			return Result{}, fmt.Errorf("alloc: Auction exceeded %d rounds", maxRounds)
		}
		stats.Iterations++

		// Bidding phase.
		inbox := make([][]bid, len(net.BSs))
		anyBid := false
		for u := range net.UEs {
			uid := mec.UEID(u)
			if state.Assigned(uid) {
				continue
			}
			for !cands.empty(uid) {
				pos, best, ok := a.bestBid(net, state, cands, price, uid)
				if !ok {
					break // no positive-value candidate left: cloud
				}
				if state.CanServe(uid, best.link.BS) {
					inbox[best.link.BS] = append(inbox[best.link.BS], best)
					stats.Proposals++
					anyBid = true
					break
				}
				cands.dropIdx(uid, pos)
			}
		}
		if !anyBid {
			break
		}

		// Clearing phase: admit by descending net value, raise the price
		// where demand exceeded supply.
		for b := range net.BSs {
			bids := inbox[b]
			if len(bids) == 0 {
				continue
			}
			sort.SliceStable(bids, func(i, j int) bool {
				if bids[i].net != bids[j].net {
					return bids[i].net > bids[j].net
				}
				return bids[i].link.UE < bids[j].link.UE
			})
			congested := false
			for _, bd := range bids {
				if !state.CanServe(bd.link.UE, bd.link.BS) {
					congested = true
					stats.Rejects++
					continue
				}
				if err := state.Assign(bd.link.UE, bd.link.BS); err != nil {
					return Result{}, fmt.Errorf("alloc: Auction: %w", err)
				}
				stats.Accepts++
			}
			if congested {
				price[b] += eps
			}
		}
	}

	if err := state.CheckInvariants(); err != nil {
		return Result{}, fmt.Errorf("alloc: Auction produced invalid state: %w", err)
	}
	return Result{Assignment: state.Snapshot(), Stats: stats}, nil
}

// bestBid returns the position and bid of u's highest positive-net-value
// candidate, or ok=false when the cloud (value 0) is u's best option.
func (a *Auction) bestBid(net *mec.Network, state *mec.State, cands *candidateSet, price []float64, u mec.UEID) (int, bid, bool) {
	bestPos := -1
	var best bid
	cands.forEach(net, u, func(pos int, l mec.Link) {
		v := Margin(net, l) - price[l.BS]*float64(l.RRBs)
		if v <= 0 {
			return
		}
		if bestPos < 0 || v > best.net || (v == best.net && l.BS < best.link.BS) {
			bestPos = pos
			best = bid{link: l, net: v}
		}
	})
	if bestPos < 0 {
		return 0, bid{}, false
	}
	return bestPos, best, true
}
