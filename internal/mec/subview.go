package mec

import "sync/atomic"

// networkBuilds counts NewNetwork calls process-wide. The online session
// asserts it stays flat after setup: epochs must reuse a SubView instead
// of rebuilding (and re-validating, and re-link-building) a Network.
var networkBuilds atomic.Int64

// NetworkBuilds returns the number of NewNetwork calls so far in this
// process. Test-oriented: take a delta around the code under test.
func NetworkBuilds() int64 { return networkBuilds.Load() }

// SubView is a reusable restriction of a Network to an active UE subset
// with live residual capacities. It exists for the online session, which
// re-matches a changing waiting set against shrinking resources every
// epoch: rebuilding a Network per epoch costs validation plus a full
// radio/pricing link build, while Refresh only swaps link-slice aliases
// and copies residual counters into preallocated buffers.
//
// The materialized view shares the parent's SPs, UEs, radio, pricing,
// links (aliased per active UE), and coverage counts. Sharing coverCount
// is load-bearing, not just cheap: f_u in Alg. 1's tie-breaks is the
// UE's true coverage, which must not shrink because a covering BS is
// momentarily drained. For the same reason a BS with zero residual RRBs
// stays present with MaxRRBs = 0 — candidates keep seeing it and it
// rejects normally — which NewNetwork's validation would forbid; the
// SubView bypasses validation because the parent already validated the
// scenario and residuals are invariant-checked by the ledger.
type SubView struct {
	parent *Network
	net    Network
	bss    []BS
	caps   [][]int
	links  [][]Link
	// active is the previous Refresh's UE set (a private copy: callers
	// recycle their slice), so the next Refresh clears only those links.
	active []UEID
}

// NewSubView prepares a reusable sub-view of n. The returned SubView is
// not safe for concurrent Refresh calls, and the *Network handed out by
// Refresh is invalidated by the next Refresh.
func (n *Network) NewSubView() *SubView {
	sv := &SubView{
		parent: n,
		bss:    make([]BS, len(n.BSs)),
		caps:   make([][]int, len(n.BSs)),
		links:  make([][]Link, len(n.UEs)),
	}
	for b := range n.BSs {
		sv.bss[b] = n.BSs[b]
		sv.caps[b] = make([]int, len(n.BSs[b].CRUCapacity))
		sv.bss[b].CRUCapacity = sv.caps[b]
	}
	sv.net = Network{
		SPs:        n.SPs,
		BSs:        sv.bss,
		UEs:        n.UEs,
		Services:   n.Services,
		Radio:      n.Radio,
		Pricing:    n.Pricing,
		links:      sv.links,
		coverCount: n.coverCount,
	}
	return sv
}

// Refresh points the view at the given active UEs and snapshots res's
// residual capacities as the BS capacities, then returns the view's
// Network. Inactive UEs keep their identity but expose no candidate
// links, so allocators pass them straight to the cloud and the caller
// can index the resulting assignment by real UE ID with no renumbering.
// res must be a ledger over the parent network. The cost is O(BSs plus
// the previous and the new active set), independent of the UE pool.
func (sv *SubView) Refresh(active []UEID, res *State) *Network {
	for b := range sv.bss {
		caps := sv.caps[b]
		for j := range caps {
			caps[j] = res.RemainingCRU(BSID(b), ServiceID(j))
		}
		sv.bss[b].MaxRRBs = res.RemainingRRBs(BSID(b))
	}
	for _, u := range sv.active {
		sv.links[u] = nil
	}
	sv.active = append(sv.active[:0], active...)
	for _, u := range active {
		sv.links[u] = sv.parent.links[u]
	}
	return &sv.net
}
