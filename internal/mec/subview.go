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
// radio/pricing link build, while Refresh only rewrites an active-UE mask
// and the capacity rows.
//
// The view's Network shares everything of the parent's — SPs, BSs, UEs,
// radio, pricing and the candidate columns of its store — except the
// store's capacity rows, which hold the residuals, and its Active mask.
// Sharing f_u is load-bearing, not just cheap: f_u in Alg. 1's
// tie-breaks is the UE's true coverage, which must not shrink because a
// covering BS is momentarily drained. For the same reason a BS with zero
// residual RRBs stays a candidate with a zero RRB row — candidates keep
// seeing it and it rejects normally — which NewNetwork's validation would
// forbid; the SubView bypasses validation because the parent already
// validated the scenario and residuals are invariant-checked by the
// ledger.
type SubView struct {
	net Network
	// prev is the previous Refresh's UE set (a private copy: callers
	// recycle their slice), so the next Refresh clears only those mask
	// entries.
	prev []UEID
}

// NewSubView prepares a reusable sub-view of n. The returned SubView is
// not safe for concurrent Refresh calls, and the *Network handed out by
// Refresh is invalidated by the next Refresh.
func (n *Network) NewSubView() *SubView {
	sv := &SubView{net: *n}
	c := &sv.net.csr
	c.CRUCap = make([]int32, len(n.csr.CRUCap))
	c.MaxRRB = make([]int32, len(n.csr.MaxRRB))
	c.Active = make([]bool, len(n.UEs))
	return sv
}

// Refresh points the view at the given active UEs and snapshots res's
// residual capacities as the capacity rows, then returns the view's
// Network. Inactive UEs keep their identity but expose no candidate
// links, so allocators pass them straight to the cloud and the caller
// can index the resulting assignment by real UE ID with no renumbering.
// res must be a ledger over the parent network. The cost is
// O(BSs·Services plus the previous and the new active set), independent
// of the UE pool.
func (sv *SubView) Refresh(active []UEID, res *State) *Network {
	c := &sv.net.csr
	copy(c.CRUCap, res.book.CRU)
	copy(c.MaxRRB, res.book.RRB)
	for _, u := range sv.prev {
		c.Active[u] = false
	}
	sv.prev = append(sv.prev[:0], active...)
	for _, u := range active {
		c.Active[u] = true
	}
	return &sv.net
}
