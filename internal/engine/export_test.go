package engine

import "dmra/internal/mec"

// SetRunForTest positions the arena's run epoch, which Begin and every
// non-empty Settle advance, so a test can drive a session across the
// uint32 wrap.
func (inc *Incremental) SetRunForTest(run uint32) { inc.a.run = run }

// RunForTest returns the arena's current run epoch.
func (inc *Incremental) RunForTest() uint32 { return inc.a.run }

// RegionStampForTest returns the run UE u's candidate region was built
// in (0 once invalidated).
func (inc *Incremental) RegionStampForTest(u mec.UEID) uint32 { return inc.a.stamp[u] }

// ViewForTest returns UE u's view of its k-th candidate BS: the
// remaining CRUs of u's service and remaining RRBs last broadcast to u.
func (p *Proposer) ViewForTest(u mec.UEID, k int) (remCRU, remRRBs int) {
	g := p.csr.Off[u] + int32(k)
	if p.stale != nil && p.stale.set.Get(g) {
		return int(p.stale.views[g].cru), int(p.stale.views[g].rrb)
	}
	b := int(p.csr.BS[g])
	return p.rows.Residual(mec.BSID(b), mec.ServiceID(p.csr.Service[u]))
}

// SlotStateForTest reports whether the proposer has built any per-slot
// state: stale views or the cover lists.
func (p *Proposer) SlotStateForTest() bool { return p.stale != nil || p.covered != nil }
