package engine

import (
	"slices"

	"dmra/internal/mec"
)

// slotView is a UE's broadcast-derived knowledge of one candidate BS: the
// BS's remaining CRUs for the UE's own service and its remaining RRBs.
type slotView struct {
	cru, rrb int
}

// coverRef locates one covered UE's view of a BS: its slot in the flat
// view array and the service whose CRUs the view mirrors.
type coverRef struct {
	slot, svc int32
}

// Proposer is the UE side of the message-passing runtimes (Alg. 1 lines
// 3-10): each UE's live candidate list plus its resource views.
//
// Initial views come from the deployment-time capacity announcement
// (Alg. 1 assumes B_u and capacities known); afterwards a UE learns only
// through the ResourceBroadcast messages of Alg. 1 line 26, applied via
// ApplyBroadcast. A broadcast carries the BS's current residuals, which
// never grow within a run, so every view is monotone non-increasing. A
// missed reception leaves a view stale: at or above the BS's true
// residuals, never below.
//
// Each Propose is one sweep over the UE's live candidates: every
// candidate the view says can no longer fit the UE (CRUs or RRBs) is
// dropped for the rest of the run, and the UE proposes to the (Eq. 17
// value, candidate index) lex-minimum of the rest — the candidate a
// first-strictly-less sweep in candidate order would pick. Dropping
// eagerly is exact because views are monotone: a candidate that cannot
// fit the UE now never will again this run. This is the arena's propose
// rule, reading views where the arena reads its ledger.
//
// Everything is laid out over the network's CSR: the view of UE u's
// candidate k sits at the global candidate slot Off[u]+k, and u's live
// list is idx[Off[u] : Off[u]+live[u]], unordered once swap-removal has
// run, which is why ties break on the candidate index rather than on list
// position. A UE only ever requests its own service, so its view of a BS
// mirrors that service's CRUs alone. Propose, Empty and DropBS for u
// touch only u's entries, so callers may run them concurrently for
// disjoint UE sets; ApplyBroadcast must not overlap them.
type Proposer struct {
	csr   *mec.CSR
	cfg   Config
	live  []int32
	idx   []int32
	views []slotView
	// covered[b] lists the UEs that can hear BS b's broadcasts, in
	// ascending UE order; refs[b][i] locates covered[b][i]'s view of b.
	covered [][]mec.UEID
	refs    [][]coverRef
}

// NewProposer returns a proposer over net's candidate store, with every
// candidate live and every view at the store's capacities.
func NewProposer(net *mec.Network, cfg Config) *Proposer {
	csr := net.Dense()
	nUE, nBS, links := csr.UEs(), csr.BSs(), csr.Links()
	p := &Proposer{
		csr:     csr,
		cfg:     cfg,
		live:    make([]int32, nUE),
		idx:     make([]int32, links),
		views:   make([]slotView, links),
		covered: make([][]mec.UEID, nBS),
		refs:    make([][]coverRef, nBS),
	}
	perBS := make([]int, nBS)
	for _, b := range csr.BS {
		perBS[b]++
	}
	// The per-BS lists are windows of two shared backing arrays.
	ues := make([]mec.UEID, links)
	refs := make([]coverRef, links)
	start := 0
	for b, n := range perBS {
		p.covered[b] = ues[start : start : start+n]
		p.refs[b] = refs[start : start : start+n]
		start += n
	}
	for u := range nUE {
		lo, hi := csr.CandRange(mec.UEID(u))
		p.live[u] = hi - lo
		svc := csr.Service[u]
		for g := lo; g < hi; g++ {
			b := csr.BS[g]
			p.idx[g] = g - lo
			p.views[g] = slotView{cru: int(csr.CRUCap[int(b)*csr.Services+int(svc)]), rrb: int(csr.MaxRRB[b])}
			p.covered[b] = append(p.covered[b], mec.UEID(u))
			p.refs[b] = append(p.refs[b], coverRef{slot: g, svc: svc})
		}
	}
	return p
}

// Propose returns UE u's request for this round and its target BS, or
// ok = false when no candidate the views can still fit remains (cloud
// fallback). The sweep adds the number of live candidates it visited to
// *swept, for the dmra_pref_* counters.
func (p *Proposer) Propose(u mec.UEID, swept *uint64) (req Request, bs mec.BSID, ok bool) {
	n := p.live[u]
	*swept += uint64(n)
	csr := p.csr
	base := csr.Off[u]
	live := p.idx[base : base+n]
	need := int(csr.CRU[u])
	best := int32(-1)
	var bestV float64
	for i := int32(0); i < n; {
		k := live[i]
		g := base + k
		sv := p.views[g]
		if sv.cru < need || sv.rrb < int(csr.RRBs[g]) {
			n--
			live[i] = live[n]
			continue
		}
		if v := p.cfg.preference(csr.Price[g], sv.cru+sv.rrb); best < 0 || prefLess(v, k, bestV, best) {
			best, bestV = k, v
		}
		i++
	}
	p.live[u] = n
	if best < 0 {
		return Request{}, mec.CloudBS, false
	}
	g := base + best
	return Request{
		UE:          u,
		Service:     mec.ServiceID(csr.Service[u]),
		CRUs:        need,
		RRBs:        int(csr.RRBs[g]),
		SameSP:      csr.SameSP[g],
		Fu:          int(csr.Fu[u]),
		PricePerCRU: csr.Price[g],
	}, mec.BSID(csr.BS[g]), true
}

// Empty reports whether UE u has no live candidates left; such a UE can
// never propose again this run.
func (p *Proposer) Empty(u mec.UEID) bool { return p.live[u] == 0 }

// DropBS removes UE u's candidate on BS b, if it is still live — the
// receiver-side effect of a permanent reject or a dead BS.
func (p *Proposer) DropBS(u mec.UEID, b mec.BSID) {
	base := p.csr.Off[u]
	live := p.idx[base : base+p.live[u]]
	for i, k := range live {
		if p.csr.BS[base+k] == int32(b) {
			n := len(live) - 1
			live[i] = live[n]
			p.live[u] = int32(n)
			return
		}
	}
}

// Covered returns the UEs in BS b's broadcast range, in ascending order.
// The slice is owned by the proposer and must not be modified.
func (p *Proposer) Covered(b mec.BSID) []mec.UEID { return p.covered[b] }

// ApplyBroadcast updates the receivers' views of BS b to the broadcast
// resources. Receivers is the subset of Covered(b) whose reception
// succeeded, best passed in Covered order (then each receiver costs one
// comparison; others cost a binary search); UEs outside Covered(b) are
// ignored.
func (p *Proposer) ApplyBroadcast(b mec.BSID, remCRU []int, remRRBs int, receivers []mec.UEID) {
	cov, refs := p.covered[b], p.refs[b]
	i := 0
	for _, u := range receivers {
		if i >= len(cov) || cov[i] != u {
			j, found := slices.BinarySearch(cov, u)
			if !found {
				continue
			}
			i = j
		}
		r := refs[i]
		p.views[r.slot] = slotView{cru: remCRU[r.svc], rrb: remRRBs}
		i++
	}
}

// prefLess orders candidates by (Eq. 17 value, candidate index). The
// index tie-break reproduces a first-strictly-less sweep in candidate
// order, which returns the lowest-index minimum.
func prefLess(v1 float64, k1 int32, v2 float64, k2 int32) bool {
	return v1 < v2 || (v1 == v2 && k1 < k2)
}
