package engine

import "dmra/internal/mec"

// slotView is one UE's own view of one candidate BS, kept when it missed
// the BS's latest broadcast: the BS's remaining CRUs for the UE's service
// and its remaining RRBs, int32 like the store's capacity columns they
// never exceed.
type slotView struct {
	cru, rrb int32
}

// staleViews holds the views of UEs that missed a BS's latest broadcast.
// A proposer allocates it on the first lost reception, so loss-free runs
// never do.
type staleViews struct {
	// set marks the candidate slots whose UE holds an older view of the
	// slot's BS than the BS's row; views[slot] is that view.
	set   Bitset
	views []slotView
	// ues[b] lists, in ascending order, the UEs whose view of b is stale.
	ues [][]mec.UEID
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
// A broadcast sends every covered UE the same residuals, so the views of
// BS b are one row: b's latest broadcast, Services-strided like
// CSR.CRUCap and MaxRRB, which every covered UE that received it reads.
// Only a lost reception gives a UE a view of its own (staleViews), kept
// until the UE receives a later broadcast of that BS. UE u's live list is
// idx[Off[u] : Off[u]+live[u]], unordered once swap-removal has run,
// which is why ties break on the candidate index rather than on list
// position. A UE only ever requests its own service, so its view of a BS
// reads that service's CRUs alone. Propose, Empty and DropBS for u touch
// only u's entries, so callers may run them concurrently for disjoint UE
// sets. A broadcast that misses no UE writes only its BS's row, so while
// no reception is ever lost, callers may run ApplyBroadcast concurrently
// for distinct BSs. Neither group may overlap the other.
type Proposer struct {
	csr  *mec.CSR
	cfg  Config
	live []int32
	idx  []int32
	// rows holds every BS's latest broadcast: rows.Row(b) and
	// rows.RRB[b] are what BS b last sent.
	rows mec.Book
	// stale is nil until a reception is lost.
	stale *staleViews
	// covered[b] lists the UEs that can hear BS b's broadcasts, in
	// ascending UE order; nil until Covered first asks.
	covered [][]mec.UEID
}

// NewProposer returns a proposer over net's candidate store, with every
// candidate live and every view at the store's capacities.
func NewProposer(net *mec.Network, cfg Config) *Proposer {
	csr := net.Dense()
	nUE := csr.UEs()
	p := &Proposer{
		csr:  csr,
		cfg:  cfg,
		live: make([]int32, nUE),
		idx:  make([]int32, csr.Links()),
	}
	p.rows.Reset(csr.Services, csr.CRUCap, csr.MaxRRB)
	for u := range nUE {
		lo, hi := csr.CandRange(mec.UEID(u))
		p.live[u] = hi - lo
		for g := lo; g < hi; g++ {
			p.idx[g] = g - lo
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
	need := csr.CRU[u]
	svc, stride := int(csr.Service[u]), csr.Services
	stale := p.stale
	best := int32(-1)
	var bestV float64
	for i := int32(0); i < n; {
		k := live[i]
		g := base + k
		b := csr.BS[g]
		cru, rrb := p.rows.CRU[int(b)*stride+svc], p.rows.RRB[b]
		if stale != nil && stale.set.Get(g) {
			cru, rrb = stale.views[g].cru, stale.views[g].rrb
		}
		if cru < need || rrb < csr.RRBs[g] {
			n--
			live[i] = live[n]
			continue
		}
		if v := p.cfg.preference(csr.Price[g], int(cru)+int(rrb)); best < 0 || prefLess(v, k, bestV, best) {
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
		CRUs:        int(need),
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
// The first call builds every BS's list; it must not overlap any other
// call. The slice is owned by the proposer and must not be modified.
func (p *Proposer) Covered(b mec.BSID) []mec.UEID {
	if p.covered == nil {
		p.covered = coverLists(p.csr)
	}
	return p.covered[b]
}

// coverLists returns, for every BS, the UEs that list it as a candidate,
// in ascending order, as windows of one shared backing array.
func coverLists(csr *mec.CSR) [][]mec.UEID {
	perBS := make([]int, csr.BSs())
	for _, b := range csr.BS {
		perBS[b]++
	}
	ues := make([]mec.UEID, csr.Links())
	covered := make([][]mec.UEID, len(perBS))
	start := 0
	for b, n := range perBS {
		covered[b] = ues[start : start : start+n]
		start += n
	}
	for u := range csr.UEs() {
		lo, hi := csr.CandRange(mec.UEID(u))
		for g := lo; g < hi; g++ {
			covered[csr.BS[g]] = append(covered[csr.BS[g]], mec.UEID(u))
		}
	}
	return covered
}

// ApplyBroadcast delivers BS b's broadcast resources, which must not
// exceed b's capacities in the store (a BS's residuals never grow past
// them), to every UE of Covered(b) except the missed ones, whose
// reception was lost: they keep their older view. Missed must be in
// ascending order without repeats, as Covered lists the UEs; UEs outside
// Covered(b) are ignored. A broadcast that reaches every covered UE
// (missed empty) while none holds a stale view of b rewrites only b's
// row.
func (p *Proposer) ApplyBroadcast(b mec.BSID, remCRU []int, remRRBs int, missed []mec.UEID) {
	if len(missed) > 0 || (p.stale != nil && len(p.stale.ues[b]) > 0) {
		p.restale(b, missed)
	}
	row := p.rows.Row(b)
	for j := range row {
		row[j] = int32(remCRU[j])
	}
	p.rows.RRB[b] = int32(remRRBs)
}

// restale makes missed the UEs with a stale view of b, before b's row
// takes a new broadcast. A missed UE that already held a stale view keeps
// it; one that read the row keeps the row's current values as its own.
// Every other UE that held a stale view received this broadcast and reads
// the row again.
func (p *Proposer) restale(b mec.BSID, missed []mec.UEID) {
	csr := p.csr
	st := p.stale
	if st == nil {
		st = &staleViews{views: make([]slotView, csr.Links()), ues: make([][]mec.UEID, csr.BSs())}
		st.set.Reset(csr.Links())
		p.stale = st
	}
	row := slotView{rrb: p.rows.RRB[b]}
	old := st.ues[b]
	next := make([]mec.UEID, 0, len(missed))
	i := 0
	for _, u := range missed {
		g := csr.FindCand(u, b)
		if g < 0 {
			continue
		}
		for ; i < len(old) && old[i] < u; i++ {
			st.set.Clear(csr.FindCand(old[i], b))
		}
		if i < len(old) && old[i] == u {
			i++
		} else {
			row.cru = p.rows.CRU[int(b)*csr.Services+int(csr.Service[u])]
			st.views[g] = row
			st.set.Set(g)
		}
		next = append(next, u)
	}
	for ; i < len(old); i++ {
		st.set.Clear(csr.FindCand(old[i], b))
	}
	st.ues[b] = next
}

// prefLess orders candidates by (Eq. 17 value, candidate index). The
// index tie-break reproduces a first-strictly-less sweep in candidate
// order, which returns the lowest-index minimum.
func prefLess(v1 float64, k1 int32, v2 float64, k2 int32) bool {
	return v1 < v2 || (v1 == v2 && k1 < k2)
}
