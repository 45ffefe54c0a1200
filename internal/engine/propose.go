package engine

import "dmra/internal/mec"

// ResidualView is the resource picture a proposing UE checks its
// candidates against: the shared mec.State ledger for the synchronous
// solver, or the broadcast-fed ViewTable for the message-passing
// runtimes. CandidateResidual(u, k) returns what the view says UE u's
// k-th candidate BS (net.Candidates(u)[k]) has left for u: its remaining
// CRUs of u's service and its remaining RRBs.
//
// A view must be monotone non-increasing within a run. Every runtime's
// is: DMRA only ever debits a ledger, and a broadcast carries the BS's
// current, hence never larger, residuals. The Proposer's permanent drops
// rest on it.
type ResidualView interface {
	CandidateResidual(u mec.UEID, k int) (remCRU, remRRBs int)
}

// Proposer is the UE side of the round state machine (Alg. 1 lines 3-10).
// Each Propose is one sweep over the UE's live candidates: every
// candidate the view says can no longer fit the UE (CRUs or RRBs) is
// dropped for the rest of the run, and the UE proposes to the (Eq. 17
// value, candidate index) lex-minimum of the rest — the candidate a
// first-strictly-less sweep in candidate order would pick. Dropping
// eagerly is exact because views are monotone: a candidate that cannot
// fit the UE now never will again this run. This is the same rule as the
// arena's unobserved scan.
//
// The live candidate indices of every UE share one flat array in
// candidate-list (CSR) order: UE u's live list is
// idx[off[u] : off[u]+live[u]], unordered once swap-removal has run,
// which is why ties break on the candidate index rather than on list
// position. Propose, Empty and DropBS for u touch only u's entries, so
// callers may run them concurrently for disjoint UE sets.
type Proposer struct {
	net  *mec.Network
	cfg  Config
	off  []int
	live []int32
	idx  []int32
}

// NewProposer returns a proposer over net's candidate lists.
func NewProposer(net *mec.Network, cfg Config) *Proposer {
	p := &Proposer{}
	p.Reset(net, cfg)
	return p
}

// Reset rewinds the proposer for a fresh run over net, with every
// candidate live, reusing backing storage when shapes allow.
func (p *Proposer) Reset(net *mec.Network, cfg Config) {
	p.net, p.cfg = net, cfg
	p.off = grown(p.off, len(net.UEs)+1)
	p.live = grown(p.live, len(net.UEs))
	links := 0
	for u := range net.UEs {
		n := len(net.Candidates(mec.UEID(u)))
		p.off[u] = links
		p.live[u] = int32(n)
		links += n
	}
	p.off[len(net.UEs)] = links
	p.idx = grown(p.idx, links)
	for u, n := range p.live {
		live := p.idx[p.off[u] : p.off[u]+int(n)]
		for k := range live {
			live[k] = int32(k)
		}
	}
}

// Propose returns UE u's request for this round and its target BS, or
// ok = false when no candidate the view can still fit remains (cloud
// fallback). The sweep adds the number of live candidates it visited to
// *swept, for the dmra_pref_* counters.
func (p *Proposer) Propose(u mec.UEID, rv ResidualView, swept *uint64) (req Request, bs mec.BSID, ok bool) {
	n := p.live[u]
	*swept += uint64(n)
	live := p.idx[p.off[u] : p.off[u]+int(n)]
	cands := p.net.Candidates(u)
	need := p.net.UEs[u].CRUDemand
	best := int32(-1)
	var bestV float64
	for i := int32(0); i < n; {
		k := live[i]
		remCRU, remRRBs := rv.CandidateResidual(u, int(k))
		l := &cands[k]
		if remCRU < need || remRRBs < l.RRBs {
			n--
			live[i] = live[n]
			continue
		}
		if v := p.cfg.preference(l.PricePerCRU, remCRU+remRRBs); best < 0 || prefLess(v, k, bestV, best) {
			best, bestV = k, v
		}
		i++
	}
	p.live[u] = n
	if best < 0 {
		return Request{}, mec.CloudBS, false
	}
	l := &cands[best]
	return Request{
		UE:          u,
		Service:     p.net.UEs[u].Service,
		CRUs:        need,
		RRBs:        l.RRBs,
		SameSP:      l.SameSP,
		Fu:          p.net.CoverCount(u),
		PricePerCRU: l.PricePerCRU,
	}, l.BS, true
}

// Empty reports whether UE u has no live candidates left; such a UE can
// never propose again this run.
func (p *Proposer) Empty(u mec.UEID) bool { return p.live[u] == 0 }

// DropBS removes UE u's candidate on BS b, if it is still live — the
// receiver-side effect of a permanent reject or a dead BS.
func (p *Proposer) DropBS(u mec.UEID, b mec.BSID) {
	cands := p.net.Candidates(u)
	live := p.idx[p.off[u] : p.off[u]+int(p.live[u])]
	for i, k := range live {
		if cands[k].BS == b {
			n := len(live) - 1
			live[i] = live[n]
			p.live[u] = int32(n)
			return
		}
	}
}

// prefLess orders candidates by (Eq. 17 value, candidate index). The
// index tie-break reproduces a first-strictly-less sweep in candidate
// order, which returns the lowest-index minimum.
func prefLess(v1 float64, k1 int32, v2 float64, k2 int32) bool {
	return v1 < v2 || (v1 == v2 && k1 < k2)
}
