package engine

import "dmra/internal/mec"

// Request is one UE->BS service request of an Alg. 1 iteration, flattened
// to what the paper's line 7 says a request carries: the UE's identity,
// its demands on this link, the ownership relation, the coverage count
// f_u, and the link economics. It is self-contained so a BS can select
// without the network database; internal/wire frames it field by field.
type Request struct {
	UE      mec.UEID
	Service mec.ServiceID
	// CRUs is c_j^u and RRBs n_{u,i} for this UE-BS link.
	CRUs int
	RRBs int
	// SameSP tells the BS whether the proposer subscribes to its owner.
	SameSP bool
	// Fu is the UE's coverage count f_u.
	Fu int
	// PricePerCRU is p_{i,u}; the BS echoes link economics back into its
	// selection without needing the full network database.
	PricePerCRU float64
}

// Verdict is a BS's decision on one request of a round.
type Verdict struct {
	Req Request
	// Accepted reports admission.
	Accepted bool
	// Permanent qualifies a rejection: true means the BS can no longer
	// fit the request at all (the proposer should prune this BS); false
	// means the request was merely trimmed behind a more-preferred one
	// this round (Alg. 1 lines 22-25) and may be retried.
	Permanent bool
}

// SelectScratch is the reusable select-phase buffer set. Drivers keep one
// per BS (or one pooled per run) so steady-state rounds allocate nothing.
type SelectScratch struct {
	// best[j] indexes the inbox's running pick for service j, or is -1.
	best     []int32
	touched  []mec.ServiceID
	selected []Request
	verdicts []Verdict
}

// SelectRound runs BS b's full select phase (Alg. 1 lines 11-26) over
// the round's request inbox: per-service selection, the radio-budget
// preference sort, and the strict prefix trim, admitting winners into
// book's row b. Demands are compared against the residuals in int and
// only converted by the admission, so no demand wraps the int32 rows.
// Verdicts come back in decision order — accepted requests first, in
// admission order, then the trimmed tail in preference order — and are
// valid until the next SelectRound call on the same scratch.
func (c Config) SelectRound(book *mec.Book, b mec.BSID, reqs []Request, sc *SelectScratch) []Verdict {
	sc.verdicts = sc.verdicts[:0]
	if len(reqs) == 0 {
		return sc.verdicts
	}
	selected := c.selectPerService(reqs, sc)
	total := 0
	for _, r := range selected {
		total += r.RRBs
	}
	if total > int(book.RRB[b]) {
		c.sortByPreference(selected)
	}
	// Alg. 1 lines 22-25 admit strictly in the BS's preference order: the
	// first over-budget request and everything less preferred behind it
	// are trimmed together. (A first-fit variant that kept admitting
	// smaller requests past the first reject would let a less-preferred
	// UE leapfrog a more-preferred one.) Only requests the post-admission
	// book can no longer fit at all are marked Permanent.
	trimmed := false
	for _, r := range selected {
		remCRU, remRRBs := book.Residual(b, r.Service)
		fits := remCRU >= r.CRUs && remRRBs >= r.RRBs
		if !trimmed && fits {
			book.Admit(b, r.Service, r.CRUs, r.RRBs)
			sc.verdicts = append(sc.verdicts, Verdict{Req: r, Accepted: true})
			continue
		}
		trimmed = true
		sc.verdicts = append(sc.verdicts, Verdict{Req: r, Permanent: !fits})
	}
	return sc.verdicts
}

// selectPerService picks, for every service with requesters, the single
// request the BS prefers (Alg. 1 lines 13-21): one pass over the inbox
// keeps each service's running minimum under prefers, by index, so no
// request is copied until the winners are. prefers is a strict total
// order (it ends on the unique UE ID), so the one-pass minimum equals the
// same-SP / f_u / footprint / UE-ID filter chain exactly. Services come
// out in ascending order.
func (c Config) selectPerService(reqs []Request, sc *SelectScratch) []Request {
	sc.touched = sc.touched[:0]
	for i := range reqs {
		j := int(reqs[i].Service)
		for len(sc.best) <= j {
			sc.best = append(sc.best, -1)
		}
		switch k := sc.best[j]; {
		case k < 0:
			sc.best[j] = int32(i)
			sc.touched = append(sc.touched, mec.ServiceID(j))
		case c.prefers(reqs[i], reqs[k]):
			sc.best[j] = int32(i)
		}
	}
	// The touched list is tiny, so an insertion sort avoids sort.Slice's
	// closure allocation.
	for i := 1; i < len(sc.touched); i++ {
		for k := i; k > 0 && sc.touched[k] < sc.touched[k-1]; k-- {
			sc.touched[k], sc.touched[k-1] = sc.touched[k-1], sc.touched[k]
		}
	}
	sc.selected = sc.selected[:0]
	for _, j := range sc.touched {
		sc.selected = append(sc.selected, reqs[sc.best[j]])
		sc.best[j] = -1
	}
	return sc.selected
}

// sortByPreference orders requests most-preferred-first by the BS's
// criteria, for the radio-budget trimming of Alg. 1 lines 22-25.
// Insertion sort: stable, allocation-free, and the per-BS lists it orders
// are at most one entry per service.
func (c Config) sortByPreference(reqs []Request) {
	for i := 1; i < len(reqs); i++ {
		r := reqs[i]
		k := i
		for k > 0 && c.prefers(r, reqs[k-1]) {
			reqs[k] = reqs[k-1]
			k--
		}
		reqs[k] = r
	}
}

// prefers orders two requests by the BS's preference (most preferred
// first): same-SP subscribers first (if enabled), then smallest f_u (if
// enabled), then smallest combined footprint n_{u,i} + c_j^u, then lowest
// UE ID for determinism. The arena encodes this order as an integer
// (selectKey) so its select phase can take per-service minima without
// building a Request per proposal; the two must change together.
func (c Config) prefers(a, b Request) bool {
	if c.SPPriority && a.SameSP != b.SameSP {
		return a.SameSP
	}
	if c.FuTieBreak && a.Fu != b.Fu {
		return a.Fu < b.Fu
	}
	fa := a.RRBs + a.CRUs
	fb := b.RRBs + b.CRUs
	if fa != fb {
		return fa < fb
	}
	return a.UE < b.UE
}

// selectKey is prefers without the UE ID, packed into one integer:
// bit 63 is set for a proposer outside the BS's SP (under SPPriority),
// bits 32-62 hold f_u (under FuTieBreak), and bits 0-31 the footprint
// n_{u,i} + c_j^u. For requests whose f_u, RRBs and CRUs are
// non-negative int32s — the CSR's domain — (selectKey(a), a.UE) <
// (selectKey(b), b.UE) lexicographically exactly when prefers(a, b):
// f_u fits 31 bits and the footprint is at most 2·MaxInt32 < 2^32, so
// no field spills into the next. The arena's propose workers compute it
// while the UE's fields are in cache.
func (c Config) selectKey(sameSP bool, fu, rrbs, crus int32) uint64 {
	k := uint64(uint32(rrbs)) + uint64(uint32(crus))
	if c.FuTieBreak {
		k |= uint64(uint32(fu)) << 32
	}
	if c.SPPriority && !sameSP {
		k |= 1 << 63
	}
	return k
}
