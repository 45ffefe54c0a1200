package engine

import (
	"fmt"

	"dmra/internal/mec"
)

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

// Ledger is the BS-side resource book SelectRound admits against: one BS
// row of the Arena's flat ledger for the synchronous solver, the shared
// mec.State for internal/alloc's naive test reference, or a private
// per-BS ledger (BSLedger) for the message-passing runtimes.
type Ledger interface {
	// Residual returns the BS's remaining CRUs for service j and its
	// remaining RRBs.
	Residual(j mec.ServiceID) (remCRU, remRRBs int)
	// Admit debits r from the ledger. SelectRound only calls it after a
	// Residual feasibility check, so an error is an implementation bug,
	// not a trim.
	Admit(r Request) error
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

// SelectRound runs one BS's full select phase (Alg. 1 lines 11-26) over
// the round's request inbox: per-service selection, the radio-budget
// preference sort, and the strict prefix trim, admitting winners into led.
// Verdicts come back in decision order — accepted requests first, in
// admission order, then the trimmed tail in preference order — and are
// valid until the next SelectRound call on the same scratch.
func (c Config) SelectRound(led Ledger, reqs []Request, sc *SelectScratch) ([]Verdict, error) {
	sc.verdicts = sc.verdicts[:0]
	if len(reqs) == 0 {
		return sc.verdicts, nil
	}
	selected := c.selectPerService(reqs, sc)
	total := 0
	for _, r := range selected {
		total += r.RRBs
	}
	if _, remRRBs := led.Residual(selected[0].Service); total > remRRBs {
		c.sortByPreference(selected)
	}
	// Alg. 1 lines 22-25 admit strictly in the BS's preference order: the
	// first over-budget request and everything less preferred behind it
	// are trimmed together. (A first-fit variant that kept admitting
	// smaller requests past the first reject would let a less-preferred
	// UE leapfrog a more-preferred one.) Only requests the post-admission
	// ledger can no longer fit at all are marked Permanent.
	trimmed := false
	for _, r := range selected {
		remCRU, remRRBs := led.Residual(r.Service)
		fits := remCRU >= r.CRUs && remRRBs >= r.RRBs
		if !trimmed && fits {
			if err := led.Admit(r); err != nil {
				return nil, err
			}
			sc.verdicts = append(sc.verdicts, Verdict{Req: r, Accepted: true})
			continue
		}
		trimmed = true
		sc.verdicts = append(sc.verdicts, Verdict{Req: r, Permanent: !fits})
	}
	return sc.verdicts, nil
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

// BSLedger is a base station's private resource book, used by the
// message-passing runtimes where each BS debits its own copy of the
// capacities rather than a shared state.
type BSLedger struct {
	remCRU []int
	remRRB int
}

// NewBSLedger returns a ledger holding a copy of the BS's capacities.
func NewBSLedger(cruCapacity []int, maxRRBs int) *BSLedger {
	l := &BSLedger{}
	l.Reset(cruCapacity, maxRRBs)
	return l
}

// Reset rewinds the ledger to the given capacities, reusing storage.
func (l *BSLedger) Reset(cruCapacity []int, maxRRBs int) {
	if cap(l.remCRU) < len(cruCapacity) {
		l.remCRU = make([]int, len(cruCapacity))
	}
	l.remCRU = l.remCRU[:len(cruCapacity)]
	copy(l.remCRU, cruCapacity)
	l.remRRB = maxRRBs
}

// Residual implements Ledger.
func (l *BSLedger) Residual(j mec.ServiceID) (remCRU, remRRBs int) {
	return l.remCRU[j], l.remRRB
}

// Admit implements Ledger by debiting the request's demands.
func (l *BSLedger) Admit(r Request) error {
	l.remCRU[r.Service] -= r.CRUs
	l.remRRB -= r.RRBs
	return nil
}

// CheckInvariants reports whether the ledger is in a consistent state: no
// residual may be negative. SelectRound only admits after a feasibility
// check, so a violation means the ledger was corrupted from outside the
// select path (or a driver admitted behind SelectRound's back); the
// message-passing runtimes check after every round and surface the error
// to the coordinator instead of silently serving from a broken book.
func (l *BSLedger) CheckInvariants() error {
	for j, rem := range l.remCRU {
		if rem < 0 {
			return fmt.Errorf("engine: BS ledger invalid: service %d residual CRUs = %d", j, rem)
		}
	}
	if l.remRRB < 0 {
		return fmt.Errorf("engine: BS ledger invalid: residual RRBs = %d", l.remRRB)
	}
	return nil
}

// RemainingCRU returns the live per-service residual slice for the
// broadcast of Alg. 1 line 26. Callers that ship it asynchronously must
// copy it first.
func (l *BSLedger) RemainingCRU() []int { return l.remCRU }

// RemainingRRBs returns the remaining radio blocks.
func (l *BSLedger) RemainingRRBs() int { return l.remRRB }
