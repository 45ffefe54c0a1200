package mec

import (
	"math"
	"sync"
)

// CSR is the struct-of-arrays view of a Network's candidate structure: the
// per-UE candidate lists flattened into contiguous arrays in CSR form
// (Off[u]..Off[u+1] delimit UE u's candidates), the per-UE demand fields
// the propose phase reads, and the per-BS capacity rows in one dense
// Services-strided array. Everything the DMRA hot loop touches per
// proposal sits in a handful of flat arrays indexed by dense IDs, so a
// million-UE round walks memory sequentially instead of chasing one
// pointer per UE and one more per candidate list.
//
// A CSR is derived once per Network (lazily, under a sync.Once) and is
// immutable; it aliases nothing mutable, so it is safe for any number of
// concurrent readers — including the parallel propose workers of
// internal/engine.
type CSR struct {
	// Off[u]..Off[u+1] delimit UE u's candidates in the flat arrays below.
	// len(Off) == UEs+1; Off[UEs] is the total candidate-link count.
	Off []int32

	// Per-candidate arrays, parallel to each other, in the same ascending-BS
	// order as Network.Candidates.
	BS     []int32   // candidate BS id
	RRBs   []int32   // n_{u,i} for the link
	Price  []float64 // p_{i,u}
	SameSP []bool    // UE and BS share an SP

	// Per-UE arrays.
	Service []int32 // requested service j
	CRU     []int32 // c_j^u demand
	Fu      []int32 // coverage count f_u

	// Per-BS arrays. CRUCap is Services-strided: CRUCap[b*Services+j] is
	// c_{b,j}.
	CRUCap   []int32
	MaxRRB   []int32
	Services int

	// Lazily built inverted index (see CoverIndex).
	invOnce sync.Once
	bsOff   []int32
	bsUE    []int32
}

// UEs returns the UE population size.
func (c *CSR) UEs() int { return len(c.Off) - 1 }

// BSs returns the base-station count.
func (c *CSR) BSs() int { return len(c.MaxRRB) }

// Links returns the total candidate-link count.
func (c *CSR) Links() int { return int(c.Off[len(c.Off)-1]) }

// CandRange returns the [lo, hi) window of UE u's candidates in the flat
// per-candidate arrays.
func (c *CSR) CandRange(u UEID) (lo, hi int32) {
	return c.Off[u], c.Off[u+1]
}

// FindCand returns the global candidate index of UE u's link to BS b, or
// -1 when b is not a candidate. Candidates are BS-sorted, so the lookup is
// a binary search over u's window.
func (c *CSR) FindCand(u UEID, b BSID) int32 {
	lo, hi := c.Off[u], c.Off[u+1]
	for lo < hi {
		mid := int32(uint32(lo+hi) >> 1)
		if c.BS[mid] < int32(b) {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo < c.Off[u+1] && c.BS[lo] == int32(b) {
		return lo
	}
	return -1
}

// CoverIndex returns the inverted candidate index: off[b]..off[b+1]
// delimit, in ue, the ascending list of UEs that have BS b as a
// candidate. It is the transpose of the Off/BS arrays, built lazily on
// first use (one counting-sort pass over the links) and immutable after
// that — safe for concurrent readers like CSR itself. The incremental
// engine walks it to find the UEs whose cached preferences a ledger
// credit may have invalidated.
func (c *CSR) CoverIndex() (off, ue []int32) {
	c.invOnce.Do(func() {
		nBS := c.BSs()
		c.bsOff = make([]int32, nBS+1)
		c.bsUE = make([]int32, c.Links())
		for _, b := range c.BS {
			c.bsOff[b+1]++
		}
		for b := 0; b < nBS; b++ {
			c.bsOff[b+1] += c.bsOff[b]
		}
		cur := make([]int32, nBS)
		copy(cur, c.bsOff[:nBS])
		// Iterating u ascending keeps each BS's UE list ascending.
		for u := 0; u < c.UEs(); u++ {
			for g := c.Off[u]; g < c.Off[u+1]; g++ {
				b := c.BS[g]
				c.bsUE[cur[b]] = int32(u)
				cur[b]++
			}
		}
	})
	return c.bsOff, c.bsUE
}

// buildCSR flattens net's candidate structure. Called once per Network
// under the csrOnce latch.
func buildCSR(net *Network) *CSR {
	nUE := len(net.UEs)
	total := net.TotalCandidateLinks()
	c := &CSR{
		Off:      make([]int32, nUE+1),
		BS:       make([]int32, total),
		RRBs:     make([]int32, total),
		Price:    make([]float64, total),
		SameSP:   make([]bool, total),
		Service:  make([]int32, nUE),
		CRU:      make([]int32, nUE),
		Fu:       make([]int32, nUE),
		CRUCap:   make([]int32, len(net.BSs)*net.Services),
		MaxRRB:   make([]int32, len(net.BSs)),
		Services: net.Services,
	}
	pos := int32(0)
	for u := range net.UEs {
		c.Off[u] = pos
		for _, l := range net.links[u] {
			c.BS[pos] = int32(l.BS)
			c.RRBs[pos] = int32(l.RRBs)
			c.Price[pos] = l.PricePerCRU
			c.SameSP[pos] = l.SameSP
			pos++
		}
		ue := &net.UEs[u]
		c.Service[u] = int32(ue.Service)
		c.CRU[u] = int32(ue.CRUDemand)
		c.Fu[u] = int32(net.coverCount[u])
	}
	c.Off[nUE] = pos
	for b := range net.BSs {
		bs := &net.BSs[b]
		for j, cap := range bs.CRUCapacity {
			c.CRUCap[b*net.Services+j] = int32(cap)
		}
		c.MaxRRB[b] = int32(bs.MaxRRBs)
	}
	return c
}

// csrState carries the lazily built dense view of a Network. Only
// NewNetwork-built networks get one: a SubView's Network re-aliases its
// link slices on every Refresh, so a cached flat copy would go stale —
// Dense returns nil there. DMRA runs such networks through its naive
// reference; only the baseline allocators and tests hand it SubViews.
type csrState struct {
	eligible bool
	once     sync.Once
	csr      *CSR
}

// Dense returns the network's struct-of-arrays candidate view, building
// it on first use, or nil for networks whose candidate lists can change
// (SubView sessions). The returned CSR is immutable and safe for
// concurrent readers.
func (n *Network) Dense() *CSR {
	if !n.dense.eligible {
		return nil
	}
	n.dense.once.Do(func() {
		// int32 candidate indices cap the flat layout at ~2.1e9 links;
		// beyond that (far past the million-UE target) the naive DMRA
		// reference still works, so degrade instead of overflowing.
		if n.TotalCandidateLinks() <= math.MaxInt32 {
			n.dense.csr = buildCSR(n)
		}
	})
	return n.dense.csr
}
