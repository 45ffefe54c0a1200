package mec

// CSR is a Network's candidate store in struct-of-arrays form: the per-UE
// candidate lists flattened into contiguous columns in CSR form
// (Off[u]..Off[u+1] delimit UE u's candidates), the per-UE demand fields
// the propose phase reads, and the per-BS capacity rows in one dense
// Services-strided array. Everything the DMRA hot loop touches per
// proposal sits in a handful of flat arrays indexed by dense IDs, so a
// million-UE round walks memory sequentially instead of chasing one
// pointer per UE and one more per candidate list.
//
// NewNetwork writes the store once and it is immutable from then on, so
// it is safe for any number of concurrent readers — including the
// parallel propose workers of internal/engine. A SubView's store shares
// the parent's columns and owns only its capacity rows and Active mask.
type CSR struct {
	// Off[u]..Off[u+1] delimit UE u's candidates in the columns below.
	// len(Off) == UEs+1; Off[UEs] is the total candidate-link count.
	Off []int32

	// Per-candidate columns, in ascending BS order per UE.
	columns

	// Per-UE arrays.
	Service []int32 // requested service j
	CRU     []int32 // c_j^u demand
	Fu      []int32 // coverage count f_u

	// Per-BS capacity rows. CRUCap is Services-strided: CRUCap[b*Services+j]
	// is c_{b,j}.
	CRUCap   []int32
	MaxRRB   []int32
	Services int

	// Active, when non-nil, restricts the network to a SubView's active
	// UEs: CandRange and FindCand see no candidates for a UE with
	// Active[u] false. Nil means every UE is active.
	Active []bool
}

// columns are the per-candidate arrays of a CSR, parallel to each other.
type columns struct {
	BS        []int32   // candidate BS id
	RRBs      []int32   // n_{u,i} for the link
	Price     []float64 // p_{i,u}
	SameSP    []bool    // UE and BS share an SP
	DistanceM []float64 // d_{i,u} in metres
	SINR      []float64 // lambda_{u,i}, linear
}

// makeColumns returns columns of n zeroed candidates with room for
// capacity.
func makeColumns(n, capacity int) columns {
	return columns{
		BS:        make([]int32, n, capacity),
		RRBs:      make([]int32, n, capacity),
		Price:     make([]float64, n, capacity),
		SameSP:    make([]bool, n, capacity),
		DistanceM: make([]float64, n, capacity),
		SINR:      make([]float64, n, capacity),
	}
}

// copyFrom copies src's candidates [lo, hi) to c starting at index at.
func (c *columns) copyFrom(at int, src *columns, lo, hi int) {
	copy(c.BS[at:], src.BS[lo:hi])
	copy(c.RRBs[at:], src.RRBs[lo:hi])
	copy(c.Price[at:], src.Price[lo:hi])
	copy(c.SameSP[at:], src.SameSP[lo:hi])
	copy(c.DistanceM[at:], src.DistanceM[lo:hi])
	copy(c.SINR[at:], src.SINR[lo:hi])
}

// UEs returns the UE population size.
func (c *CSR) UEs() int { return len(c.Off) - 1 }

// BSs returns the base-station count.
func (c *CSR) BSs() int { return len(c.MaxRRB) }

// Links returns the total candidate-link count, inactive UEs' included.
func (c *CSR) Links() int { return int(c.Off[len(c.Off)-1]) }

// CandRange returns the [lo, hi) window of UE u's candidates in the flat
// per-candidate columns; the window is empty for a UE outside the Active
// mask.
func (c *CSR) CandRange(u UEID) (lo, hi int32) {
	if c.Active != nil && !c.Active[u] {
		return c.Off[u], c.Off[u]
	}
	return c.Off[u], c.Off[u+1]
}

// FindCand returns the global candidate index of UE u's link to BS b, or
// -1 when b is not a candidate (an ID outside [0, BSs()) included).
// Candidates are BS-sorted, so the lookup is a binary search over u's
// window.
func (c *CSR) FindCand(u UEID, b BSID) int32 {
	if b < 0 || int(b) >= c.BSs() {
		return -1
	}
	lo, end := c.CandRange(u)
	hi := end
	for lo < hi {
		mid := int32(uint32(lo+hi) >> 1)
		if c.BS[mid] < int32(b) {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo < end && c.BS[lo] == int32(b) {
		return lo
	}
	return -1
}

// CRURow returns BS b's capacity row, one entry per service.
func (c *CSR) CRURow(b BSID) []int32 {
	return c.CRUCap[int(b)*c.Services : (int(b)+1)*c.Services]
}
