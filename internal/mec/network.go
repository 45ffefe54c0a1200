package mec

import (
	"errors"
	"fmt"
	"math"
	"runtime"
	"sync"
	"sync/atomic"

	"dmra/internal/geo"
	"dmra/internal/radio"
)

// Link is one reachable, service-compatible UE-BS pair with its
// precomputed radio and pricing quantities. The network stores its
// candidates as columns (see CSR); LinkAt and Link assemble a Link value
// from them on demand.
type Link struct {
	UE UEID
	BS BSID
	// DistanceM is d_{i,u} in metres.
	DistanceM float64
	// RRBs is n_{u,i} (Eq. 3): radio blocks the BS must allocate.
	RRBs int
	// PricePerCRU is p_{i,u} (Eq. 9-10).
	PricePerCRU float64
	// SameSP records whether the UE and BS belong to the same SP.
	SameSP bool
	// SINR is lambda_{u,i} (linear), including the link's shadowing draw
	// when enabled; NonCo ranks candidates by it.
	SINR float64
}

// Network is an immutable scenario: the entity sets of Table I plus every
// derived per-link quantity. Build one with NewNetwork and share it freely;
// all methods are safe for concurrent readers.
//
// BSs describe the deployment. The capacities an allocation over the
// network draws on are the capacity rows of Dense(): the BSs' own for a
// NewNetwork network, the live residuals for a SubView's.
type Network struct {
	SPs      []SP
	BSs      []BS
	UEs      []UE
	Services int
	Radio    radio.Config
	Pricing  Pricing

	// csr is the candidate store: B_u (the BSs that cover u and host its
	// service, in BS order) with every per-link quantity, f_u, and the
	// capacity rows.
	csr CSR
}

// NewNetwork validates the scenario and precomputes per-link radio and
// pricing state. It returns an error for structurally invalid scenarios
// (bad references, capacity/pricing violations of Eq. 16, invalid radio
// parameters, capacities or demands past the store's int32 rows, more
// candidate links than int32 indices address).
func NewNetwork(sps []SP, bss []BS, ues []UE, services int, rc radio.Config, pr Pricing) (*Network, error) {
	networkBuilds.Add(1)
	n := &Network{
		SPs:      sps,
		BSs:      bss,
		UEs:      ues,
		Services: services,
		Radio:    rc,
		Pricing:  pr,
	}
	if err := n.validate(); err != nil {
		return nil, err
	}
	if err := n.buildLinks(); err != nil {
		return nil, err
	}
	return n, nil
}

func (n *Network) validate() error {
	if err := n.Radio.Validate(); err != nil {
		return err
	}
	if err := n.Pricing.Validate(); err != nil {
		return err
	}
	if len(n.SPs) == 0 {
		return errors.New("mec: scenario has no SPs")
	}
	if n.Services <= 0 {
		return fmt.Errorf("mec: scenario has %d services, want > 0", n.Services)
	}
	for i, sp := range n.SPs {
		if sp.ID != SPID(i) {
			return fmt.Errorf("mec: SP at index %d has ID %d", i, sp.ID)
		}
		if sp.CRUPrice <= 0 || !finite(sp.CRUPrice) {
			return fmt.Errorf("mec: SP %d has CRU price %g, want positive and finite", i, sp.CRUPrice)
		}
		if sp.OtherCostPerCRU < 0 || !finite(sp.OtherCostPerCRU) {
			return fmt.Errorf("mec: SP %d has other-cost %g, want non-negative and finite", i, sp.OtherCostPerCRU)
		}
	}
	for i := range n.BSs {
		bs := &n.BSs[i]
		if bs.ID != BSID(i) {
			return fmt.Errorf("mec: BS at index %d has ID %d", i, bs.ID)
		}
		if int(bs.SP) < 0 || int(bs.SP) >= len(n.SPs) {
			return fmt.Errorf("mec: BS %d references unknown SP %d", i, bs.SP)
		}
		if !finite(bs.Pos.X) || !finite(bs.Pos.Y) {
			return fmt.Errorf("mec: BS %d at non-finite position (%g, %g)", i, bs.Pos.X, bs.Pos.Y)
		}
		if len(bs.CRUCapacity) != n.Services {
			return fmt.Errorf("mec: BS %d has %d capacity entries, want %d", i, len(bs.CRUCapacity), n.Services)
		}
		for j, c := range bs.CRUCapacity {
			if c < 0 {
				return fmt.Errorf("mec: BS %d service %d has negative capacity %d", i, j, c)
			}
			if c > math.MaxInt32 {
				return fmt.Errorf("mec: BS %d service %d has capacity %d above %d", i, j, c, math.MaxInt32)
			}
		}
		if bs.MaxRRBs <= 0 || bs.MaxRRBs > math.MaxInt32 {
			return fmt.Errorf("mec: BS %d has RRB budget %d outside [1, %d]", i, bs.MaxRRBs, math.MaxInt32)
		}
	}
	for i := range n.UEs {
		ue := &n.UEs[i]
		if ue.ID != UEID(i) {
			return fmt.Errorf("mec: UE at index %d has ID %d", i, ue.ID)
		}
		if int(ue.SP) < 0 || int(ue.SP) >= len(n.SPs) {
			return fmt.Errorf("mec: UE %d references unknown SP %d", i, ue.SP)
		}
		if int(ue.Service) < 0 || int(ue.Service) >= n.Services {
			return fmt.Errorf("mec: UE %d requests unknown service %d", i, ue.Service)
		}
		if ue.CRUDemand <= 0 || ue.CRUDemand > math.MaxInt32 {
			return fmt.Errorf("mec: UE %d has CRU demand %d outside [1, %d]", i, ue.CRUDemand, math.MaxInt32)
		}
		if ue.RateBps <= 0 || !finite(ue.RateBps) {
			return fmt.Errorf("mec: UE %d has rate %g, want positive and finite", i, ue.RateBps)
		}
		if !finite(ue.Pos.X) || !finite(ue.Pos.Y) {
			return fmt.Errorf("mec: UE %d at non-finite position (%g, %g)", i, ue.Pos.X, ue.Pos.Y)
		}
	}
	return nil
}

// buildLinks writes the candidate store: the per-UE and per-BS rows,
// then B_u, f_u and the per-link quantities of every reachable
// service-compatible pair, enforcing the SP-profitability constraint
// (Eq. 16) on every candidate link.
//
// Instead of the all-pairs O(|UE|*|BS|) distance scan, BS positions go
// into a uniform spatial grid (cell size = coverage radius) and each UE
// examines only nearby cells, so per-UE work is proportional to local
// coverage density. Large populations fan contiguous chunks of UEs across
// a worker pool: each worker appends its chunks' candidates to columns of
// its own, candidate BSs are visited in ascending BS order, and the chunks
// are then copied into the store in UE order. The store is therefore
// byte-identical to the sequential brute-force build at any GOMAXPROCS,
// and the error returned is the lowest-index UE's, exactly what the
// sequential loop would surface first.
func (n *Network) buildLinks() error {
	nUE, nBS := len(n.UEs), len(n.BSs)
	c := &n.csr
	c.Services = n.Services
	c.Off = make([]int32, nUE+1)
	c.Service = make([]int32, nUE)
	c.CRU = make([]int32, nUE)
	for u := range n.UEs {
		c.Service[u] = int32(n.UEs[u].Service)
		c.CRU[u] = int32(n.UEs[u].CRUDemand)
	}
	c.CRUCap = make([]int32, nBS*n.Services)
	c.MaxRRB = make([]int32, nBS)
	for b := range n.BSs {
		for j, cap := range n.BSs[b].CRUCapacity {
			c.CRUCap[b*n.Services+j] = int32(cap)
		}
		c.MaxRRB[b] = int32(n.BSs[b].MaxRRBs)
	}
	c.Fu = make([]int32, nUE)
	if nUE == 0 || nBS == 0 {
		return nil
	}
	pts := make([]geo.Point, nBS)
	for b := range n.BSs {
		pts[b] = n.BSs[b].Pos
	}
	grid, err := geo.NewGridIndex(pts, n.Radio.CoverageRadiusM)
	if err != nil {
		return fmt.Errorf("mec: index BSs: %w", err)
	}
	kern := n.Radio.LinkKernel()

	// chunks[i] covers UEs [i*buildChunk, (i+1)*buildChunk): the worker
	// whose columns hold its candidates, their span there, its first
	// error, and its offset in the store.
	type chunk struct {
		w, lo, hi, at int
		err           error
	}
	chunks := make([]chunk, (nUE+buildChunk-1)/buildChunk)
	workers := runtime.GOMAXPROCS(0)
	if w := nUE * nBS / parallelBuildThreshold; w < workers {
		workers = w
	}
	workers = max(1, min(workers, len(chunks)))
	// Each worker's columns start sized for ~8 candidates per UE of its
	// share (above the dense-city mean of ~7), so the common case never
	// regrows them.
	share := min(nUE, (len(chunks)+workers-1)/workers*buildChunk)
	cols := make([]columns, workers)
	for w := range cols {
		cols[w] = makeColumns(0, 8*share)
	}
	scratch := make([]buildScratch, workers)
	parallel(workers, len(chunks), func(w, i int) {
		// Append to local copies: the workers' column and scratch headers
		// share cache lines, so writing them per candidate would
		// ping-pong them.
		ws, sc := cols[w], scratch[w]
		ch := chunk{w: w, lo: len(ws.BS)}
		for u := i * buildChunk; u < min(nUE, (i+1)*buildChunk) && ch.err == nil; u++ {
			ch.err = n.buildUE(u, grid, kern, &sc, &ws)
		}
		ch.hi = len(ws.BS)
		cols[w], scratch[w], chunks[i] = ws, sc, ch
	})

	total := 0
	for i := range chunks {
		if chunks[i].err != nil {
			return chunks[i].err
		}
		chunks[i].at = total
		total += chunks[i].hi - chunks[i].lo
	}
	// int32 candidate indices address at most MaxInt32 links.
	if total > math.MaxInt32 {
		return fmt.Errorf("mec: %d candidate links exceed the %d an int32 index addresses", total, math.MaxInt32)
	}
	c.columns = makeColumns(total, total)
	parallel(workers, len(chunks), func(_, i int) {
		ch := &chunks[i]
		c.columns.copyFrom(ch.at, &cols[ch.w], ch.lo, ch.hi)
		off := int32(ch.at)
		for u := i * buildChunk; u < min(nUE, (i+1)*buildChunk); u++ {
			off += c.Fu[u]
			c.Off[u+1] = off
		}
	})
	return nil
}

// parallel calls fn(w, i) for every i in [0, n), handing the indices out
// in ascending order to workers goroutines (the caller's among them); w
// identifies the goroutine.
func parallel(workers, n int, fn func(w, i int)) {
	var next atomic.Int64
	work := func(w int) {
		for i := int(next.Add(1)) - 1; i < n; i = int(next.Add(1)) - 1 {
			fn(w, i)
		}
	}
	var wg sync.WaitGroup
	for w := 1; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			work(w)
		}()
	}
	work(0)
	wg.Wait()
}

// parallelBuildThreshold is the UE*BS product below which buildLinks runs
// sequentially: tiny scenarios finish faster than goroutines spin up.
const parallelBuildThreshold = 1 << 14

// buildChunk is the number of UEs a build worker claims at a time.
const buildChunk = 1024

// buildScratch is a build worker's per-UE scratch: the BSs the grid
// query gathers, and the hosting, covering ones among them with their
// distances.
type buildScratch struct {
	near  []int32
	cover []coveringBS
}

type coveringBS struct {
	b int32
	d float64
}

// buildUE appends UE u's candidates to cols in ascending BS order — the
// order FindCand's binary search and the allocators' tie-breaking both
// rely on — and records their count as f_u. The grid's cell window
// gathers about three times as many BSs as host u's service within
// coverage, so only those survivors are sorted and priced: the radio
// kernel then runs in ascending BS order, and the Eq. 16 error names the
// first violating BS the brute-force scan would meet.
func (n *Network) buildUE(u int, grid *geo.GridIndex, kern radio.LinkKernel, sc *buildScratch, cols *columns) error {
	ue := &n.UEs[u]
	sp := &n.SPs[ue.SP]
	c := &n.csr
	radius := n.Radio.CoverageRadiusM
	sc.near = grid.Near(ue.Pos, radius, sc.near[:0])
	cover := sc.cover[:0]
	for _, b := range sc.near {
		// BS.Hosts, read from the store's dense capacity rows instead of
		// chasing a pointer into each BS's capacity slice.
		if c.CRUCap[int(b)*c.Services+int(ue.Service)] == 0 {
			continue
		}
		// radio.Config.Covers on the hoisted radius: the method's value
		// receiver would copy the whole config per gathered BS.
		if d := ue.Pos.DistanceTo(n.BSs[b].Pos); d <= radius {
			cover = append(cover, coveringBS{b, d})
		}
	}
	sc.cover = cover
	// Insertion sort: a handful of entries, already ascending within
	// each cell row.
	for i := 1; i < len(cover); i++ {
		for j := i; j > 0 && cover[j].b < cover[j-1].b; j-- {
			cover[j], cover[j-1] = cover[j-1], cover[j]
		}
	}
	count := int32(0)
	for _, cb := range cover {
		b, d := int(cb.b), cb.d
		sinr, rrbs, err := kern.Budget(d, ue.RateBps, n.Radio.ShadowDB(u, b))
		if err != nil {
			// Covered but rate-unreachable: treat as out of range.
			continue
		}
		if rrbs > int(c.MaxRRB[b]) {
			// The UE alone would exceed the BS's whole radio budget.
			continue
		}
		bs := &n.BSs[b]
		price := n.PricePerCRU(ue.SP == bs.SP, d)
		if sp.CRUPrice <= price+sp.OtherCostPerCRU {
			return fmt.Errorf(
				"mec: Eq. 16 violated: SP %d price %g <= p_{%d,%d} %g + other cost %g",
				ue.SP, sp.CRUPrice, b, u, price, sp.OtherCostPerCRU)
		}
		cols.BS = append(cols.BS, cb.b)
		cols.RRBs = append(cols.RRBs, int32(rrbs))
		cols.Price = append(cols.Price, price)
		cols.SameSP = append(cols.SameSP, ue.SP == bs.SP)
		cols.DistanceM = append(cols.DistanceM, d)
		cols.SINR = append(cols.SINR, sinr)
		count++
	}
	c.Fu[u] = count
	return nil
}

// PricePerCRU evaluates Eq. 9-10 for a (sameSP, distance) pair.
func (n *Network) PricePerCRU(sameSP bool, distanceM float64) float64 {
	b := n.Pricing.BasePrice
	base := n.Pricing.CrossSPFactor * b
	if sameSP {
		base = b
	}
	var dist float64
	if n.Pricing.Law == DistanceLinear {
		dist = n.Pricing.DistanceSigma * distanceM
	} else {
		dist = math.Pow(distanceM, n.Pricing.DistanceSigma)
	}
	return base + dist*b
}

// Dense returns the network's candidate store. It is immutable for a
// NewNetwork network and safe for concurrent readers.
func (n *Network) Dense() *CSR { return &n.csr }

// CandRange returns the [lo, hi) window of UE u's candidates in the
// store's per-candidate columns; see CSR.CandRange.
func (n *Network) CandRange(u UEID) (lo, hi int32) { return n.csr.CandRange(u) }

// LinkAt assembles the candidate link at global index k, which must lie
// in CandRange(u).
func (n *Network) LinkAt(u UEID, k int32) Link {
	c := &n.csr
	return Link{
		UE:          u,
		BS:          BSID(c.BS[k]),
		DistanceM:   c.DistanceM[k],
		RRBs:        int(c.RRBs[k]),
		PricePerCRU: c.Price[k],
		SameSP:      c.SameSP[k],
		SINR:        c.SINR[k],
	}
}

// Link returns the precomputed link between UE u and BS b, if b is one of
// u's candidates: a binary search over u's BS-sorted window.
func (n *Network) Link(u UEID, b BSID) (Link, bool) {
	k := n.csr.FindCand(u, b)
	if k < 0 {
		return Link{}, false
	}
	return n.LinkAt(u, k), true
}

// CoverCount returns f_u: the number of BSs that cover UE u and host its
// requested service.
func (n *Network) CoverCount(u UEID) int {
	return int(n.csr.Fu[u])
}
