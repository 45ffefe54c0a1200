package mec

import (
	"fmt"
	"strings"
)

// NetworkSummary describes a scenario's structure: how contested the
// matching problem is and where its capacity lies. The CLIs print it so a
// user can sanity-check a configuration before reading results.
type NetworkSummary struct {
	SPs, BSs, UEs, Services int
	// CandidateLinks is the number of feasible UE-BS pairs; MeanCoverage
	// the average f_u; Uncovered counts UEs with no candidate at all.
	CandidateLinks int
	MeanCoverage   float64
	Uncovered      int
	// CoverageHistogram[k] counts UEs with f_u == k (last bucket
	// aggregates everything above).
	CoverageHistogram []int
	// TotalRRBs and TotalCRUs are the network's aggregate supply;
	// DemandRRBs and DemandCRUs the population's aggregate demand if every
	// UE were served at its nearest candidate.
	TotalRRBs  int
	TotalCRUs  int
	DemandRRBs int
	DemandCRUs int
	// SameSPLinks counts candidate links between a UE and its own SP's BS.
	SameSPLinks int
}

// RadioLoadFactor returns aggregate nearest-candidate RRB demand over
// supply: above ~1 the network cannot serve everyone at the edge.
func (s NetworkSummary) RadioLoadFactor() float64 {
	if s.TotalRRBs == 0 {
		return 0
	}
	return float64(s.DemandRRBs) / float64(s.TotalRRBs)
}

// Summarize computes the structural summary of a network.
func (n *Network) Summarize() NetworkSummary {
	const histBuckets = 12
	s := NetworkSummary{
		SPs:               len(n.SPs),
		BSs:               len(n.BSs),
		UEs:               len(n.UEs),
		Services:          n.Services,
		CoverageHistogram: make([]int, histBuckets),
	}
	for b := range n.BSs {
		s.TotalRRBs += n.BSs[b].MaxRRBs
		for _, c := range n.BSs[b].CRUCapacity {
			s.TotalCRUs += c
		}
	}
	for u := range n.UEs {
		lo, hi := n.CandRange(UEID(u))
		f := int(hi - lo)
		s.CandidateLinks += f
		s.CoverageHistogram[min(f, histBuckets-1)]++
		if f == 0 {
			s.Uncovered++
			continue
		}
		nearest := lo
		for k := lo; k < hi; k++ {
			if n.csr.SameSP[k] {
				s.SameSPLinks++
			}
			if n.csr.DistanceM[k] < n.csr.DistanceM[nearest] {
				nearest = k
			}
		}
		s.DemandRRBs += int(n.csr.RRBs[nearest])
		s.DemandCRUs += n.UEs[u].CRUDemand
	}
	if s.UEs > 0 {
		s.MeanCoverage = float64(s.CandidateLinks) / float64(s.UEs)
	}
	return s
}

// String renders the summary as a short multi-line block.
func (s NetworkSummary) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%d SPs, %d BSs, %d UEs, %d services\n", s.SPs, s.BSs, s.UEs, s.Services)
	fmt.Fprintf(&b, "candidate links: %d (mean f_u %.1f, %d uncovered, %d same-SP)\n",
		s.CandidateLinks, s.MeanCoverage, s.Uncovered, s.SameSPLinks)
	fmt.Fprintf(&b, "supply: %d RRBs, %d CRUs; nearest-candidate demand: %d RRBs, %d CRUs (radio load %.2f)",
		s.TotalRRBs, s.TotalCRUs, s.DemandRRBs, s.DemandCRUs, s.RadioLoadFactor())
	return b.String()
}
