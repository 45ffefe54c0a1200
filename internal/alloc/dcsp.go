package alloc

import (
	"fmt"
	"math"
	"sort"

	"dmra/internal/mec"
)

// DCSP is the Decentralized Collaboration Service Placement comparison
// scheme of §VI-B (Yu et al., GLOBECOM 2018): each iteration a UE proposes
// to the reachable BS with the lowest resource occupation, and a BS accepts
// the proposing UE with the smallest coverage count, breaking ties by least
// radio demand.
type DCSP struct{}

var _ Allocator = (*DCSP)(nil)

// NewDCSP returns the DCSP comparison allocator.
func NewDCSP() *DCSP { return &DCSP{} }

// Name implements Allocator.
func (a *DCSP) Name() string { return "DCSP" }

// Occupation returns the fraction of BS b's combined CRU+RRB pool in use,
// the quantity DCSP's UEs minimize.
func Occupation(s *mec.State, b mec.BSID) float64 {
	csr := s.Network().Dense()
	capTotal := int(csr.MaxRRB[b])
	for _, c := range csr.CRURow(b) {
		capTotal += int(c)
	}
	if capTotal == 0 {
		return 1
	}
	book := s.Book()
	rem := int(book.RRB[b])
	for _, c := range book.Row(b) {
		rem += int(c)
	}
	return 1 - float64(rem)/float64(capTotal)
}

// Allocate implements Allocator.
func (a *DCSP) Allocate(net *mec.Network) (Result, error) {
	state := mec.NewState(net)
	cands := newCandidateSet(net)
	var stats Stats

	inbox := make([][]dcspRequest, len(net.BSs))
	for {
		stats.Iterations++

		anyRequest := false
		for u := range net.UEs {
			uid := mec.UEID(u)
			if state.Assigned(uid) {
				continue
			}
			for !cands.empty(uid) {
				pos, link, ok := lowestOccupationCandidate(state, cands, uid)
				if !ok {
					break
				}
				if state.CanServe(uid, link.BS) {
					inbox[link.BS] = append(inbox[link.BS], dcspRequest{
						Link: link,
						Fu:   net.CoverCount(uid),
					})
					stats.Proposals++
					anyRequest = true
					break
				}
				cands.dropIdx(uid, pos)
			}
		}
		if !anyRequest {
			break
		}

		for b := range net.BSs {
			reqs := inbox[b]
			if len(reqs) == 0 {
				continue
			}
			inbox[b] = nil
			// BS side: smallest coverage count, then least radio demand,
			// then lowest UE ID; one acceptance per BS per iteration.
			best := reqs[0]
			for _, r := range reqs[1:] {
				if dcspPrefers(r, best) {
					best = r
				}
			}
			if err := state.Assign(best.Link.UE, best.Link.BS); err != nil {
				stats.Rejects++
				continue
			}
			stats.Accepts++
		}

		if stats.Iterations > len(net.UEs)+1 {
			return Result{}, fmt.Errorf("alloc: DCSP exceeded %d iterations", len(net.UEs)+1)
		}
	}

	if err := state.CheckInvariants(); err != nil {
		return Result{}, fmt.Errorf("alloc: DCSP produced invalid state: %w", err)
	}
	return Result{Assignment: state.Snapshot(), Stats: stats}, nil
}

// dcspRequest is DCSP's own proposal shape: the scheme predates the
// flattened engine.Request and selects on the raw link.
type dcspRequest struct {
	Link mec.Link
	// Fu is f_u, the number of BSs covering the UE.
	Fu int
}

func dcspPrefers(a, b dcspRequest) bool {
	if a.Fu != b.Fu {
		return a.Fu < b.Fu
	}
	if a.Link.RRBs != b.Link.RRBs {
		return a.Link.RRBs < b.Link.RRBs
	}
	return a.Link.UE < b.Link.UE
}

func lowestOccupationCandidate(s *mec.State, cands *candidateSet, u mec.UEID) (int, mec.Link, bool) {
	bestPos := -1
	var bestLink mec.Link
	bestOcc := math.Inf(1)
	cands.forEach(s.Network(), u, func(pos int, l mec.Link) {
		if occ := Occupation(s, l.BS); occ < bestOcc {
			bestOcc, bestPos, bestLink = occ, pos, l
		}
	})
	if bestPos < 0 {
		return 0, mec.Link{}, false
	}
	return bestPos, bestLink, true
}

// NonCo is the non-collaborative comparison scheme of §VI-B: each UE
// proposes once, to the reachable BS with the maximum uplink SINR; each BS
// admits its proposers in order of increasing RRB consumption while
// resources last. There is no renegotiation ("the collaboration of BSs is
// not taken into consideration"): a UE rejected by its max-SINR BS is
// forwarded to the cloud even if a neighbouring BS has spare capacity.
type NonCo struct{}

var _ Allocator = (*NonCo)(nil)

// NewNonCo returns the NonCo comparison allocator.
func NewNonCo() *NonCo { return &NonCo{} }

// Name implements Allocator.
func (a *NonCo) Name() string { return "NonCo" }

// Allocate implements Allocator.
func (a *NonCo) Allocate(net *mec.Network) (Result, error) {
	state := mec.NewState(net)
	stats := Stats{Iterations: 1}

	// Single propose round: every UE contacts its max-SINR candidate.
	inbox := make([][]mec.Link, len(net.BSs))
	sinr := net.Dense().SINR
	for u := range net.UEs {
		uid := mec.UEID(u)
		lo, hi := net.CandRange(uid)
		if lo == hi {
			continue
		}
		best := lo
		for k := lo + 1; k < hi; k++ {
			if sinr[k] > sinr[best] {
				best = k
			}
		}
		l := net.LinkAt(uid, best)
		inbox[l.BS] = append(inbox[l.BS], l)
		stats.Proposals++
	}

	// Single admit round: fewest-RRB proposers first.
	for b := range net.BSs {
		reqs := inbox[b]
		sort.SliceStable(reqs, func(i, j int) bool {
			if reqs[i].RRBs != reqs[j].RRBs {
				return reqs[i].RRBs < reqs[j].RRBs
			}
			return reqs[i].UE < reqs[j].UE
		})
		for _, l := range reqs {
			if !state.CanServe(l.UE, l.BS) {
				stats.Rejects++
				continue
			}
			if err := state.Assign(l.UE, l.BS); err != nil {
				return Result{}, fmt.Errorf("alloc: NonCo: %w", err)
			}
			stats.Accepts++
		}
	}

	if err := state.CheckInvariants(); err != nil {
		return Result{}, fmt.Errorf("alloc: NonCo produced invalid state: %w", err)
	}
	return Result{Assignment: state.Snapshot(), Stats: stats}, nil
}
