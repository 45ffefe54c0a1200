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

// ViewTable holds the UE-local resource views of a message-passing run.
// Initial views come from the deployment-time capacity announcement
// (Alg. 1 assumes B_u and capacities known); afterwards a UE learns only
// through the ResourceBroadcast messages of Alg. 1 line 26, applied via
// ApplyBroadcast. A broadcast carries the BS's current residuals, which
// never grow within a run, so every view is monotone non-increasing —
// the property the Proposer's eager drops rely on. A missed reception
// leaves a view stale: at or above the BS's true residuals, never below.
//
// The views are flat: UE u owns the slots off[u]..off[u+1], one per
// candidate in net.Candidates(u) order (BS-sorted), so the Proposer
// reads UE u's view of candidate k at slot off[u]+k. Each BS keeps the
// slots of the UEs it covers, so a broadcast is one pass over a dense
// list. A UE only ever requests its own service, so its view of a BS
// mirrors that service's CRUs alone.
type ViewTable struct {
	// off[u] is the first slot of UE u; off[len(UEs)] is the slot count.
	off []int
	// views[s] mirrors slot s's BS resources as last broadcast.
	views []slotView
	// covered[b] lists the UEs that can hear BS b's broadcasts, in
	// ascending UE order; refs[b][i] locates covered[b][i]'s view of b.
	covered [][]mec.UEID
	refs    [][]coverRef
}

// NewViewTable builds the initial views over net's candidate lists.
func NewViewTable(net *mec.Network) *ViewTable {
	t := &ViewTable{
		off:     make([]int, len(net.UEs)+1),
		covered: make([][]mec.UEID, len(net.BSs)),
		refs:    make([][]coverRef, len(net.BSs)),
	}
	perBS := make([]int, len(net.BSs))
	for u := range net.UEs {
		cands := net.Candidates(mec.UEID(u))
		t.off[u+1] = t.off[u] + len(cands)
		for _, l := range cands {
			perBS[l.BS]++
		}
	}
	slots := t.off[len(net.UEs)]
	t.views = make([]slotView, slots)
	// The per-BS lists are windows of two shared backing arrays.
	ues := make([]mec.UEID, slots)
	refs := make([]coverRef, slots)
	start := 0
	for b, n := range perBS {
		t.covered[b] = ues[start : start : start+n]
		t.refs[b] = refs[start : start : start+n]
		start += n
	}
	for u := range net.UEs {
		svc := net.UEs[u].Service
		for k, l := range net.Candidates(mec.UEID(u)) {
			s := t.off[u] + k
			bs := &net.BSs[l.BS]
			t.views[s] = slotView{cru: bs.CRUCapacity[svc], rrb: bs.MaxRRBs}
			t.covered[l.BS] = append(t.covered[l.BS], mec.UEID(u))
			t.refs[l.BS] = append(t.refs[l.BS], coverRef{slot: int32(s), svc: int32(svc)})
		}
	}
	return t
}

// Covered returns the UEs in BS b's broadcast range, in ascending order.
// The slice is owned by the table and must not be modified.
func (t *ViewTable) Covered(b mec.BSID) []mec.UEID { return t.covered[b] }

// ApplyBroadcast updates the receivers' views of BS b to the broadcast
// resources. Receivers is the subset of Covered(b) whose reception
// succeeded, best passed in Covered order (then each receiver costs one
// comparison; others cost a binary search); UEs outside Covered(b) are
// ignored.
func (t *ViewTable) ApplyBroadcast(b mec.BSID, remCRU []int, remRRBs int, receivers []mec.UEID) {
	cov, refs := t.covered[b], t.refs[b]
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
		t.views[r.slot] = slotView{cru: remCRU[r.svc], rrb: remRRBs}
		i++
	}
}

// CandidateResidual implements ResidualView: UE u's view of its k-th
// candidate, read straight from slot off[u]+k.
func (t *ViewTable) CandidateResidual(u mec.UEID, k int) (remCRU, remRRBs int) {
	sv := t.views[t.off[u]+k]
	return sv.cru, sv.rrb
}
