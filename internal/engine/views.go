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

// ViewTable holds the UE-local resource views and per-BS broadcast
// version counters of a message-passing run. Initial views come from the
// deployment-time capacity announcement (Alg. 1 assumes B_u and
// capacities known); afterwards a UE learns only through the
// ResourceBroadcast messages of Alg. 1 line 26, applied via
// ApplyBroadcast. The version counters are what the PrefScorer keys its
// cache on: a BS's cached Eq. 17 score is re-evaluated only after a new
// broadcast has been applied.
//
// The views are flat: UE u owns the slots off[u]..off[u+1], one per
// candidate in net.Candidates(u) order (BS-sorted), and each BS keeps the
// slots of the UEs it covers, so a broadcast is one pass over a dense
// list. A UE only ever requests its own service, so its view of a BS
// mirrors that service's CRUs alone.
type ViewTable struct {
	// off[u] is the first slot of UE u; off[len(UEs)] is the slot count.
	off []int
	// bs[s] is the candidate BS of slot s.
	bs []mec.BSID
	// views[s] mirrors slot s's BS resources as last broadcast.
	views []slotView
	// vers[b] counts applied broadcasts of BS b.
	vers []uint64
	// covered[b] lists the UEs that can hear BS b's broadcasts, in
	// ascending UE order; refs[b][i] locates covered[b][i]'s view of b.
	covered [][]mec.UEID
	refs    [][]coverRef
}

// NewViewTable builds the initial views over net's candidate lists.
func NewViewTable(net *mec.Network) *ViewTable {
	t := &ViewTable{
		off:     make([]int, len(net.UEs)+1),
		vers:    make([]uint64, len(net.BSs)),
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
	t.bs = make([]mec.BSID, slots)
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
			t.bs[s] = l.BS
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
// resources and bumps b's version counter. Receivers is the subset of
// Covered(b) whose reception succeeded, best passed in Covered order
// (then each receiver costs one comparison; others cost a binary search);
// UEs outside Covered(b) are ignored. The version advances regardless,
// which is conservative under loss — a UE that missed the reception
// re-scores its unchanged view, a wasted but correct evaluation, never a
// stale result.
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
	t.vers[b]++
}

// UE returns UE u's ResidualView over the table. Store the value and pass
// its address where a ResidualView is needed; the pointer conversion does
// not allocate.
func (t *ViewTable) UE(u mec.UEID) UEView {
	return UEView{t: t, lo: t.off[u], hi: t.off[u+1]}
}

// UEView adapts one UE's slots of a ViewTable to the ResidualView the
// preference cache scores against.
type UEView struct {
	t      *ViewTable
	lo, hi int
}

// Residual implements ResidualView over the UE's local views. j must be
// the UE's own service, the only one its views mirror; a BS outside the
// UE's candidates reads as exhausted.
func (v *UEView) Residual(b mec.BSID, j mec.ServiceID) (remCRU, remRRBs int) {
	k, found := slices.BinarySearch(v.t.bs[v.lo:v.hi], b)
	if !found {
		return 0, 0
	}
	sv := v.t.views[v.lo+k]
	return sv.cru, sv.rrb
}

// ResidualVersion implements ResidualView.
func (v *UEView) ResidualVersion(b mec.BSID) uint64 { return v.t.vers[b] }
