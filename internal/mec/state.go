package mec

import (
	"errors"
	"fmt"
	"slices"
)

// Assignment is the outcome of an allocation: for every UE, the serving BS
// or CloudBS. It is the a_{u,i} decision variable of the TPM problem in
// dense form.
type Assignment struct {
	// ServingBS[u] is the BS serving UE u, or CloudBS if the task was
	// forwarded to the remote cloud.
	ServingBS []BSID
}

// NewAssignment returns an all-cloud assignment for n UEs.
func NewAssignment(n int) Assignment {
	a := Assignment{ServingBS: make([]BSID, n)}
	for i := range a.ServingBS {
		a.ServingBS[i] = CloudBS
	}
	return a
}

// ServedCount returns the number of UEs served at the edge.
func (a Assignment) ServedCount() int {
	c := 0
	for _, b := range a.ServingBS {
		if b != CloudBS {
			c++
		}
	}
	return c
}

// CloudCount returns the number of UEs forwarded to the remote cloud.
func (a Assignment) CloudCount() int {
	return len(a.ServingBS) - a.ServedCount()
}

// Clone returns a deep copy of the assignment.
func (a Assignment) Clone() Assignment {
	c := Assignment{ServingBS: make([]BSID, len(a.ServingBS))}
	copy(c.ServingBS, a.ServingBS)
	return c
}

// State tracks the mutable resource ledger of an allocation in progress:
// remaining CRUs per (BS, service), remaining RRBs per BS (starting from
// the capacity rows of the network's store), and the current partial
// assignment. Allocators must route every grant through Assign so
// that the capacity constraints (Eq. 12, 14) can never be violated.
type State struct {
	net *Network
	// remCRU and remRRB are the residual rows, shaped like the store's
	// CRUCap and MaxRRB: remCRU[b*Services+j] is c_{b,j} minus the CRUs
	// already granted, remRRB[b] is N_b minus the RRBs already granted.
	remCRU []int32
	remRRB []int32
	// assignment is the current partial matching.
	assignment Assignment
	// rrbsUsed[u] records the RRBs granted to UE u (for release).
	rrbsUsed []int
	// use is CheckInvariants' recount scratch, reused so steady-state
	// verification is allocation-free.
	use Usage
}

// NewState returns a fresh ledger over net with all resources available
// and every UE unassigned.
func NewState(net *Network) *State {
	s := &State{}
	s.Reset(net)
	return s
}

// Reset rewinds the ledger to the all-available, all-unassigned start
// state over net, reusing the existing backing storage when the scenario
// shapes match. Allocators that pool their run state call this instead of
// NewState to keep repeated runs allocation-free.
func (s *State) Reset(net *Network) {
	s.net = net
	s.remCRU = append(s.remCRU[:0], net.csr.CRUCap...)
	s.remRRB = append(s.remRRB[:0], net.csr.MaxRRB...)
	if len(s.rrbsUsed) != len(net.UEs) {
		s.assignment = NewAssignment(len(net.UEs))
		s.rrbsUsed = make([]int, len(net.UEs))
		return
	}
	for u := range s.rrbsUsed {
		s.assignment.ServingBS[u] = CloudBS
		s.rrbsUsed[u] = 0
	}
}

// Network returns the immutable scenario this state allocates over.
func (s *State) Network() *Network { return s.net }

// Rows returns the residual rows and the serving row the ledger keeps,
// aliasing its storage: remCRU is Services-strided like the store's
// CRUCap. Callers must not modify them.
func (s *State) Rows() (remCRU, remRRB []int32, serving []BSID) {
	return s.remCRU, s.remRRB, s.assignment.ServingBS
}

// cru returns the index of (b, j) in remCRU.
func (s *State) cru(b BSID, j ServiceID) int { return int(b)*s.net.Services + int(j) }

// RemainingCRU returns the unallocated CRUs of BS b for service j.
func (s *State) RemainingCRU(b BSID, j ServiceID) int {
	return int(s.remCRU[s.cru(b, j)])
}

// RemainingRRBs returns the unallocated radio blocks of BS b.
func (s *State) RemainingRRBs(b BSID) int {
	return int(s.remRRB[b])
}

// Residual returns BS b's remaining CRUs for service j and remaining RRBs
// in one call — the two Eq. 17 inputs that change during matching.
func (s *State) Residual(b BSID, j ServiceID) (remCRU, remRRBs int) {
	return s.RemainingCRU(b, j), s.RemainingRRBs(b)
}

// ServingBS returns the BS currently serving UE u, or CloudBS.
func (s *State) ServingBS(u UEID) BSID {
	return s.assignment.ServingBS[u]
}

// Assigned reports whether UE u is currently served at the edge.
func (s *State) Assigned(u UEID) bool {
	return s.assignment.ServingBS[u] != CloudBS
}

// Errors returned by Assign.
var (
	ErrAlreadyAssigned = errors.New("mec: UE already assigned")
	ErrNotCandidate    = errors.New("mec: BS is not a candidate for this UE")
	ErrNoCRU           = errors.New("mec: insufficient CRUs for service")
	ErrNoRRB           = errors.New("mec: insufficient RRBs")
)

// CanServe reports whether BS b currently has the computing and radio
// resources to take UE u, and that the pair is a candidate link.
func (s *State) CanServe(u UEID, b BSID) bool {
	l, ok := s.net.Link(u, b)
	if !ok {
		return false
	}
	ue := &s.net.UEs[u]
	remCRU, remRRBs := s.Residual(b, ue.Service)
	return remCRU >= ue.CRUDemand && remRRBs >= l.RRBs
}

// Assign grants UE u's task to BS b, debiting b's CRU and RRB pools. It
// fails without side effects if u is already assigned, b is not a candidate
// for u, or b lacks resources.
func (s *State) Assign(u UEID, b BSID) error {
	if s.Assigned(u) {
		return fmt.Errorf("%w: UE %d on BS %d", ErrAlreadyAssigned, u, s.ServingBS(u))
	}
	l, ok := s.net.Link(u, b)
	if !ok {
		return fmt.Errorf("%w: UE %d, BS %d", ErrNotCandidate, u, b)
	}
	ue := &s.net.UEs[u]
	remCRU, remRRBs := s.Residual(b, ue.Service)
	if remCRU < ue.CRUDemand {
		return fmt.Errorf("%w: UE %d needs %d CRUs of service %d on BS %d, %d left",
			ErrNoCRU, u, ue.CRUDemand, ue.Service, b, remCRU)
	}
	if remRRBs < l.RRBs {
		return fmt.Errorf("%w: UE %d needs %d RRBs on BS %d, %d left",
			ErrNoRRB, u, l.RRBs, b, remRRBs)
	}
	s.remCRU[s.cru(b, ue.Service)] -= int32(ue.CRUDemand)
	s.remRRB[b] -= int32(l.RRBs)
	s.assignment.ServingBS[u] = b
	s.rrbsUsed[u] = l.RRBs
	return nil
}

// Unassign releases UE u's grant, crediting the resources back. It is a
// no-op for unassigned UEs. Allocators that re-match UEs across iterations
// (deferred acceptance with rejection) rely on exact credit/debit symmetry.
func (s *State) Unassign(u UEID) {
	b := s.assignment.ServingBS[u]
	if b == CloudBS {
		return
	}
	ue := &s.net.UEs[u]
	s.remCRU[s.cru(b, ue.Service)] += int32(ue.CRUDemand)
	s.remRRB[b] += int32(s.rrbsUsed[u])
	s.rrbsUsed[u] = 0
	s.assignment.ServingBS[u] = CloudBS
}

// Snapshot returns a copy of the current assignment.
func (s *State) Snapshot() Assignment {
	return s.assignment.Clone()
}

// SnapshotInto copies the current assignment into dst, reusing dst's
// backing storage when it is large enough, and returns the result. It is
// Snapshot for callers that recycle result objects across runs.
func (s *State) SnapshotInto(dst Assignment) Assignment {
	n := len(s.assignment.ServingBS)
	if cap(dst.ServingBS) < n {
		dst.ServingBS = make([]BSID, n)
	}
	dst.ServingBS = dst.ServingBS[:n]
	copy(dst.ServingBS, s.assignment.ServingBS)
	return dst
}

// CheckInvariants verifies the TPM constraints (Eq. 12-15) against the
// ledger and returns the first violation. It recomputes resource usage from
// scratch rather than trusting the residual rows, so it also detects
// ledger corruption.
func (s *State) CheckInvariants() error {
	return Recount(&s.net.csr, s.assignment.ServingBS, s.remCRU, s.remRRB, &s.use)
}

// ValidateAssignment checks a completed assignment against net's TPM
// constraints (Eq. 12-14) without needing the ledger that produced it:
// one Recount pass, no replay through a State.
func ValidateAssignment(net *Network, a Assignment) error {
	return Recount(&net.csr, a.ServingBS, nil, nil, &Usage{})
}

// Usage is Recount's scratch: the CRUs granted per (BS, service),
// Services-strided like CSR.CRUCap, and the RRBs granted per BS. The
// sums are wider than the store's int32 rows, so an infeasible
// assignment cannot wrap them. The zero value is ready to use.
type Usage struct {
	cru, rrb []int64
}

// Recount is the one feasibility recount of an assignment over c's
// capacity rows; serving holds one BS index or CloudBS per UE. In one
// pass over the served UEs it checks that each sits on one of its
// candidate BSs (Eq. 13; an ID out of range is none), adds its CRUs and
// RRBs into use, and checks the BS's CRUs for the UE's service (Eq. 12)
// and its RRBs (Eq. 14) against capacity. When remCRU and remRRB are
// non-nil — a ledger's residual rows, shaped like c's capacity rows —
// every residual must also equal capacity minus usage. It returns the
// first violation. use is caller-owned scratch, reused across calls, so
// a steady-state check allocates nothing.
func Recount[B ~int | ~int32](c *CSR, serving []B, remCRU, remRRB []int32, use *Usage) error {
	if len(serving) != c.UEs() {
		return fmt.Errorf("mec: assignment covers %d UEs, scenario has %d", len(serving), c.UEs())
	}
	use.cru = slices.Grow(use.cru[:0], len(c.CRUCap))[:len(c.CRUCap)]
	use.rrb = slices.Grow(use.rrb[:0], c.BSs())[:c.BSs()]
	clear(use.cru)
	clear(use.rrb)
	for u, b := range serving {
		if b == -1 {
			continue
		}
		k := c.FindCand(UEID(u), BSID(b))
		if k < 0 {
			return fmt.Errorf("%w: UE %d on BS %d (Eq. 13)", ErrNotCandidate, u, b)
		}
		i := int(b)*c.Services + int(c.Service[u])
		use.cru[i] += int64(c.CRU[u])
		use.rrb[b] += int64(c.RRBs[k])
		if use.cru[i] > int64(c.CRUCap[i]) {
			return fmt.Errorf("%w: BS %d service %d grants %d of %d CRUs with UE %d (Eq. 12)",
				ErrNoCRU, b, c.Service[u], use.cru[i], c.CRUCap[i], u)
		}
		if use.rrb[b] > int64(c.MaxRRB[b]) {
			return fmt.Errorf("%w: BS %d grants %d of %d RRBs with UE %d (Eq. 14)",
				ErrNoRRB, b, use.rrb[b], c.MaxRRB[b], u)
		}
	}
	if remRRB == nil {
		return nil
	}
	for b, used := range use.rrb {
		for i := b * c.Services; i < (b+1)*c.Services; i++ {
			if want := int64(c.CRUCap[i]) - use.cru[i]; int64(remCRU[i]) != want {
				return fmt.Errorf("mec: ledger drift: BS %d service %d has %d CRUs left, recount says %d",
					b, i-b*c.Services, remCRU[i], want)
			}
		}
		if want := int64(c.MaxRRB[b]) - used; int64(remRRB[b]) != want {
			return fmt.Errorf("mec: ledger drift: BS %d has %d RRBs left, recount says %d", b, remRRB[b], want)
		}
	}
	return nil
}
