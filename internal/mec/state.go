package mec

import (
	"errors"
	"fmt"
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
// remaining CRUs per (BS, service), remaining RRBs per BS, and the current
// partial assignment. Allocators must route every grant through Assign so
// that the capacity constraints (Eq. 12, 14) can never be violated.
type State struct {
	net *Network
	// remCRU[b][j] is c_{b,j} minus CRUs already granted.
	remCRU [][]int
	// remRRB[b] is N_b minus RRBs already granted.
	remRRB []int
	// assignment is the current partial matching.
	assignment Assignment
	// rrbsUsed[u] records the RRBs granted to UE u (for release).
	rrbsUsed []int
	// usedRRBs is the sum of rrbsUsed: the RRBs granted across all BSs,
	// kept current by Assign and Unassign so occupancy reads are O(1).
	usedRRBs int
	// invariantCRU/invariantRRB are CheckInvariants' recount scratch,
	// allocated on first use and reused so steady-state verification is
	// allocation-free.
	invariantCRU []int
	invariantRRB []int
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
	if len(s.remCRU) != len(net.BSs) {
		s.remCRU = make([][]int, len(net.BSs))
		s.remRRB = make([]int, len(net.BSs))
	}
	for b := range net.BSs {
		caps := net.BSs[b].CRUCapacity
		if len(s.remCRU[b]) != len(caps) {
			s.remCRU[b] = make([]int, len(caps))
		}
		copy(s.remCRU[b], caps)
		s.remRRB[b] = net.BSs[b].MaxRRBs
	}
	s.usedRRBs = 0
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

// RemainingCRU returns the unallocated CRUs of BS b for service j.
func (s *State) RemainingCRU(b BSID, j ServiceID) int {
	return s.remCRU[b][j]
}

// RemainingRRBs returns the unallocated radio blocks of BS b.
func (s *State) RemainingRRBs(b BSID) int {
	return s.remRRB[b]
}

// Residual returns BS b's remaining CRUs for service j and remaining RRBs
// in one call — the two Eq. 17 inputs that change during matching.
func (s *State) Residual(b BSID, j ServiceID) (remCRU, remRRBs int) {
	return s.remCRU[b][j], s.remRRB[b]
}

// UsedRRBs returns the radio blocks currently granted across all BSs:
// the sum over b of MaxRRBs - RemainingRRBs(b), maintained in O(1).
func (s *State) UsedRRBs() int {
	return s.usedRRBs
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
	return s.remCRU[b][ue.Service] >= ue.CRUDemand && s.remRRB[b] >= l.RRBs
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
	if s.remCRU[b][ue.Service] < ue.CRUDemand {
		return fmt.Errorf("%w: UE %d needs %d CRUs of service %d on BS %d, %d left",
			ErrNoCRU, u, ue.CRUDemand, ue.Service, b, s.remCRU[b][ue.Service])
	}
	if s.remRRB[b] < l.RRBs {
		return fmt.Errorf("%w: UE %d needs %d RRBs on BS %d, %d left",
			ErrNoRRB, u, l.RRBs, b, s.remRRB[b])
	}
	s.remCRU[b][ue.Service] -= ue.CRUDemand
	s.remRRB[b] -= l.RRBs
	s.assignment.ServingBS[u] = b
	s.rrbsUsed[u] = l.RRBs
	s.usedRRBs += l.RRBs
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
	s.remCRU[b][ue.Service] += ue.CRUDemand
	s.remRRB[b] += s.rrbsUsed[u]
	s.usedRRBs -= s.rrbsUsed[u]
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
// scratch rather than trusting the incremental counters, so it also detects
// ledger corruption.
func (s *State) CheckInvariants() error {
	// Flat per-(BS, service) scratch, kept on the State so per-round
	// verification in the hot loop does not allocate.
	// Both lengths must be checked: two scenarios can share the
	// BSs*Services product while disagreeing on the BS count (1x2 vs
	// 2x1), and a pooled State crosses scenarios.
	if len(s.invariantCRU) != len(s.net.BSs)*s.net.Services || len(s.invariantRRB) != len(s.net.BSs) {
		s.invariantCRU = make([]int, len(s.net.BSs)*s.net.Services)
		s.invariantRRB = make([]int, len(s.net.BSs))
	}
	usedCRU := s.invariantCRU
	usedRRB := s.invariantRRB
	for i := range usedCRU {
		usedCRU[i] = 0
	}
	for i := range usedRRB {
		usedRRB[i] = 0
	}
	for u := range s.net.UEs {
		b := s.assignment.ServingBS[u]
		if b == CloudBS {
			continue
		}
		l, ok := s.net.Link(UEID(u), b)
		if !ok {
			return fmt.Errorf("mec: invariant: UE %d assigned to non-candidate BS %d (Eq. 13)", u, b)
		}
		ue := &s.net.UEs[u]
		usedCRU[int(b)*s.net.Services+int(ue.Service)] += ue.CRUDemand
		usedRRB[b] += l.RRBs
	}
	totalRRB := 0
	for b := range s.net.BSs {
		totalRRB += usedRRB[b]
		for j := 0; j < s.net.Services; j++ {
			cap := s.net.BSs[b].CRUCapacity[j]
			used := usedCRU[b*s.net.Services+j]
			if used > cap {
				return fmt.Errorf("mec: invariant: BS %d service %d uses %d/%d CRUs (Eq. 12)", b, j, used, cap)
			}
			if s.remCRU[b][j] != cap-used {
				return fmt.Errorf("mec: invariant: BS %d service %d ledger says %d CRUs left, recount says %d",
					b, j, s.remCRU[b][j], cap-used)
			}
		}
		if usedRRB[b] > s.net.BSs[b].MaxRRBs {
			return fmt.Errorf("mec: invariant: BS %d uses %d/%d RRBs (Eq. 14)", b, usedRRB[b], s.net.BSs[b].MaxRRBs)
		}
		if s.remRRB[b] != s.net.BSs[b].MaxRRBs-usedRRB[b] {
			return fmt.Errorf("mec: invariant: BS %d ledger says %d RRBs left, recount says %d",
				b, s.remRRB[b], s.net.BSs[b].MaxRRBs-usedRRB[b])
		}
	}
	if s.usedRRBs != totalRRB {
		return fmt.Errorf("mec: invariant: ledger says %d RRBs used in total, recount says %d", s.usedRRBs, totalRRB)
	}
	return nil
}

// ValidateAssignment checks a completed assignment against net's TPM
// constraints without needing the ledger that produced it.
func ValidateAssignment(net *Network, a Assignment) error {
	if len(a.ServingBS) != len(net.UEs) {
		return fmt.Errorf("mec: assignment covers %d UEs, scenario has %d", len(a.ServingBS), len(net.UEs))
	}
	s := NewState(net)
	for u, b := range a.ServingBS {
		if b == CloudBS {
			continue
		}
		if err := s.Assign(UEID(u), b); err != nil {
			return err
		}
	}
	return s.CheckInvariants()
}
