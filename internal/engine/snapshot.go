package engine

import (
	"fmt"

	"dmra/internal/mec"
)

// Snapshot is the full matching state at a round barrier, in the shape
// every runtime can produce: the per-BS resource residuals and the
// per-UE serving decision. It is the currency of the time-travel
// debugger — drivers export one per round through a RoundHook, and
// internal/replay reconstructs the same struct from a JSONL trace, so
// "reconstructed ≡ live" is a plain Equal call.
//
// The residuals are stored dense: one Services-strided array for the
// whole network, matching the mec.Book layout, so capturing from a book
// is a flat copy and replaying a million-UE trace touches two
// arrays instead of one heap-allocated row per BS.
type Snapshot struct {
	// Round is the 1-based round the state was captured after.
	Round int
	// Services is the stride of RemCRU.
	Services int
	// RemCRU[b*Services+j] is BS b's remaining CRUs for service j; use
	// CRU/CRURow for indexed access.
	RemCRU []int
	// RemRRB[b] is BS b's remaining radio blocks.
	RemRRB []int
	// ServingBS[u] is the BS serving UE u, or mec.CloudBS.
	ServingBS []mec.BSID
}

// NewSnapshot returns the round-0 state over net: the capacities of its
// store, every UE unserved.
func NewSnapshot(net *mec.Network) *Snapshot {
	s := &Snapshot{
		Services:  net.Services,
		RemCRU:    make([]int, len(net.BSs)*net.Services),
		RemRRB:    make([]int, len(net.BSs)),
		ServingBS: mec.NewAssignment(len(net.UEs)).ServingBS,
	}
	csr := net.Dense()
	Capture[int32](s, 0, &mec.Book{Services: csr.Services, CRU: csr.CRUCap, RRB: csr.MaxRRB}, nil)
	return s
}

// CRU returns BS b's remaining CRUs for service j.
func (s *Snapshot) CRU(b, j int) int { return s.RemCRU[b*s.Services+j] }

// CRURow returns BS b's residual-CRU row (one entry per service),
// aliasing the snapshot's storage.
func (s *Snapshot) CRURow(b int) []int {
	return s.RemCRU[b*s.Services : (b+1)*s.Services]
}

// Capture fills s from a residual book over every BS of the network
// and a serving row (one BS index or -1 per UE; nil leaves s's serving
// row as it is), reusing s's storage: flat array walks, no per-BS rows
// materialized. Every runtime captures through it, so the snapshots they
// export agree field for field.
func Capture[B mec.BSID | int32](s *Snapshot, round int, book *mec.Book, serving []B) {
	s.Round = round
	for i, rem := range book.CRU {
		s.RemCRU[i] = int(rem)
	}
	for b, rem := range book.RRB {
		s.RemRRB[b] = int(rem)
	}
	for u, b := range serving {
		s.ServingBS[u] = mec.BSID(b)
	}
}

// Clone returns a deep copy, for hooks that retain per-round state past
// the hook invocation (the snapshot passed to a RoundHook is reused).
func (s *Snapshot) Clone() *Snapshot {
	return &Snapshot{
		Round:     s.Round,
		Services:  s.Services,
		RemCRU:    append([]int(nil), s.RemCRU...),
		RemRRB:    append([]int(nil), s.RemRRB...),
		ServingBS: append([]mec.BSID(nil), s.ServingBS...),
	}
}

// Equal reports whether two snapshots describe the same state (round
// number included).
func (s *Snapshot) Equal(o *Snapshot) bool {
	return s.Diff(o) == nil
}

// Diff returns human-readable deltas between two snapshots, one line
// per disagreement, or nil when they are identical. The receiver is
// labeled "a", the argument "b".
func (s *Snapshot) Diff(o *Snapshot) []string {
	var d []string
	if s == nil || o == nil {
		if s != o {
			return []string{"one snapshot is nil"}
		}
		return nil
	}
	if s.Round != o.Round {
		d = append(d, fmt.Sprintf("round: a=%d b=%d", s.Round, o.Round))
	}
	if s.Services != o.Services {
		return append(d, fmt.Sprintf("service count: a=%d b=%d", s.Services, o.Services))
	}
	if len(s.RemRRB) != len(o.RemRRB) || len(s.RemCRU) != len(o.RemCRU) {
		return append(d, fmt.Sprintf("BS count: a=%d b=%d", len(s.RemRRB), len(o.RemRRB)))
	}
	for b := range s.RemRRB {
		for j := 0; j < s.Services; j++ {
			if s.CRU(b, j) != o.CRU(b, j) {
				d = append(d, fmt.Sprintf("BS %d service %d remaining CRUs: a=%d b=%d", b, j, s.CRU(b, j), o.CRU(b, j)))
			}
		}
		if s.RemRRB[b] != o.RemRRB[b] {
			d = append(d, fmt.Sprintf("BS %d remaining RRBs: a=%d b=%d", b, s.RemRRB[b], o.RemRRB[b]))
		}
	}
	if len(s.ServingBS) != len(o.ServingBS) {
		return append(d, fmt.Sprintf("UE count: a=%d b=%d", len(s.ServingBS), len(o.ServingBS)))
	}
	for u := range s.ServingBS {
		if s.ServingBS[u] != o.ServingBS[u] {
			d = append(d, fmt.Sprintf("UE %d serving BS: a=%s b=%s", u, bsName(s.ServingBS[u]), bsName(o.ServingBS[u])))
		}
	}
	return d
}

func bsName(b mec.BSID) string {
	if b == mec.CloudBS {
		return "cloud"
	}
	return fmt.Sprintf("%d", b)
}

// RoundHook observes the matching state after each round's select phase
// (and once more after the final, empty round). The snapshot is only
// valid during the call — Clone it to retain. Hooks run on the driver's
// round goroutine, in round order.
type RoundHook func(*Snapshot)
