package engine

import (
	"fmt"
	"runtime"
	"slices"

	"dmra/internal/mec"
)

// This file is the delta-repair layer over the Arena: instead of
// rewinding the whole arena per epoch, an Incremental keeps the ledger,
// the assignment, and every UE's candidate region alive across epochs
// and repairs only the frontier that churn actually touched.
//
// The correctness argument has two halves:
//
//   - Equivalence. A from-scratch epoch runs Alg. 1 over (waiting set,
//     live residuals): the waiting UEs propose in ascending order
//     against capacities equal to the standing assignment's residuals.
//     Settle runs the *same* round loop as Arena.Run (rounds: propose
//     and the canonical Config.SelectRound) over the same pending set
//     in the same ascending order, against a ledger that mirrors those
//     residuals debit-for-debit. The only state carried across Settles
//     beyond the ledger is the per-UE alive-candidate list — covered by
//     the next point.
//
//   - Residual monotonicity. A candidate is dropped from a UE's region
//     only when it is infeasible against the current residuals. Within
//     a Settle residuals only shrink (select only debits), so drops are
//     permanent — the same argument that makes the Arena's eager drops
//     exact. Across Settles a residual can grow, but only through the
//     credit paths below (Depart, SetDemand release), and every credit
//     at BS b clears the region stamp of every UE covering b via the
//     CSR inverted index, forcing a full region rebuild at that UE's
//     next propose. A drop that survives therefore saw no credit at its
//     BS since it was made, so the candidate is still infeasible — the
//     surviving region is exactly the feasible-candidate set a fresh
//     sweep would compute, and the proposals (and hence the final
//     assignment) are identical.
//
// Arrivals and admissions need no invalidation: both only shrink
// residuals. Demand changes additionally clear the UE's own stamp,
// since its drops were made relative to the old demand.

// DeltaStats describes one Settle: how big the repair frontier was, how
// much standing state churn undid since the previous Settle, and the
// Alg. 1 round counters of the repair itself (same meaning as SoAStats).
type DeltaStats struct {
	// Frontier is the number of UEs that had to re-run Alg. 1 this
	// Settle: arrivals plus matches released by demand changes.
	Frontier int
	// Released counts standing matches undone since the last Settle —
	// departures of assigned UEs plus demand-change releases.
	Released int
	// Invalidated counts candidate regions reset by ledger credits:
	// UEs whose cached drop sets had to be rebuilt because a BS they
	// cover regained capacity.
	Invalidated int

	Rounds    int
	Proposals int
	Accepts   int
	Rejects   int
}

// Add accumulates s into d (for per-session totals over many Settles).
func (d *DeltaStats) Add(s DeltaStats) {
	d.Frontier += s.Frontier
	d.Released += s.Released
	d.Invalidated += s.Invalidated
	d.Rounds += s.Rounds
	d.Proposals += s.Proposals
	d.Accepts += s.Accepts
	d.Rejects += s.Rejects
}

// Incremental is the delta-repair DMRA engine: a long-lived Arena whose
// ledger and assignment persist across epochs, repaired under churn by
// re-running Alg. 1 restricted to the affected frontier. Begin starts a
// session; Arrive/Depart/SetDemand report churn; Settle repairs to
// quiescence. Like the Arena it owns, an Incremental serves one session
// at a time and is not safe for concurrent use.
type Incremental struct {
	a       Arena
	net     *mec.Network
	workers int

	// Private demand array swapped into the arena so SetDemand never
	// writes through to the shared, immutable CSR.
	cruBuf []int32

	// The pending frontier between Settles: pend accumulates appends in
	// arrival order, pendBit is authoritative membership (a UE departing
	// while pending just clears its bit; the dead slice entry is
	// filtered at Settle).
	pendBit Bitset
	pend    []int32
	// front is the sorted frontier of an observed Settle, the scope of
	// its Propose/Cloud events (a.pending compacts round by round).
	front []int32

	released    int
	invalidated int
}

// Begin starts an incremental session over net's dense candidate view
// with an empty assignment and full capacities. Like Arena.Run it
// requires a dense view; workers <= 0 means GOMAXPROCS.
func (inc *Incremental) Begin(net *mec.Network, cfg Config, workers int) error {
	csr := net.Dense()
	if csr == nil {
		return fmt.Errorf("engine: Incremental.Begin: network has no dense candidate view")
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	inc.net, inc.workers = net, workers
	a := &inc.a
	// Propose recomputes preferences fresh on every sweep, so a
	// persistent ledger needs no cached-value invalidation — only the
	// feasibility drops tracked by the region stamps.
	a.reset(csr, cfg)
	// reset pends the whole population for a one-shot run; a session
	// starts empty and pends UEs as they arrive.
	a.pending = a.pending[:0]
	n := csr.UEs()
	inc.cruBuf = grown(inc.cruBuf, n)
	copy(inc.cruBuf, csr.CRU)
	a.cru = inc.cruBuf
	inc.pendBit.Reset(n)
	inc.pend = inc.pend[:0]
	inc.released, inc.invalidated = 0, 0
	return nil
}

// Arrive adds UE u to the pending frontier of the next Settle. A UE
// with no candidate links is left alone — it reads as cloud-served
// (Serving -1) immediately, the same outcome a full run gives it.
// Arriving while assigned or already pending is a driver bug.
func (inc *Incremental) Arrive(u mec.UEID) error {
	a := &inc.a
	ui := int32(u)
	if a.assigned.Get(ui) {
		return fmt.Errorf("engine: Incremental.Arrive: UE %d is already assigned", u)
	}
	if inc.pendBit.Get(ui) {
		return fmt.Errorf("engine: Incremental.Arrive: UE %d is already pending", u)
	}
	if a.csr.Off[u+1] == a.csr.Off[u] {
		return nil
	}
	inc.pendBit.Set(ui)
	inc.pend = append(inc.pend, ui)
	return nil
}

// Depart removes UE u from the session. A pending UE just leaves the
// frontier; an assigned UE's match is released — its BS is credited and
// every UE covering that BS has its cached drops invalidated. A UE the
// engine never held (cloud-served or inactive) is a no-op.
func (inc *Incremental) Depart(u mec.UEID) {
	a := &inc.a
	ui := int32(u)
	if inc.pendBit.Get(ui) {
		inc.pendBit.Clear(ui)
		return
	}
	if b := a.serving[ui]; b >= 0 {
		inc.release(ui, b)
	}
}

// SetDemand changes UE u's CRU demand. An assigned UE is released first
// (credit the old demand, not the new) and re-pended so it competes
// again under the new demand at the next Settle; a pending UE stays
// pending. In both cases the UE's own region is invalidated: its drops
// were made relative to the old demand.
func (inc *Incremental) SetDemand(u mec.UEID, cru int) error {
	if cru < 0 {
		return fmt.Errorf("engine: Incremental.SetDemand: UE %d demand %d < 0", u, cru)
	}
	a := &inc.a
	ui := int32(u)
	if b := a.serving[ui]; b >= 0 {
		inc.release(ui, b)
		if !inc.pendBit.Get(ui) {
			inc.pendBit.Set(ui)
			inc.pend = append(inc.pend, ui)
		}
	}
	a.cru[ui] = int32(cru)
	a.stamp[ui] = 0
	return nil
}

// release undoes UE u's standing match at BS b: credit the ledger with
// exactly what Admit debited (a.cru[u] is still the admitted demand —
// SetDemand releases before mutating) and invalidate every covering
// UE's cached drops.
func (inc *Incremental) release(u, b int32) {
	a := &inc.a
	csr := a.csr
	g := csr.FindCand(mec.UEID(u), mec.BSID(b))
	a.remCRU[b*int32(csr.Services)+csr.Service[u]] += a.cru[u]
	a.remRRB[b] += csr.RRBs[g]
	a.serving[u] = -1
	a.assigned.Clear(u)
	inc.released++
	inc.invalidateCover(b)
}

// invalidateCover clears the region stamp of every UE that has BS b as
// a candidate: b's residuals just grew, so drops against b may no
// longer be justified and those regions must rebuild at next propose.
func (inc *Incremental) invalidateCover(b int32) {
	a := &inc.a
	off, ue := a.csr.CoverIndex()
	for _, u := range ue[off[b]:off[b+1]] {
		if a.stamp[u] == a.run {
			a.stamp[u] = 0
			inc.invalidated++
		}
	}
}

// Settle repairs the matching to quiescence: the accumulated frontier
// proposes in ascending-UE order and the canonical select phase admits,
// round after round, until no UE proposes — exactly the rounds a
// from-scratch run over (frontier, current residuals) performs. The
// frontier drains completely: admitted UEs join the standing
// assignment, the rest end cloud-served (Serving -1) and must Arrive
// again to be reconsidered.
func (inc *Incremental) Settle() (DeltaStats, error) { return inc.SettleWith(nil) }

// SettleWith is Settle with the hooks Arena.Run takes (nil: Settle).
// Propose and Cloud fire over the frontier only, so the stream is the
// from-scratch run's over the same waiting set minus the Cloud events
// of UEs outside the frontier; Snapshot and RoundDone see the standing
// assignment and ledger. A Settle with an empty frontier runs no round
// and fires nothing.
func (inc *Incremental) SettleWith(hooks *SoAHooks) (DeltaStats, error) {
	a := &inc.a
	a.pending = a.pending[:0]
	for _, u := range inc.pend {
		if inc.pendBit.Get(u) {
			inc.pendBit.Clear(u)
			a.pending = append(a.pending, u)
		}
	}
	inc.pend = inc.pend[:0]
	slices.Sort(a.pending)

	ds := DeltaStats{
		Frontier:    len(a.pending),
		Released:    inc.released,
		Invalidated: inc.invalidated,
	}
	inc.released, inc.invalidated = 0, 0
	if len(a.pending) == 0 {
		return ds, nil
	}

	// engine.RoundBound restricted to the frontier: each round with
	// proposals permanently consumes at least one frontier candidate.
	maxRounds := 1
	for _, u := range a.pending {
		maxRounds += int(a.csr.Off[u+1] - a.csr.Off[u])
	}
	var snap *Snapshot
	if hooks != nil {
		inc.front = append(inc.front[:0], a.pending...)
		if hooks.Snapshot != nil {
			snap = NewSnapshot(inc.net)
		}
	}
	a.startHelpers(min(inc.workers, len(a.pending)) - 1)
	defer a.stopHelpers()
	stats, err := a.rounds(inc.workers, maxRounds, hooks, snap, inc.front)
	if err != nil {
		return ds, err
	}
	ds.Rounds = stats.Rounds
	ds.Proposals = stats.Proposals
	ds.Accepts = stats.Accepts
	ds.Rejects = stats.Rejects
	return ds, nil
}

// Serving returns the per-UE serving BS indices (-1 = cloud/inactive).
// The slice is owned by the engine and mutates on churn and Settle.
func (inc *Incremental) Serving() []int32 { return inc.a.serving }

// ServingBS returns UE u's serving BS index, -1 when the engine holds
// no match for it.
func (inc *Incremental) ServingBS(u mec.UEID) int32 { return inc.a.serving[u] }

// Demand returns UE u's current CRU demand as the engine sees it.
func (inc *Incremental) Demand(u mec.UEID) int { return int(inc.a.cru[u]) }

// RemCRU returns BS b's residual CRUs for service j.
func (inc *Incremental) RemCRU(b, j int) int { return inc.a.RemCRU(b, j) }

// RemRRB returns BS b's residual radio blocks.
func (inc *Incremental) RemRRB(b int) int { return inc.a.RemRRB(b) }

// AssignedCount returns the number of UEs with a standing match.
func (inc *Incremental) AssignedCount() int { return inc.a.AssignedCount() }

// CheckInvariants recounts the ledger from the standing assignment —
// O(population), for tests and session teardown, not the epoch path.
func (inc *Incremental) CheckInvariants() error { return inc.a.checkInvariants() }
