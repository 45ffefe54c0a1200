package engine

import (
	"fmt"
	"runtime"

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
//     credit path below (Depart), and that runs only between Settles.
//     The arena's run advances once per Settle and every region is
//     stamped with the run it was built in, so a
//     credit at BS b just records the current run in credit[b]: it
//     came after every drop of every region stamped at or below that
//     run. Before proposing, Settle checks each frontier UE's region
//     against its candidates' credits and rebuilds it when any
//     credit[b] >= stamp. A drop that survives therefore saw no credit
//     at its BS since it was made, so the candidate is still
//     infeasible — the surviving region is exactly the
//     feasible-candidate set a fresh sweep would compute, and the
//     proposals (and hence the final assignment) are identical. Only
//     frontier UEs propose, so the check is paid by the frontier alone;
//     a UE outside it is checked when it next arrives, against credits
//     that have only grown.
//
// Arrivals and admissions need no invalidation: both only shrink
// residuals.

// DeltaStats describes one Settle: how big the repair frontier was, how
// much standing state churn undid since the previous Settle, and the
// Alg. 1 round counters of the repair itself (same meaning as SoAStats).
type DeltaStats struct {
	// Frontier is the number of UEs that had to re-run Alg. 1 this
	// Settle: the arrivals since the last one.
	Frontier int
	// Released counts standing matches undone since the last Settle:
	// departures of assigned UEs.
	Released int
	// Invalidated counts the frontier UEs of this Settle whose cached
	// candidate region was rebuilt because one of their candidate BSs
	// was credited after the region was built. UEs outside the frontier
	// are not counted: their regions are checked when they next arrive.
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
// session; Arrive/Depart report churn; Settle repairs to
// quiescence. Like the Arena it owns, an Incremental serves one session
// at a time and is not safe for concurrent use.
type Incremental struct {
	a       Arena
	net     *mec.Network
	workers int

	// pendBit is the pending frontier between Settles (a UE departing
	// while pending just clears its bit); Settle drains it ascending.
	pendBit Bitset
	// front is the sorted frontier of an observed Settle, the scope of
	// its Propose/Cloud events (a.pending compacts round by round).
	front []int32

	// credit[b] is the arena run of BS b's latest ledger credit: a region
	// stamped at or below it may hold a drop at b the credit undid.
	credit []uint32

	released int
}

// Begin starts an incremental session over net's candidate store with
// an empty assignment and the store's capacities; workers <= 0 means
// GOMAXPROCS. The returned error is always nil.
func (inc *Incremental) Begin(net *mec.Network, cfg Config, workers int) error {
	csr := net.Dense()
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
	inc.pendBit.Reset(csr.UEs())
	inc.credit = grown(inc.credit, csr.BSs())
	clear(inc.credit)
	inc.released = 0
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
	if lo, hi := a.csr.CandRange(u); lo == hi {
		return nil
	}
	inc.pendBit.Set(ui)
	return nil
}

// Depart removes UE u from the session. A pending UE just leaves the
// frontier; an assigned UE's match is released and its BS credited. A UE
// the engine never held (cloud-served or inactive) is a no-op.
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

// release undoes UE u's standing match at BS b: credit the book with
// exactly what SelectRound debited and stamp b's credit with the
// current run, which invalidates the drops at b of every region built
// so far. O(log candidates): the covering UEs are checked lazily, when
// they next join a frontier.
func (inc *Incremental) release(u, b int32) {
	a := &inc.a
	csr := a.csr
	g := csr.FindCand(mec.UEID(u), mec.BSID(b))
	a.book.Release(mec.BSID(b), mec.ServiceID(csr.Service[u]), int(csr.CRU[u]), int(csr.RRBs[g]))
	a.serving[u] = -1
	a.assigned.Clear(u)
	inc.released++
	inc.credit[b] = a.run
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
	csr := a.csr
	a.pending = inc.pendBit.Drain(a.pending[:0])
	ds := DeltaStats{Frontier: len(a.pending), Released: inc.released}
	inc.released = 0
	if len(a.pending) == 0 {
		return ds, nil
	}
	// Validate the frontier's regions against the credits since each
	// was built; the run then advances, so credits after this Settle
	// read as newer than every region it builds.
	for _, u := range a.pending {
		s := a.stamp[u]
		if s < a.base {
			continue
		}
		for g := csr.Off[u]; g < csr.Off[u+1]; g++ {
			if inc.credit[csr.BS[g]] >= s {
				a.stamp[u] = 0
				ds.Invalidated++
				break
			}
		}
	}
	if a.advance() {
		clear(inc.credit)
	}

	// engine.RoundBound restricted to the frontier: each round with
	// proposals permanently consumes at least one frontier candidate.
	maxRounds := 1
	for _, u := range a.pending {
		maxRounds += int(csr.Off[u+1] - csr.Off[u])
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

// Book returns the session's residual book, aliasing the engine's
// storage; it mutates on churn and Settle. Callers must not modify it.
func (inc *Incremental) Book() *mec.Book { return inc.a.Book() }

// AssignedCount returns the number of UEs with a standing match.
func (inc *Incremental) AssignedCount() int { return inc.a.AssignedCount() }

// CheckInvariants recounts the ledger from the standing assignment —
// O(population), for tests and session teardown, not the epoch path.
func (inc *Incremental) CheckInvariants() error { return inc.a.checkInvariants() }
