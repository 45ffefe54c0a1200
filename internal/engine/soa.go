package engine

import (
	"fmt"
	"runtime"
	"sync"

	"dmra/internal/mec"
)

// This file is the struct-of-arrays round engine: the same Alg. 1 state
// machine as Proposer/SelectRound, re-laid-out for the
// million-UE regime. The per-UE live-candidate lists, the residual book,
// and every round buffer live in a handful of flat arrays inside an Arena
// that is reset — not reallocated — across runs, so a steady-state run
// performs zero heap allocations and walks memory sequentially instead
// of chasing a pointer per UE and another per candidate list.
//
// Propose is the Proposer's eager-drop scan: each UE sweeps its live
// candidates, drops every one the book can no longer fit, and proposes
// to the (Eq. 17 value, candidate index) lex-min of the rest. Dropping
// is permanent because residuals never grow within a run, which holds
// for any rho: nothing is cached but the live list.
//
// Both phases of a round optionally fan across workers. That is safe
// and exactly deterministic because of how Alg. 1 rounds are structured:
//
//   - Propose only READS the residual book; only the select phase
//     writes it, and the two phases never overlap (each joins its
//     workers before the next begins). Propose workers score against an
//     immutable book by construction.
//   - The pending list is cut into one contiguous chunk per propose
//     worker. All per-UE mutable state (the live-candidate region, live)
//     is touched only by the worker holding the UE's chunk, and each
//     chunk writes proposals into its own slice of the proposal buffer.
//     The serial merge concatenates chunks in worker order, which —
//     because the pending list is ascending and chunks are contiguous —
//     is exactly the order a serial sweep produces.
//   - The merge also keeps, per (BS, service), the most preferred
//     proposal by the integer key propose computed (selectKey, ties to
//     the lower UE, i.e. the earlier proposal). That argmin is the
//     per-service selection of Alg. 1 lines 13-21, so only those winners
//     reach the canonical Config.SelectRound.
//   - Select workers own disjoint, contiguous slices of the ascending
//     list of BSs with winners. A BS's select writes only its own book
//     row and the serving slot of UEs that proposed to it; each UE
//     proposes at most once per round, so no two workers share a UE. The
//     one structure BSs do share — the assigned bitset, whose words span
//     neighbouring UEs — is written serially after the join. With a
//     Verdict hook attached the select runs on one worker, in ascending
//     BS order, so the observed event order is unchanged.
//
// Assignments, statistics, swept counts, and the ordered event stream
// are therefore byte-identical at any worker count, the same determinism
// contract the wire coordinator proves for region counts.

// soaProposal is one UE's proposal of a round: the BS-preference key of
// the request (Config.selectKey), the proposing UE, and the global
// candidate index (into the CSR arrays) of the link it chose.
type soaProposal struct {
	key uint64
	ue  int32
	g   int32
}

// soaWinner is one argmin-table slot: the index in props of the slot's
// current winner and a copy of its key, so the merge compares against
// the small table instead of a random proposal.
type soaWinner struct {
	key uint64
	i   int32
}

// SoAHooks are the optional observation points of an Arena run or an
// Incremental settle. A nil hooks pointer (or nil fields) keeps the run
// allocation- and branch-free on the hot path. All hooks run on the
// caller's goroutine, in deterministic order: Round, then Propose/Cloud
// in ascending UE order over the unassigned UEs of the run's scope, then
// Verdict in BS order (verdict order within a BS), then Snapshot, then
// RoundDone. The scope is the whole population for Arena.Run and the
// settle's frontier for Incremental.SettleWith.
type SoAHooks struct {
	// Round fires at the top of each round (1-based).
	Round func(round int)
	// Propose fires for each proposing UE, in ascending UE order.
	Propose func(u, b int32)
	// Cloud fires for each unassigned UE of the scope with no viable
	// candidate left, interleaved with Propose in the same ascending-UE
	// sweep.
	Cloud func(u int32)
	// Verdict fires for every select decision, BSs in ascending order.
	Verdict func(b int32, v Verdict)
	// Snapshot receives the full matching state after each round's
	// select phase (and once more after the final, empty round). The
	// snapshot is reused across calls; Clone to retain.
	Snapshot RoundHook
	// RoundDone fires after Snapshot on every round that had proposals,
	// with the arena for reading its book and Swept count.
	RoundDone func(round int, a *Arena)
}

// SoAStats are the run counters of an Arena run, matching the meaning of
// the naive reference's statistics exactly.
type SoAStats struct {
	Rounds    int
	Proposals int
	Accepts   int
	Rejects   int
}

// Arena is the reusable state of a struct-of-arrays DMRA run. The zero
// value is ready to use; Run resets and right-sizes every buffer,
// reusing backing storage across runs and epochs so pooled drivers
// stay allocation-free. An Arena belongs to one run at a time; it is
// not safe for concurrent use (its propose workers are internal).
type Arena struct {
	csr *mec.CSR
	cfg Config

	// book is the residual book over every BS of the run.
	book mec.Book

	// serving[u] is the admitting BS or -1 (mec.CloudBS); assigned is
	// the same fact as a bitset for the O(1) membership tests in the
	// propose and event sweeps.
	serving  []int32
	assigned Bitset

	// Live-candidate lists, one region per UE at csr.Off[u]: UE u's
	// live candidate indices are idx[Off[u] : Off[u]+live[u]], unordered
	// once swap-removal has run (the Proposer's layout over the CSR).
	idx  []int32
	live []int32

	// Dirty-region tracking: a UE's region is valid only while
	// stamp[u] >= base. reset advances run and moves base up to it
	// instead of re-filling the O(links) idx array; each region is
	// (re)initialized lazily at the UE's first propose, stamped with the
	// run it was built in, inside the propose worker that owns it. The
	// incremental engine advances run once per Settle and clears
	// individual stamps to force a region rebuild after a book credit.
	stamp []uint32
	run   uint32
	base  uint32

	// pending holds the UEs that can still propose, ascending; each
	// round it compacts to the UEs that proposed.
	pending []int32
	// props collects the round's proposals: each pending-list chunk
	// fills the props slice at its own offset, the merge compacts them
	// to props[:nprops] in UE order.
	props  []soaProposal
	nprops int

	// Per-propose-worker outputs: worker w owns pending[w*chunk:] up to
	// chunk UEs; wcnt/wswept are its proposal count and swept
	// candidates, summed serially after the join into nprops and swept,
	// so both are worker-count independent.
	chunk  int
	wcnt   []int32
	wswept []uint64
	swept  uint64

	// Worker fan-out: a run on several workers starts its helper goroutines
	// once (startHelpers) and hands each phase's worker slots to them
	// over jobs, so the round loop launches no goroutine — each launch
	// would cost a heap allocation per round. wg joins a phase.
	jobs    chan arenaJob
	helpers int
	wg      sync.WaitGroup

	// Select-phase state: win[b*Services+j] is BS b's most preferred
	// service-j proposal of the round (i == -1 for none; all empty
	// between rounds); hit marks the BSs with a winner, drained into the
	// ascending list tbs; sw is per-select-worker scratch.
	win []soaWinner
	hit Bitset
	tbs []int32
	sw  []selectWorker

	// Invariant-recount scratch.
	use mec.Usage
}

// grown returns s resized to n elements, reusing capacity when it
// suffices. Contents are unspecified; callers overwrite, or reuse the
// buffers inside elements they find.
func grown[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// Run executes Alg. 1 to quiescence over net's candidate store, with
// the propose phase partitioned across workers (workers <= 0 means
// GOMAXPROCS). The result is byte-identical at any worker count; any rho
// is exact.
func (a *Arena) Run(net *mec.Network, cfg Config, workers int, hooks *SoAHooks) (SoAStats, error) {
	csr := net.Dense()
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	a.reset(csr, cfg)
	a.startHelpers(min(workers, len(a.pending)) - 1)
	defer a.stopHelpers()
	var snap *Snapshot
	if hooks != nil && hooks.Snapshot != nil {
		snap = NewSnapshot(net)
	}
	// engine.RoundBound over the whole store.
	stats, err := a.rounds(workers, csr.Links()+1, hooks, snap, nil)
	if err != nil {
		return stats, err
	}
	return stats, a.checkInvariants()
}

// rounds runs Alg. 1 rounds over the pending list until a round has no
// proposal, firing hooks as documented on SoAHooks. scope lists the UEs
// whose Propose/Cloud events fire, ascending; nil means every UE. snap,
// when non-nil, is the buffer hooks.Snapshot receives. More than
// maxRounds rounds with proposals is an error.
func (a *Arena) rounds(workers, maxRounds int, hooks *SoAHooks, snap *Snapshot, scope []int32) (SoAStats, error) {
	var stats SoAStats
	for {
		stats.Rounds++
		if hooks != nil && hooks.Round != nil {
			hooks.Round(stats.Rounds)
		}
		n := a.proposeRound(workers)
		stats.Proposals += n
		if hooks != nil && (hooks.Propose != nil || hooks.Cloud != nil) {
			a.emitProposeEvents(hooks, scope)
		}
		if n > 0 {
			a.selectRound(workers, &stats, hooks)
		}
		if snap != nil {
			Capture(snap, stats.Rounds, &a.book, a.serving)
			hooks.Snapshot(snap)
		}
		if n == 0 {
			return stats, nil
		}
		if hooks != nil && hooks.RoundDone != nil {
			hooks.RoundDone(stats.Rounds, a)
		}
		if stats.Rounds > maxRounds {
			return stats, fmt.Errorf("engine: Alg. 1 exceeded %d rounds", maxRounds)
		}
	}
}

// reset rewinds the arena for a fresh run over csr, reusing storage.
// The O(links) candidate regions are NOT re-filled here: moving the
// stamp base invalidates every region at once, and each is rebuilt
// lazily at its UE's first propose (see initRegion) — so reset itself is
// O(UEs + BSs·Services), and a run only pays region setup for UEs that
// actually propose.
func (a *Arena) reset(csr *mec.CSR, cfg Config) {
	a.csr = csr
	a.cfg = cfg
	a.nprops = 0
	nUE, nBS, links := csr.UEs(), csr.BSs(), csr.Links()

	a.book.Reset(csr.Services, csr.CRUCap, csr.MaxRRB)

	a.serving = grown(a.serving, nUE)
	for i := range a.serving {
		a.serving[i] = -1
	}
	a.assigned.Reset(nUE)

	a.idx = grown(a.idx, links)
	a.live = grown(a.live, nUE)
	// One base move invalidates every region: stamps from earlier runs,
	// stale capacity included, all hold past run values.
	a.stamp = grown(a.stamp, nUE)
	a.advance()
	a.base = a.run

	if cap(a.pending) < nUE {
		a.pending = make([]int32, 0, nUE)
	}
	a.pending = a.pending[:0]
	for u := 0; u < nUE; u++ {
		if lo, hi := csr.CandRange(mec.UEID(u)); hi > lo {
			a.pending = append(a.pending, int32(u))
		}
	}

	a.props = grown(a.props, nUE)
	a.win = grown(a.win, len(csr.CRUCap))
	for i := range a.win {
		a.win[i].i = -1
	}
	a.hit.Reset(nBS)
}

// advance moves run to the next epoch. Stamps must never exceed run, so
// run only grows: on the (in practice unreachable) uint32 wrap every
// stamp is cleared and run and base restart at 1, where a cleared stamp
// reads invalid. It reports the wrap, so callers keeping run values of
// their own (the incremental credits) clear them too.
func (a *Arena) advance() (wrapped bool) {
	if a.run == ^uint32(0) {
		clear(a.stamp[:cap(a.stamp)])
		a.run, a.base = 1, 1
		return true
	}
	a.run++
	return false
}

// initRegion (re)builds UE u's candidate region for the current run:
// every candidate live, in candidate order. Called by the propose worker
// that owns u, so the writes are UE-local and race-free under parallel
// propose.
func (a *Arena) initRegion(u int32) {
	lo, hi := a.csr.Off[u], a.csr.Off[u+1]
	cnt := hi - lo
	a.live[u] = cnt
	for k := int32(0); k < cnt; k++ {
		a.idx[lo+k] = k
	}
	a.stamp[u] = a.run
}

// proposeRound runs one propose phase over the pending list across the
// given worker count and merges the per-chunk proposals in global UE
// order. The same pass compacts the pending list to this round's
// proposers and fills the per-(BS, service) argmin table the select
// phase reads. It returns the number of proposals.
func (a *Arena) proposeRound(workers int) int {
	n := len(a.pending)
	if n == 0 {
		a.nprops, a.swept = 0, 0
		return 0
	}
	workers = max(1, min(workers, a.helpers+1, n))
	a.chunk = (n + workers - 1) / workers
	a.wcnt = grown(a.wcnt, workers)
	a.wswept = grown(a.wswept, workers)
	a.fanOut(jobPropose, workers)
	a.proposeWorker(0)
	a.wg.Wait()

	out := 0
	a.swept = 0
	for w := 0; w < workers; w++ {
		if c := int(a.wcnt[w]); c > 0 {
			if lo := w * a.chunk; lo != out {
				copy(a.props[out:out+c], a.props[lo:lo+c])
			}
			out += c
		}
		a.swept += a.wswept[w]
	}
	a.nprops = out
	// Next round's pending list is exactly this round's proposers: a UE
	// leaves on assignment (checked at propose time) or on candidate
	// exhaustion (it stopped proposing): the UEs a full sweep would
	// still see propose.
	// Proposals arrive in ascending UE order, so keeping the first of
	// equal keys breaks ties to the lower UE, as prefers does.
	csr := a.csr
	S := int32(csr.Services)
	a.pending = a.pending[:out]
	for i, p := range a.props[:out] {
		a.pending[i] = p.ue
		b := csr.BS[p.g]
		slot := b*S + csr.Service[p.ue]
		if w := &a.win[slot]; w.i < 0 || p.key < w.key {
			if w.i < 0 {
				a.hit.Set(b)
			}
			*w = soaWinner{key: p.key, i: int32(i)}
		}
	}
	return out
}

// proposeWorker proposes for worker w's chunk of the pending list,
// writing proposals — each with its BS-preference key — into the props
// slice at the chunk's offset, and its counts into slot w. It reads the
// book and the assigned bitset but writes only UE-local candidate
// state and its own output slots.
func (a *Arena) proposeWorker(w int) {
	var cnt int32
	var swept uint64
	csr := a.csr
	props, pending := a.props, a.pending
	lo := min(w*a.chunk, len(pending))
	hi := min(lo+a.chunk, len(pending))
	for i := lo; i < hi; i++ {
		u := pending[i]
		if a.assigned.Get(u) {
			continue
		}
		if a.stamp[u] < a.base {
			a.initRegion(u)
		}
		swept += uint64(a.live[u])
		if g, ok := a.propose(u); ok {
			props[lo+int(cnt)] = soaProposal{
				key: a.cfg.selectKey(csr.SameSP[g], csr.Fu[u], csr.RRBs[g], csr.CRU[u]),
				ue:  u,
				g:   g,
			}
			cnt++
		}
	}
	a.wcnt[w] = cnt
	a.wswept[w] = swept
}

// propose is Proposer.Propose over the arena: one sweep of UE u's live
// candidates (idx[Off[u]:Off[u]+live[u]]) that drops every candidate
// the book can no longer fit and returns the global candidate index of
// the (preference, candidate-index)-lex minimum of the rest. Each
// proposal touches one contiguous int32 run plus the book.
func (a *Arena) propose(u int32) (int32, bool) {
	n := a.live[u]
	if n == 0 {
		return 0, false
	}
	csr := a.csr
	base := csr.Off[u]
	svc := csr.Service[u]
	need := csr.CRU[u]
	S := int32(csr.Services)
	bookCRU, bookRRB := a.book.CRU, a.book.RRB
	idx := a.idx
	best := int32(-1)
	var bestV float64
	for i := int32(0); i < n; {
		k := idx[base+i]
		gi := base + k
		b := csr.BS[gi]
		remCRU := bookCRU[b*S+svc]
		remRRB := bookRRB[b]
		if remCRU < need || remRRB < csr.RRBs[gi] {
			n--
			idx[base+i] = idx[base+n]
			continue
		}
		v := a.cfg.preference(csr.Price[gi], int(remCRU)+int(remRRB))
		if best < 0 || prefLess(v, k, bestV, best) {
			best, bestV = k, v
		}
		i++
	}
	a.live[u] = n
	if best < 0 {
		return 0, false
	}
	return base + best, true
}

// emitProposeEvents walks the scope in ascending UE order (nil: the
// whole population) and fires Propose for this round's proposers and
// Cloud for every other unassigned UE — the event order the naive
// reference and the message-passing runtimes produce.
func (a *Arena) emitProposeEvents(hooks *SoAHooks, scope []int32) {
	n := len(scope)
	if scope == nil {
		n = a.csr.UEs()
	}
	pi := 0
	for i := 0; i < n; i++ {
		u := int32(i)
		if scope != nil {
			u = scope[i]
		}
		if a.assigned.Get(u) {
			continue
		}
		if pi < a.nprops && a.props[pi].ue == u {
			if hooks.Propose != nil {
				hooks.Propose(u, a.csr.BS[a.props[pi].g])
			}
			pi++
		} else if hooks.Cloud != nil {
			hooks.Cloud(u)
		}
	}
}

// arenaJob is one phase slot handed to a helper goroutine: the propose
// or select work of worker w, or jobStop.
type arenaJob struct {
	kind uint8
	w    int
}

const (
	jobPropose uint8 = iota
	jobSelect
	jobStop
)

// startHelpers starts n helper goroutines for the run about to begin
// (none when n <= 0). Every start is paired with stopHelpers.
func (a *Arena) startHelpers(n int) {
	a.helpers = max(0, n)
	if a.helpers == 0 {
		return
	}
	if cap(a.jobs) < a.helpers {
		// One slot per helper: a phase sends at most that many jobs, so
		// the caller never blocks before running its own slot.
		a.jobs = make(chan arenaJob, a.helpers)
	}
	for range a.helpers {
		go a.helper()
	}
}

// stopHelpers stops the run's helpers and waits until every one has
// taken its stop job, so no helper outlives the run.
func (a *Arena) stopHelpers() {
	a.wg.Add(a.helpers)
	for range a.helpers {
		a.jobs <- arenaJob{kind: jobStop}
	}
	a.wg.Wait()
	a.helpers = 0
}

// helper runs phase jobs until it takes a stop job; each job ends with
// wg.Done, which joins the phase.
func (a *Arena) helper() {
	for j := range a.jobs {
		switch j.kind {
		case jobPropose:
			a.proposeWorker(j.w)
		case jobSelect:
			a.selectSlice(j.w, nil)
		}
		a.wg.Done()
		if j.kind == jobStop {
			return
		}
	}
}

// fanOut hands worker slots 1..workers-1 of a phase to the helpers; the
// caller runs slot 0 and then waits on wg.
func (a *Arena) fanOut(kind uint8, workers int) {
	a.wg.Add(workers - 1)
	for w := 1; w < workers; w++ {
		a.jobs <- arenaJob{kind: kind, w: w}
	}
}

// selectWorker is one select worker's scratch: the request batch of the
// BS in hand, the SelectRound buffers, and what is folded in after the
// join: the UEs it admitted this round and its counters.
type selectWorker struct {
	reqs     []Request
	sc       SelectScratch
	admitted []int32
	accepts  int
	rejects  int
}

// selectRound runs the select phase (Alg. 1 lines 11-26) for every BS
// with a winner in the argmin table, through the canonical
// Config.SelectRound against the arena's book. The ascending BS list is
// split into contiguous slices across up to workers goroutines; a
// Verdict hook forces one worker so verdicts fire in ascending BS order.
// After the join the admitted UEs' assigned bits are set and the
// counters summed, so the round's outcome is worker-count independent.
func (a *Arena) selectRound(workers int, stats *SoAStats, hooks *SoAHooks) {
	a.tbs = a.hit.Drain(a.tbs[:0])
	n := len(a.tbs)
	if hooks != nil && hooks.Verdict != nil {
		workers = 1
	}
	workers = max(1, min(workers, a.helpers+1, n))
	a.sw = grown(a.sw, workers)
	a.fanOut(jobSelect, workers)
	a.selectSlice(0, hooks)
	a.wg.Wait()
	for w := range a.sw {
		sw := &a.sw[w]
		stats.Accepts += sw.accepts
		stats.Rejects += sw.rejects
		for _, u := range sw.admitted {
			a.assigned.Set(u)
		}
	}
}

// selectSlice runs select worker w of len(a.sw) over its contiguous
// slice of the touched-BS list.
func (a *Arena) selectSlice(w int, hooks *SoAHooks) {
	n, k := len(a.tbs), len(a.sw)
	a.selectBSs(&a.sw[w], a.tbs[w*n/k:(w+1)*n/k], hooks)
}

// selectBSs runs SelectRound for each BS of bss, feeding it the BS's
// per-service winners in ascending service order — the order
// selectPerService emits, so the verdicts equal those of the full
// inbox — and resetting the BS's argmin row as it goes. Each accepted
// UE's serving slot is set here; its assigned bit waits for the join.
func (a *Arena) selectBSs(sw *selectWorker, bss []int32, hooks *SoAHooks) {
	csr := a.csr
	S := int32(csr.Services)
	sw.admitted = sw.admitted[:0]
	sw.accepts, sw.rejects = 0, 0
	for _, b := range bss {
		row := a.win[b*S : (b+1)*S]
		sw.reqs = sw.reqs[:0]
		for j := range row {
			i := row[j].i
			if i < 0 {
				continue
			}
			row[j].i = -1
			u, g := a.props[i].ue, a.props[i].g
			sw.reqs = append(sw.reqs, Request{
				UE:          mec.UEID(u),
				Service:     mec.ServiceID(j),
				CRUs:        int(csr.CRU[u]),
				RRBs:        int(csr.RRBs[g]),
				SameSP:      csr.SameSP[g],
				Fu:          int(csr.Fu[u]),
				PricePerCRU: csr.Price[g],
			})
		}
		for _, v := range a.cfg.SelectRound(&a.book, mec.BSID(b), sw.reqs, &sw.sc) {
			if v.Accepted {
				sw.accepts++
				a.serving[v.Req.UE] = b
				sw.admitted = append(sw.admitted, int32(v.Req.UE))
			} else {
				sw.rejects++
			}
			if hooks != nil && hooks.Verdict != nil {
				hooks.Verdict(b, v)
			}
		}
	}
}

// checkInvariants checks the final state: the bitset must agree with
// serving, and mec.Recount must find every served UE on a candidate
// link within capacity and the residuals equal to capacity minus the
// admitted demand.
func (a *Arena) checkInvariants() error {
	for u, b := range a.serving {
		if (b >= 0) != a.assigned.Get(int32(u)) {
			return fmt.Errorf("engine: arena state invalid: UE %d serving=%d but assigned bit %v", u, b, a.assigned.Get(int32(u)))
		}
	}
	if err := mec.Recount(a.csr, a.serving, &a.book, &a.use); err != nil {
		return fmt.Errorf("engine: arena state invalid: %w", err)
	}
	return nil
}

// Serving returns the per-UE serving BS indices (-1 = cloud) of the
// completed run. The slice is owned by the arena and valid until the
// next Run.
func (a *Arena) Serving() []int32 { return a.serving }

// UEs reports the population of the current run.
func (a *Arena) UEs() int { return a.csr.UEs() }

// Book returns the run's residual book, aliasing the arena's storage.
// Callers must not modify it.
func (a *Arena) Book() *mec.Book { return &a.book }

// AssignedCount returns the number of served UEs.
func (a *Arena) AssignedCount() int { return a.assigned.Count() }

// Swept returns the live candidates the latest propose phase swept, one
// Eq. 17 evaluation at most each: the dmra_pref_evaluations_total
// increment of the round.
func (a *Arena) Swept() uint64 { return a.swept }
