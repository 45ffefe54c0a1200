package alloc

import (
	"fmt"
	"math"
	"sync"

	"dmra/internal/engine"
	"dmra/internal/mec"
	"dmra/internal/obs"
)

// DMRAConfig parameterizes the DMRA scheme. It is the engine's Config
// under the name the experiment layers have always used; see
// internal/engine for the ablation-switch documentation.
type DMRAConfig = engine.Config

// DefaultDMRAConfig returns the paper's algorithm with a mid-sweep rho
// (the Fig. 6 sweep peaks between rho = 250 and 1000 under the default
// scenario; 250 performs well at both iota settings).
func DefaultDMRAConfig() DMRAConfig {
	return engine.DefaultConfig()
}

// DMRA is the Decentralized Multi-SP Resource Allocation scheme (Alg. 1).
//
// This type is the synchronous in-memory solver: it drives the canonical
// round state machine of internal/engine against a shared ledger.
// internal/protocol runs the same engine rounds as real message exchange
// between UE/BS actors and internal/wire runs them over TCP; the three are
// integration-tested to produce identical assignments.
type DMRA struct {
	cfg  DMRAConfig
	obs  *obs.Recorder
	hook engine.RoundHook
	// naive forces the reference implementation (full Eq. 17 sweep per
	// proposal, fresh buffers every round); the differential fuzz target
	// pins the fast path against it.
	naive bool
	// legacy forces the pointer-based engine even when the network
	// has a dense SoA view; the SoA differential fuzz target pins the
	// arena engine against it.
	legacy bool
	// workers is the SoA propose-phase worker count; 0 means GOMAXPROCS.
	// Results are byte-identical at any value.
	workers int
	// pool recycles runState across Allocate calls. Experiment drivers
	// share one allocator instance across worker goroutines, so the
	// scratch must be pooled, not a struct field.
	pool sync.Pool
}

// stateLedger adapts one BS's slice of the shared mec.State to the
// engine.Ledger the select phase admits against. It lives in the pooled
// runState and is passed by pointer so the interface conversion never
// allocates on the hot path.
type stateLedger struct {
	state *mec.State
	bs    mec.BSID
}

// Residual implements engine.Ledger.
func (l *stateLedger) Residual(j mec.ServiceID) (remCRU, remRRBs int) {
	return l.state.Residual(l.bs, j)
}

// Admit implements engine.Ledger by granting through the shared state,
// which enforces the capacity constraints once more. The engine only
// admits after a Residual feasibility check, so a failure here is a real
// bug, not a trim.
func (l *stateLedger) Admit(r engine.Request) error {
	return l.state.Assign(r.UE, l.bs)
}

// runState is the recycled per-run scratch of the legacy engine driver:
// the ledger, the proposer, and every buffer the round loop needs, so a
// steady-state Allocate performs no heap allocations with a nil
// observer.
type runState struct {
	state *mec.State
	prop  *engine.Proposer
	led   stateLedger
	// arena is the struct-of-arrays engine state, used instead of the
	// fields below whenever the network has a dense candidate view.
	arena *engine.Arena
	// inbox[b] collects the requests BS b received this iteration.
	inbox [][]engine.Request
	// sel is the select-phase scratch shared across this run's BSs.
	sel engine.SelectScratch
	// pending holds the UEs that can still propose: unassigned with a
	// non-empty candidate set. The nil-observer round loop iterates and
	// compacts it in place, so late rounds — and online epochs, where
	// most of the population is inactive with zero candidates — cost
	// proportional to the contended UEs, not the whole population.
	pending []mec.UEID
	// swept counts the candidates the proposer has swept this run, and
	// lastSwept its value at the previous round boundary, for the
	// per-round observability deltas.
	swept, lastSwept uint64
}

var _ Allocator = (*DMRA)(nil)

// NewDMRA returns a DMRA allocator with the given configuration.
func NewDMRA(cfg DMRAConfig) *DMRA {
	return &DMRA{cfg: cfg}
}

// WithObserver attaches an observability recorder and returns the
// allocator for chaining. A nil recorder (the default) keeps Allocate
// allocation-free on the hot path: every instrumentation site is behind
// one pointer test.
func (d *DMRA) WithObserver(rec *obs.Recorder) *DMRA {
	d.obs = rec
	return d
}

// WithProposeWorkers sets the SoA engine's worker count — the propose
// phase's, and the select phase's width when no Verdict event is
// observed — and returns the allocator for chaining. Zero (the default)
// means GOMAXPROCS. The assignment, statistics, and event stream are
// byte-identical at any worker count; the knob only trades wall-clock
// for cores.
func (d *DMRA) WithProposeWorkers(n int) *DMRA {
	d.workers = n
	return d
}

// WithRoundHook attaches a per-round state-export hook and returns the
// allocator for chaining. The hook fires once per round — after the
// select phase, and once more for the final round in which no UE
// proposed — with the full matching state at that barrier. The snapshot
// is reused across calls; Clone to retain. Nil (the default) is free.
func (d *DMRA) WithRoundHook(h engine.RoundHook) *DMRA {
	d.hook = h
	return d
}

// Name implements Allocator.
func (d *DMRA) Name() string { return "DMRA" }

// Config returns the allocator's configuration.
func (d *DMRA) Config() DMRAConfig { return d.cfg }

// Preference evaluates v_{u,i} (Eq. 17) under the current ledger.
func (d *DMRA) Preference(s *mec.State, l mec.Link) float64 {
	ue := &s.Network().UEs[l.UE]
	return d.cfg.Preference(l, s.RemainingCRU(l.BS, ue.Service), s.RemainingRRBs(l.BS))
}

// Allocate implements Allocator by running Alg. 1 to quiescence.
func (d *DMRA) Allocate(net *mec.Network) (Result, error) {
	var res Result
	if err := d.AllocateInto(net, &res); err != nil {
		return Result{}, err
	}
	return res, nil
}

// AllocateInto runs Alg. 1 to quiescence, writing the outcome into res
// and reusing res's backing storage where possible. Callers that recycle
// the same Result (benchmarks, repeated experiment points) see zero heap
// allocations per run in steady state with a nil observer.
func (d *DMRA) AllocateInto(net *mec.Network, res *Result) error {
	if d.naive {
		return d.allocateNaive(net, res)
	}
	// The SoA arena engine is the default whenever the network carries a
	// dense candidate view (NewNetwork-built, fits int32 indices) and rho
	// is non-negative (the lazy-heap exactness precondition). SubView
	// networks — whose candidate lists change across Refresh — and
	// negative-rho ablations take the pointer-based engine below.
	if !d.legacy && d.cfg.Rho >= 0 && net.Dense() != nil {
		return d.allocateSoA(net, res)
	}
	rs, _ := d.pool.Get().(*runState)
	if rs == nil {
		rs = &runState{state: &mec.State{}, prop: &engine.Proposer{}}
	}
	defer d.pool.Put(rs)
	rs.state.Reset(net)
	rs.prop.Reset(net, d.cfg)
	rs.led.state = rs.state
	rs.swept, rs.lastSwept = 0, 0
	if cap(rs.inbox) < len(net.BSs) {
		rs.inbox = make([][]engine.Request, len(net.BSs))
	}
	rs.inbox = rs.inbox[:len(net.BSs)]
	for b := range rs.inbox {
		rs.inbox[b] = rs.inbox[b][:0]
	}
	rs.pending = rs.pending[:0]
	if d.obs == nil {
		for u := range net.UEs {
			if uid := mec.UEID(u); !rs.prop.Empty(uid) {
				rs.pending = append(rs.pending, uid)
			}
		}
	}

	var snap *engine.Snapshot
	if d.hook != nil {
		snap = engine.NewSnapshot(net)
	}
	var stats Stats
	maxRounds := engine.RoundBound(net)
	for {
		stats.Iterations++
		if d.obs != nil {
			d.obs.Event(obs.KindRound, stats.Iterations, -1, -1)
		}

		// --- Propose phase (Alg. 1 lines 3-10) ---
		anyRequest := false
		if d.obs == nil {
			// Fast path: iterate only UEs that can still propose,
			// compacting the pending list in place. A UE leaves it on
			// assignment or candidate exhaustion — exactly when the full
			// scan below would stop producing requests for it — so the
			// round count and every request batch are identical.
			kept := rs.pending[:0]
			for _, uid := range rs.pending {
				if rs.state.Assigned(uid) {
					continue
				}
				req, bs, ok := rs.prop.Propose(uid, rs.state, &rs.swept)
				if !ok {
					continue
				}
				kept = append(kept, uid)
				rs.inbox[bs] = append(rs.inbox[bs], req)
				stats.Proposals++
				anyRequest = true
			}
			rs.pending = kept
		} else {
			// Observed path: the full population scan, so the event
			// stream (including per-round cloud fallbacks of exhausted
			// UEs) stays byte-identical to the message-passing runtimes.
			for u := range net.UEs {
				uid := mec.UEID(u)
				if rs.state.Assigned(uid) {
					continue
				}
				req, bs, ok := rs.prop.Propose(uid, rs.state, &rs.swept)
				if ok {
					rs.inbox[bs] = append(rs.inbox[bs], req)
					stats.Proposals++
					anyRequest = true
					d.obs.Event(obs.KindPropose, stats.Iterations, u, int(bs))
				} else {
					d.obs.Event(obs.KindCloudFallback, stats.Iterations, u, int(mec.CloudBS))
				}
			}
		}
		if !anyRequest {
			if d.hook != nil {
				snap.CaptureState(rs.state, stats.Iterations)
				d.hook(snap)
			}
			break
		}

		// --- Select phase (Alg. 1 lines 11-26) ---
		for b := range net.BSs {
			reqs := rs.inbox[b]
			if len(reqs) == 0 {
				continue
			}
			rs.led.bs = mec.BSID(b)
			verdicts, err := d.cfg.SelectRound(&rs.led, reqs, &rs.sel)
			if err != nil {
				return fmt.Errorf("alloc: DMRA admit: %w", err)
			}
			d.applyVerdicts(mec.BSID(b), verdicts, &stats)
			rs.inbox[b] = reqs[:0]
		}
		if d.hook != nil {
			snap.CaptureState(rs.state, stats.Iterations)
			d.hook(snap)
		}
		if d.obs != nil {
			d.observeRound(net, rs.state)
			// The sweep reads every live candidate afresh: no cache hits.
			d.obs.PrefCacheRound(int64(rs.swept-rs.lastSwept), int64(rs.swept-rs.lastSwept))
			rs.lastSwept = rs.swept
		}

		if stats.Iterations > maxRounds {
			// Every iteration with pending requests either assigns a UE or
			// permanently drops a candidate link, so engine.RoundBound can
			// only trip on an implementation bug. Fail loudly rather than
			// spin.
			return fmt.Errorf("alloc: DMRA exceeded %d iterations", maxRounds)
		}
	}

	if err := rs.state.CheckInvariants(); err != nil {
		return fmt.Errorf("alloc: DMRA produced invalid state: %w", err)
	}
	res.Assignment = rs.state.SnapshotInto(res.Assignment)
	res.Stats = stats
	return nil
}

// allocateSoA runs Alg. 1 through the struct-of-arrays arena engine:
// flat candidate heaps, a dense ledger, arena storage reused across
// Allocate calls via the same pool as the legacy scratch, and an
// optionally parallel propose phase. With a nil observer and hook the
// run performs zero steady-state heap allocations; with them attached
// it reproduces the exact event and snapshot streams of the legacy
// driver (the SoA parity fuzz pins both).
func (d *DMRA) allocateSoA(net *mec.Network, res *Result) error {
	rs, _ := d.pool.Get().(*runState)
	if rs == nil {
		rs = &runState{state: &mec.State{}, prop: &engine.Proposer{}}
	}
	defer d.pool.Put(rs)
	if rs.arena == nil {
		rs.arena = &engine.Arena{}
	}
	a := rs.arena

	var hooks *engine.SoAHooks
	if d.obs != nil || d.hook != nil {
		hooks = &engine.SoAHooks{Snapshot: d.hook}
		if d.obs != nil {
			round := 0
			var lastScanned, lastRescored uint64
			hooks.Round = func(r int) {
				round = r
				d.obs.Event(obs.KindRound, r, -1, -1)
			}
			hooks.Propose = func(u, b int32) {
				d.obs.Event(obs.KindPropose, round, int(u), int(b))
			}
			hooks.Cloud = func(u int32) {
				d.obs.Event(obs.KindCloudFallback, round, int(u), int(mec.CloudBS))
			}
			hooks.Verdict = func(b int32, v engine.Verdict) {
				if v.Accepted {
					d.obs.Event(obs.KindAccept, round, int(v.Req.UE), int(b))
				} else {
					d.obs.Event(obs.KindRejectTrim, round, int(v.Req.UE), int(b))
				}
			}
			hooks.RoundDone = func(int) {
				d.observeArenaRound(a)
				scanned, rescored := a.CacheStats()
				d.obs.PrefCacheRound(int64(scanned-lastScanned), int64(rescored-lastRescored))
				lastScanned, lastRescored = scanned, rescored
			}
		}
	}

	stats, err := a.Run(net, d.cfg, d.workers, hooks)
	if err != nil {
		return fmt.Errorf("alloc: DMRA: %w", err)
	}
	serving := a.Serving()
	if cap(res.Assignment.ServingBS) < len(serving) {
		res.Assignment.ServingBS = make([]mec.BSID, len(serving))
	}
	res.Assignment.ServingBS = res.Assignment.ServingBS[:len(serving)]
	for u, b := range serving {
		res.Assignment.ServingBS[u] = mec.BSID(b)
	}
	res.Stats = Stats{
		Iterations: stats.Rounds,
		Proposals:  stats.Proposals,
		Accepts:    stats.Accepts,
		Rejects:    stats.Rejects,
	}
	return nil
}

// observeArenaRound is observeRound over the arena's dense ledger.
func (d *DMRA) observeArenaRound(a *engine.Arena) {
	for b := 0; b < a.BSs(); b++ {
		crus := 0
		for j := 0; j < a.Services(); j++ {
			crus += a.RemCRU(b, j)
		}
		d.obs.Residual(b, crus, a.RemRRB(b))
	}
	d.obs.Unmatched(a.UEs() - a.AssignedCount())
}

// applyVerdicts folds one BS's round verdicts into the run statistics and
// the observability stream. The synchronous solver does not distinguish
// permanent from trim rejects in its event stream: every rejected request
// retries next iteration, where the propose-time feasibility check makes
// exactly that distinction one round later (mirroring the message-passing
// runtimes' permanent/trim split).
func (d *DMRA) applyVerdicts(b mec.BSID, verdicts []engine.Verdict, stats *Stats) {
	for _, v := range verdicts {
		if v.Accepted {
			stats.Accepts++
			if d.obs != nil {
				d.obs.Event(obs.KindAccept, stats.Iterations, int(v.Req.UE), int(b))
			}
		} else {
			stats.Rejects++
			if d.obs != nil {
				d.obs.Event(obs.KindRejectTrim, stats.Iterations, int(v.Req.UE), int(b))
			}
		}
	}
}

// allocateNaive is the reference Alg. 1 implementation: a full Eq. 17
// sweep per proposal over a shrinking candidate set, with fresh buffers
// every round. The differential fuzz target asserts the engine matches
// it bit for bit. Both paths share the engine's select phase — the
// engine/naive split is about how proposals are scored, which is the
// part the engine's propose paths accelerate.
func (d *DMRA) allocateNaive(net *mec.Network, res *Result) error {
	state := mec.NewState(net)
	cands := newCandidateSet(net)
	var stats Stats
	var sel engine.SelectScratch
	led := stateLedger{state: state}

	// inbox[b] collects the service requests BS b received this iteration.
	inbox := make([][]engine.Request, len(net.BSs))

	var snap *engine.Snapshot
	if d.hook != nil {
		snap = engine.NewSnapshot(net)
	}
	maxRounds := engine.RoundBound(net)
	for {
		stats.Iterations++
		if d.obs != nil {
			d.obs.Event(obs.KindRound, stats.Iterations, -1, -1)
		}

		// --- Propose phase (Alg. 1 lines 3-10) ---
		anyRequest := false
		for u := range net.UEs {
			uid := mec.UEID(u)
			if state.Assigned(uid) {
				continue
			}
			proposed := false
			for !cands.empty(uid) {
				pos, link, ok := d.bestCandidate(state, cands, uid)
				if !ok {
					break
				}
				if state.CanServe(uid, link.BS) {
					ue := &net.UEs[uid]
					inbox[link.BS] = append(inbox[link.BS], engine.Request{
						UE:          uid,
						Service:     ue.Service,
						CRUs:        ue.CRUDemand,
						RRBs:        link.RRBs,
						SameSP:      link.SameSP,
						Fu:          net.CoverCount(uid),
						PricePerCRU: link.PricePerCRU,
					})
					stats.Proposals++
					anyRequest = true
					proposed = true
					if d.obs != nil {
						d.obs.Event(obs.KindPropose, stats.Iterations, u, int(link.BS))
					}
					break
				}
				cands.dropIdx(uid, pos)
			}
			if !proposed && d.obs != nil {
				d.obs.Event(obs.KindCloudFallback, stats.Iterations, u, int(mec.CloudBS))
			}
		}
		if !anyRequest {
			if d.hook != nil {
				snap.CaptureState(state, stats.Iterations)
				d.hook(snap)
			}
			break
		}

		// --- Select phase (Alg. 1 lines 11-26) ---
		for b := range net.BSs {
			reqs := inbox[b]
			if len(reqs) == 0 {
				continue
			}
			inbox[b] = nil
			led.bs = mec.BSID(b)
			verdicts, err := d.cfg.SelectRound(&led, reqs, &sel)
			if err != nil {
				return fmt.Errorf("alloc: DMRA admit: %w", err)
			}
			d.applyVerdicts(mec.BSID(b), verdicts, &stats)
		}
		if d.hook != nil {
			snap.CaptureState(state, stats.Iterations)
			d.hook(snap)
		}
		if d.obs != nil {
			d.observeRound(net, state)
		}

		if stats.Iterations > maxRounds {
			return fmt.Errorf("alloc: DMRA exceeded %d iterations", maxRounds)
		}
	}

	if err := state.CheckInvariants(); err != nil {
		return fmt.Errorf("alloc: DMRA produced invalid state: %w", err)
	}
	res.Assignment = state.SnapshotInto(res.Assignment)
	res.Stats = stats
	return nil
}

// bestCandidate returns the position and link of u's minimum-v candidate.
func (d *DMRA) bestCandidate(s *mec.State, cands *candidateSet, u mec.UEID) (int, mec.Link, bool) {
	bestPos := -1
	var bestLink mec.Link
	bestV := math.Inf(1)
	cands.forEach(s.Network(), u, func(pos int, l mec.Link) {
		if v := d.Preference(s, l); v < bestV {
			bestV, bestPos, bestLink = v, pos, l
		}
	})
	if bestPos < 0 {
		return 0, mec.Link{}, false
	}
	return bestPos, bestLink, true
}

// observeRound publishes the per-round gauges: residual capacity per BS
// (CRUs summed over services, RRBs) and the unmatched-UE count. Called
// once per select phase, only when an observer is attached.
func (d *DMRA) observeRound(net *mec.Network, state *mec.State) {
	for b := range net.BSs {
		crus := 0
		for j := 0; j < net.Services; j++ {
			crus += state.RemainingCRU(mec.BSID(b), mec.ServiceID(j))
		}
		d.obs.Residual(b, crus, state.RemainingRRBs(mec.BSID(b)))
	}
	unmatched := 0
	for u := range net.UEs {
		if !state.Assigned(mec.UEID(u)) {
			unmatched++
		}
	}
	d.obs.Unmatched(unmatched)
}
