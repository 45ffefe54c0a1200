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
// This type is the synchronous in-memory solver. It runs the
// struct-of-arrays engine (engine.Arena) over the network's candidate
// store, a mec.SubView's included. internal/protocol
// runs the same engine rounds as real message exchange between UE/BS
// actors and internal/wire runs them over TCP; the runtimes are
// integration-tested to produce identical assignments.
type DMRA struct {
	cfg  DMRAConfig
	obs  *obs.Recorder
	hook engine.RoundHook
	// naive forces the reference implementation (full Eq. 17 sweep per
	// proposal, fresh buffers every round); the parity suites pin the
	// arena engine against it.
	naive bool
	// workers is the arena's worker count; 0 means GOMAXPROCS. Results
	// are byte-identical at any value.
	workers int
	// pool recycles engine.Arena storage across Allocate calls.
	// Experiment drivers share one allocator instance across worker
	// goroutines, so the arena must be pooled, not a struct field.
	pool sync.Pool
}

// stateLedger adapts one BS's slice of the shared mec.State to the
// engine.Ledger the naive reference's select phase admits against.
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
	a, _ := d.pool.Get().(*engine.Arena)
	if a == nil {
		a = &engine.Arena{}
	}
	defer d.pool.Put(a)

	var hooks *engine.SoAHooks
	if d.obs != nil {
		hooks = ArenaHooks(d.obs)
	}
	if d.hook != nil {
		if hooks == nil {
			hooks = &engine.SoAHooks{}
		}
		hooks.Snapshot = d.hook
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

// ArenaHooks returns the hooks that stream an arena run — Arena.Run or
// an Incremental settle — to rec: the Alg. 1 events under the run's own
// round numbers, and after each round with proposals the per-BS
// residual gauges, the unmatched gauge (UEs without a standing match)
// and the round's swept candidates as dmra_pref_evaluations_total. The
// hooks carry the current round, so concurrent runs need separate sets;
// sequential runs (an online session's settles) may share one.
func ArenaHooks(rec *obs.Recorder) *engine.SoAHooks {
	round := 0
	return &engine.SoAHooks{
		Round: func(r int) {
			round = r
			rec.Event(obs.KindRound, r, -1, -1)
		},
		Propose: func(u, b int32) {
			rec.Event(obs.KindPropose, round, int(u), int(b))
		},
		Cloud: func(u int32) {
			rec.Event(obs.KindCloudFallback, round, int(u), int(mec.CloudBS))
		},
		Verdict: func(b int32, v engine.Verdict) {
			if v.Accepted {
				rec.Event(obs.KindAccept, round, int(v.Req.UE), int(b))
			} else {
				rec.Event(obs.KindRejectTrim, round, int(v.Req.UE), int(b))
			}
		},
		RoundDone: func(_ int, a *engine.Arena) {
			for b := 0; b < a.BSs(); b++ {
				crus := 0
				for j := 0; j < a.Services(); j++ {
					crus += a.RemCRU(b, j)
				}
				rec.Residual(b, crus, a.RemRRB(b))
			}
			rec.Unmatched(a.UEs() - a.AssignedCount())
			rec.SweptCandidates(int64(a.Swept()))
		},
	}
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
