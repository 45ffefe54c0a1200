package alloc

import (
	"fmt"
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
	// workers is the arena's worker count; 0 means GOMAXPROCS. Results
	// are byte-identical at any value.
	workers int
	// pool recycles engine.Arena storage across Allocate calls.
	// Experiment drivers share one allocator instance across worker
	// goroutines, so the arena must be pooled, not a struct field.
	pool sync.Pool
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
			book := a.Book()
			for b, rrbs := range book.RRB {
				crus := 0
				for _, c := range book.Row(mec.BSID(b)) {
					crus += int(c)
				}
				rec.Residual(b, crus, int(rrbs))
			}
			rec.Unmatched(a.UEs() - a.AssignedCount())
			rec.SweptCandidates(int64(a.Swept()))
		},
	}
}
