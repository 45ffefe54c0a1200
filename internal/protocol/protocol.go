// Package protocol executes DMRA (Alg. 1) as an actual decentralized
// message exchange between UE and BS agents on the discrete-event engine
// of internal/sim.
//
// Where alloc.DMRA resolves each iteration against a shared in-memory
// ledger, this package gives every base station its own private resource
// ledger and every UE its own local view of remaining resources, learned
// exclusively from the ResourceBroadcast messages the paper's Alg. 1
// line 26 prescribes. UEs decide from (possibly one-round-stale) local
// state, exactly as real handsets would. This runtime is a thin driver
// over internal/engine — proposal scoring, per-service selection, the
// prefix trim, and the view bookkeeping are the engine's; this
// package only moves the messages — so the final matching is
// bit-identical to the synchronous solver's, an equivalence the tests
// assert, while this runtime additionally reports message and round
// costs.
package protocol

import (
	"errors"
	"fmt"
	"math"

	"dmra/internal/alloc"
	"dmra/internal/engine"
	"dmra/internal/mec"
	"dmra/internal/obs"
	"dmra/internal/rng"
	"dmra/internal/sim"
)

// Config parameterizes a protocol run.
type Config struct {
	// DMRA is the algorithm configuration shared with alloc.DMRA.
	DMRA alloc.DMRAConfig
	// LatencyS is the one-way message latency in seconds; <= 0 selects
	// the 1 ms default, and a non-finite value is a config error.
	LatencyS float64
	// MaxRounds bounds the protocol (default: engine.RoundBound — one
	// round per candidate link + 1, the deferred-acceptance bound that
	// also covers trim-retry churn; lossy runs get a proportionally
	// larger default).
	MaxRounds int
	// DropRate is the independent loss probability of each point-to-point
	// message and of each broadcast reception. 0 (default) is the
	// loss-free protocol, whose outcome is bit-identical to alloc.DMRA.
	// With loss, UEs retry silently-dropped requests, BSs re-send accepts
	// to already-admitted requesters, and resource rejects prune the
	// sender's candidate list; the matching stays feasible but may differ
	// from the loss-free one and may leak reservations (see
	// Result.LeakedReservations).
	DropRate float64
	// LossSeed drives the loss process deterministically.
	LossSeed uint64
	// Obs, if non-nil, receives the typed observability stream, stamped
	// with simulation time: every event lands in the metrics registry and
	// trace sink, and per-round residual-capacity gauges are published
	// after each select phase. Rejects split into permanent and trim,
	// matching internal/wire's verdicts event for event.
	Obs *obs.Recorder
	// RoundHook, if non-nil, observes the full matching state at the end
	// of every round (the controller's decision point, after accepts have
	// been delivered): per-BS ledger residuals and per-UE serving BS. The
	// snapshot is reused across rounds; Clone to retain.
	RoundHook engine.RoundHook
}

// DefaultConfig returns a 1 ms-latency protocol with the default DMRA
// parameters.
func DefaultConfig() Config {
	return Config{DMRA: alloc.DefaultDMRAConfig(), LatencyS: 1e-3}
}

// Result is the outcome of a protocol run.
type Result struct {
	Assignment mec.Assignment
	// Rounds is the number of propose/select rounds executed.
	Rounds int
	// Messages is the total count of point-to-point messages plus one per
	// broadcast emission.
	Messages int
	// Requests, Accepts, Rejects and Broadcasts break Messages down.
	Requests   int
	Accepts    int
	Rejects    int
	Broadcasts int
	// Dropped counts messages lost to the configured DropRate.
	Dropped int
	// LeakedReservations counts BS-side reservations whose accept never
	// reached the UE before it gave up on that BS — resources held for a
	// UE that ended up served elsewhere (or on the cloud). Always 0 in
	// loss-free runs.
	LeakedReservations int
	// SimTimeS is the virtual completion time in seconds.
	SimTimeS float64
}

// ErrDidNotQuiesce is returned when the protocol exceeds MaxRounds, which
// indicates an implementation bug (Alg. 1 admits at least one UE per round
// with pending requests).
var ErrDidNotQuiesce = errors.New("protocol: exceeded round bound without quiescing")

// bsAgent is a base-station actor with a private resource ledger.
type bsAgent struct {
	id    mec.BSID
	led   *engine.BSLedger
	inbox []engine.Request
	sel   engine.SelectScratch
	// admitted records reservations so accepts can be re-sent
	// idempotently when the original accept was lost.
	admitted map[mec.UEID]bool
}

// Run executes the decentralized protocol to quiescence.
func Run(net *mec.Network, cfg Config) (Result, error) {
	if math.IsNaN(cfg.LatencyS) || math.IsInf(cfg.LatencyS, 0) {
		return Result{}, fmt.Errorf("protocol: latency %g is not finite", cfg.LatencyS)
	}
	if cfg.LatencyS <= 0 {
		cfg.LatencyS = 1e-3
	}
	if !(cfg.DropRate >= 0 && cfg.DropRate < 1) {
		return Result{}, fmt.Errorf("protocol: drop rate %g outside [0, 1)", cfg.DropRate)
	}
	if cfg.MaxRounds <= 0 {
		cfg.MaxRounds = engine.RoundBound(net)
		if cfg.DropRate > 0 {
			// Retries consume rounds; give lossy runs generous headroom.
			cfg.MaxRounds *= 10
		}
	}
	r := &runner{net: net, cfg: cfg, prop: engine.NewProposer(net, cfg.DMRA)}
	if cfg.DropRate > 0 {
		r.loss = rng.New(cfg.LossSeed).SplitLabeled("protocol-loss")
	}
	r.setup()
	return r.run()
}

type runner struct {
	net    *mec.Network
	cfg    Config
	engine sim.Engine
	bss    []*bsAgent
	loss   *rng.Source
	res    Result

	// serving[u] is the BS serving UE u, CloudBS until an accept arrives.
	serving []mec.BSID
	// prop is the UE side: each UE's live candidates and its
	// broadcast-fed resource views, swept by the engine's Eq. 17 rule.
	prop *engine.Proposer
	// swept counts the candidates the proposer has swept, and lastSwept
	// its value at the previous round, for the per-round observability
	// delta.
	swept, lastSwept uint64

	// requestsThisRound implements the termination converge-cast: in a
	// deployment this would be a timeout at the SP layer; in simulation the
	// controller counts the round's requests directly.
	requestsThisRound int

	// snap is the reused RoundHook snapshot (nil when no hook is set).
	snap *engine.Snapshot

	// fatal records an engine-level failure surfaced inside an event
	// callback; run() converts it into the returned error.
	fatal error
}

// lost samples the loss process for one message or broadcast reception.
func (r *runner) lost() bool {
	if r.loss == nil {
		return false
	}
	if r.loss.Float64() >= r.cfg.DropRate {
		return false
	}
	r.res.Dropped++
	return true
}

func (r *runner) setup() {
	r.serving = mec.NewAssignment(len(r.net.UEs)).ServingBS
	r.bss = make([]*bsAgent, len(r.net.BSs))
	for b := range r.net.BSs {
		bs := &r.net.BSs[b]
		r.bss[b] = &bsAgent{
			id:       mec.BSID(b),
			led:      engine.NewBSLedger(bs.CRUCapacity, bs.MaxRRBs),
			admitted: make(map[mec.UEID]bool),
		}
	}
	if r.cfg.RoundHook != nil {
		r.snap = engine.NewSnapshot(r.net)
	}
}

// exportRound fires the RoundHook with the state at the controller's
// end-of-round decision point: accepts scheduled at select time have
// been delivered, so agents' serving BSs agree with the BS ledgers
// (loss-free runs; lost accepts show up as ledger debits without a
// matching assignment, exactly the leaked reservations the Result
// reports).
func (r *runner) exportRound(round int) {
	if r.cfg.RoundHook == nil {
		return
	}
	r.snap.Round = round
	for b, bs := range r.bss {
		copy(r.snap.CRURow(b), bs.led.RemainingCRU())
		r.snap.RemRRB[b] = bs.led.RemainingRRBs()
	}
	copy(r.snap.ServingBS, r.serving)
	r.cfg.RoundHook(r.snap)
}

func (r *runner) run() (Result, error) {
	var protocolErr error
	r.engine.Schedule(0, func() { r.startRound(1, &protocolErr) })
	r.engine.Run()
	if protocolErr != nil {
		return Result{}, protocolErr
	}
	if r.fatal != nil {
		return Result{}, fmt.Errorf("protocol: %w", r.fatal)
	}

	r.res.Assignment = mec.Assignment{ServingBS: r.serving}
	if err := mec.ValidateAssignment(r.net, r.res.Assignment); err != nil {
		return Result{}, fmt.Errorf("protocol: produced invalid assignment: %w", err)
	}
	// Reservations whose accept never took effect at the UE are leaked
	// capacity — a consequence of message loss a deployment would reclaim
	// with reservation timeouts.
	for _, bs := range r.bss {
		for u := range bs.admitted {
			if r.serving[u] != bs.id {
				r.res.LeakedReservations++
			}
		}
	}
	r.res.SimTimeS = r.engine.Now()
	return r.res, nil
}

// observe emits one event on the typed observability stream.
func (r *runner) observe(kind obs.EventKind, round int, ue mec.UEID, bs mec.BSID) {
	if r.cfg.Obs != nil {
		r.cfg.Obs.EventAt(r.engine.Now(), kind, round, int(ue), int(bs))
	}
}

// startRound runs the UE propose phase and schedules the BS select phase.
func (r *runner) startRound(round int, protocolErr *error) {
	if round > r.cfg.MaxRounds {
		*protocolErr = fmt.Errorf("%w: round %d", ErrDidNotQuiesce, round)
		return
	}
	r.res.Rounds = round
	r.requestsThisRound = 0
	r.observe(obs.KindRound, round, -1, -1)
	L := r.cfg.LatencyS

	for u, b := range r.serving {
		if b != mec.CloudBS {
			continue
		}
		req, bsID, ok := r.propose(mec.UEID(u))
		if !ok {
			continue
		}
		r.requestsThisRound++
		r.res.Requests++
		r.res.Messages++
		r.observe(obs.KindPropose, round, req.UE, bsID)
		if r.lost() {
			continue // the UE retries next round
		}
		target := r.bss[bsID]
		r.engine.Schedule(L, func() { target.inbox = append(target.inbox, req) })
	}

	// BSs process their inboxes after every request has arrived.
	r.engine.Schedule(1.5*L, func() { r.selectPhase(round) })
	// The controller decides after the full round trip whether to go on.
	r.engine.Schedule(3*L, func() {
		r.exportRound(round)
		if r.requestsThisRound == 0 {
			return // quiesced: no events pending, engine drains
		}
		r.startRound(round+1, protocolErr)
	})
}

// propose picks the UE's best candidate from its local view through the
// engine's proposer, dropping candidates the view says are exhausted
// (Alg. 1 lines 4-10).
func (r *runner) propose(u mec.UEID) (engine.Request, mec.BSID, bool) {
	req, bsID, ok := r.prop.Propose(u, &r.swept)
	if !ok {
		r.observe(obs.KindCloudFallback, r.res.Rounds, u, mec.CloudBS)
	}
	return req, bsID, ok
}

// selectPhase runs every BS's Alg. 1 lines 11-26 on its private ledger via
// the engine's select round, then sends accept/reject plus a resource
// broadcast.
func (r *runner) selectPhase(round int) {
	for _, bs := range r.bss {
		if len(bs.inbox) == 0 {
			continue
		}
		reqs := bs.inbox
		bs.inbox = nil

		// Requests from UEs this BS already admitted mean the original
		// accept was lost: re-send it idempotently without touching the
		// ledger.
		fresh := reqs[:0]
		for _, req := range reqs {
			if bs.admitted[req.UE] {
				r.sendAccept(round, bs, req.UE)
				continue
			}
			fresh = append(fresh, req)
		}
		if len(fresh) == 0 {
			r.broadcast(round, bs)
			continue
		}

		verdicts, err := r.cfg.DMRA.SelectRound(bs.led, fresh, &bs.sel)
		if err != nil {
			if r.fatal == nil {
				r.fatal = err
			}
			return
		}
		for _, v := range verdicts {
			if v.Accepted {
				bs.admitted[v.Req.UE] = true
				r.sendAccept(round, bs, v.Req.UE)
			} else {
				r.sendReject(round, bs, v.Req.UE, v.Permanent)
			}
		}

		r.broadcast(round, bs)
	}

	if r.cfg.Obs != nil {
		admitted := 0
		for _, bs := range r.bss {
			crus := 0
			for _, c := range bs.led.RemainingCRU() {
				crus += c
			}
			r.cfg.Obs.Residual(int(bs.id), crus, bs.led.RemainingRRBs())
			admitted += len(bs.admitted)
		}
		r.cfg.Obs.Unmatched(len(r.serving) - admitted)
		r.cfg.Obs.SweptCandidates(int64(r.swept - r.lastSwept))
		r.lastSwept = r.swept
	}
}

// sendAccept delivers an admission notice to the UE, subject to loss.
func (r *runner) sendAccept(round int, bs *bsAgent, u mec.UEID) {
	r.res.Accepts++
	r.res.Messages++
	r.observe(obs.KindAccept, round, u, bs.id)
	if r.lost() {
		return
	}
	bsID := bs.id
	r.engine.Schedule(r.cfg.LatencyS, func() { r.serving[u] = bsID })
}

// sendReject delivers a resource reject. A permanent reject (the BS can
// no longer fit the request at all) makes the UE prune the BS from its
// candidate set on receipt; a non-permanent trim reject carries no state
// change — the UE simply retries from its next broadcast-updated view.
func (r *runner) sendReject(round int, bs *bsAgent, u mec.UEID, permanent bool) {
	r.res.Rejects++
	r.res.Messages++
	if permanent {
		r.observe(obs.KindRejectPermanent, round, u, bs.id)
	} else {
		r.observe(obs.KindRejectTrim, round, u, bs.id)
	}
	if r.lost() || !permanent {
		return
	}
	bsID := bs.id
	r.engine.Schedule(r.cfg.LatencyS, func() { r.prop.DropBS(u, bsID) })
}

// broadcast emits the BS's remaining resources to every covered UE
// (Alg. 1 line 26). One emission; each reception is individually subject
// to loss.
func (r *runner) broadcast(round int, bs *bsAgent) {
	r.res.Broadcasts++
	r.res.Messages++
	r.observe(obs.KindBroadcast, round, -1, bs.id)
	remCRU := append([]int(nil), bs.led.RemainingCRU()...)
	remRRB := bs.led.RemainingRRBs()
	bsID := bs.id
	var missed []mec.UEID
	if r.loss != nil {
		for _, u := range r.prop.Covered(bsID) {
			if r.lost() {
				missed = append(missed, u)
			}
		}
	}
	r.engine.Schedule(r.cfg.LatencyS, func() {
		// A UE that missed the reception keeps its older view, which
		// only over-promises: broadcasts arrive in order and residuals
		// never grow, so every view stays monotone non-increasing.
		r.prop.ApplyBroadcast(bsID, remCRU, remRRB, missed)
	})
}
