package obs

import (
	"strconv"
	"sync"
)

// Recorder is what instrumented code holds: it fans each protocol event
// into the metrics registry (counters split by kind) and the trace sink,
// and maintains the per-round gauges (per-BS residual capacity, unmatched
// UEs). Either half may be nil; a nil *Recorder disables everything at the
// cost of one pointer test per call site.
type Recorder struct {
	reg  *Registry
	sink *Sink

	rounds     *Counter
	proposals  *Counter
	accepts    *Counter
	rejPerm    *Counter
	rejTrim    *Counter
	cloud      *Counter
	broadcasts *Counter

	unmatched *Gauge
	taskHist  *Histogram
	prefEval  *Counter

	deltaFrontier    *Gauge
	deltaReleased    *Counter
	deltaInvalidated *Counter
	deltaRounds      *Counter

	regionHandoffs *Counter
	bsCrashes      *Counter
	bsRestarts     *Counter
	readmitted     *Counter

	// Interned per-BS residual gauges, indexed by BS id. Residual runs
	// once per BS per round, which at cluster scale made the per-call
	// fmt.Sprintf-style label build plus registry lookup a measurable
	// slice of the observed path; the gauges are resolved once and the
	// steady state is a lock-free-read slice index under an RLock.
	resMu  sync.RWMutex
	resCRU []*Gauge
	resRRB []*Gauge
}

// NewRecorder bundles a registry and a trace sink (either may be nil; a
// fully-nil recorder is better expressed as a nil *Recorder).
func NewRecorder(reg *Registry, sink *Sink) *Recorder {
	return &Recorder{
		reg:        reg,
		sink:       sink,
		rounds:     reg.Counter("dmra_rounds_total"),
		proposals:  reg.Counter("dmra_proposals_total"),
		accepts:    reg.Counter("dmra_accepts_total"),
		rejPerm:    reg.Counter(Label("dmra_rejects_total", "type", "permanent")),
		rejTrim:    reg.Counter(Label("dmra_rejects_total", "type", "trim")),
		cloud:      reg.Counter("dmra_cloud_fallbacks_total"),
		broadcasts: reg.Counter("dmra_broadcasts_total"),
		unmatched:  reg.Gauge("dmra_unmatched_ues"),
		taskHist:   reg.Histogram("exp_task_seconds", DefaultLatencyBuckets()),

		prefEval: reg.Counter("dmra_pref_evaluations_total"),

		deltaFrontier:    reg.Gauge("dmra_delta_frontier_ues"),
		deltaReleased:    reg.Counter("dmra_delta_released_total"),
		deltaInvalidated: reg.Counter("dmra_delta_invalidated_total"),
		deltaRounds:      reg.Counter("dmra_delta_repair_rounds_total"),

		regionHandoffs: reg.Counter("wire_region_handoff_proposals_total"),
		bsCrashes:      reg.Counter("wire_bs_crashes_total"),
		bsRestarts:     reg.Counter("wire_bs_restarts_total"),
		readmitted:     reg.Counter("wire_readmitted_ues_total"),
	}
}

// Registry returns the recorder's metrics registry (nil when metrics are
// disabled).
func (r *Recorder) Registry() *Registry {
	if r == nil {
		return nil
	}
	return r.reg
}

// Sink returns the recorder's trace sink (nil when tracing is disabled).
func (r *Recorder) Sink() *Sink {
	if r == nil {
		return nil
	}
	return r.sink
}

// Event records one protocol action at simulated time 0.
func (r *Recorder) Event(kind EventKind, round, ue, bs int) {
	r.EventAt(0, kind, round, ue, bs)
}

// EventShard records one protocol action attributed to the coordinator
// shard owning the BS (internal/wire). Shard is carried in the trace for
// attribution only; it is not part of the event identity.
func (r *Recorder) EventShard(shard int, kind EventKind, round, ue, bs int) {
	r.emit(Event{Kind: kind, Round: round, UE: ue, BS: bs, Shard: shard})
}

// EventAt records one protocol action with a simulated timestamp. No-op on
// a nil recorder.
func (r *Recorder) EventAt(timeS float64, kind EventKind, round, ue, bs int) {
	r.emit(Event{Kind: kind, Round: round, UE: ue, BS: bs, TimeS: timeS})
}

func (r *Recorder) emit(e Event) {
	if r == nil {
		return
	}
	switch e.Kind {
	case KindRound:
		r.rounds.Inc()
	case KindPropose:
		r.proposals.Inc()
	case KindAccept:
		r.accepts.Inc()
	case KindRejectPermanent:
		r.rejPerm.Inc()
	case KindRejectTrim:
		r.rejTrim.Inc()
	case KindCloudFallback:
		r.cloud.Inc()
	case KindBroadcast:
		r.broadcasts.Inc()
	}
	r.sink.Emit(e)
}

// Residual updates BS bs's per-round residual-capacity gauges: remaining
// CRUs summed over services, and remaining RRBs. The gauges are interned
// in a per-Recorder table on first touch, so the once-per-BS-per-round
// steady state pays a read-locked slice index instead of building the
// label string and walking the registry map every call. Safe for
// concurrent replications. No-op on a nil recorder.
func (r *Recorder) Residual(bs, crus, rrbs int) {
	if r == nil || r.reg == nil {
		return
	}
	r.resMu.RLock()
	if bs < len(r.resCRU) {
		cru, rrb := r.resCRU[bs], r.resRRB[bs]
		r.resMu.RUnlock()
		cru.Set(float64(crus))
		rrb.Set(float64(rrbs))
		return
	}
	r.resMu.RUnlock()

	r.resMu.Lock()
	for i := len(r.resCRU); i <= bs; i++ {
		id := strconv.Itoa(i)
		r.resCRU = append(r.resCRU, r.reg.Gauge(Label("dmra_bs_residual_crus", "bs", id)))
		r.resRRB = append(r.resRRB, r.reg.Gauge(Label("dmra_bs_residual_rrbs", "bs", id)))
	}
	cru, rrb := r.resCRU[bs], r.resRRB[bs]
	r.resMu.Unlock()
	cru.Set(float64(crus))
	rrb.Set(float64(rrbs))
}

// DeltaEpoch records one incremental-engine Settle: the frontier gauge
// holds the latest repair-frontier size, the counters accumulate the
// released matches, the invalidated candidate regions and the repair
// rounds of the session. invalidated is DeltaStats.Invalidated: the
// frontier UEs whose region the Settle rebuilt because a candidate BS
// was credited after it was built, so dmra_delta_invalidated_total
// counts rebuilds at Settle, never UEs outside a frontier. No-op on a
// nil recorder.
func (r *Recorder) DeltaEpoch(frontier, released, invalidated, rounds int) {
	if r == nil || r.reg == nil {
		return
	}
	r.deltaFrontier.Set(float64(frontier))
	r.deltaReleased.Add(int64(released))
	r.deltaInvalidated.Add(int64(invalidated))
	r.deltaRounds.Add(int64(rounds))
}

// RegionHandoffs counts proposals the region cluster routed across a
// region boundary this round (a UE homed in one region proposing to a BS
// owned by another). No-op on a nil recorder.
func (r *Recorder) RegionHandoffs(n int) {
	if r == nil || r.reg == nil || n == 0 {
		return
	}
	r.regionHandoffs.Add(int64(n))
}

// BSCrashed counts one detected base-station failure (a dead or broken
// server the coordinator removed from the run). No-op on a nil recorder.
func (r *Recorder) BSCrashed() {
	if r == nil || r.reg == nil {
		return
	}
	r.bsCrashes.Inc()
}

// BSRestarted counts one crashed base station restarted and re-dialed by
// the coordinator. No-op on a nil recorder.
func (r *Recorder) BSRestarted() {
	if r == nil || r.reg == nil {
		return
	}
	r.bsRestarts.Inc()
}

// ReadmittedUEs counts UEs whose serving BS crashed and that were pushed
// back into the matching (re-admitted elsewhere or cloud-served). No-op on
// a nil recorder.
func (r *Recorder) ReadmittedUEs(n int) {
	if r == nil || r.reg == nil || n == 0 {
		return
	}
	r.readmitted.Add(int64(n))
}

// RegionRoundLatency records one region coordinator's exchange wall-clock
// for a round in wire_region_round_seconds{region}. Like the shard
// histogram, it is resolved through the registry per call — once per
// region per round, off the frame hot path. No-op on a nil recorder.
func (r *Recorder) RegionRoundLatency(region int, seconds float64) {
	if r == nil || r.reg == nil {
		return
	}
	name := Label("wire_region_round_seconds", "region", strconv.Itoa(region))
	r.reg.Histogram(name, DefaultLatencyBuckets()).Observe(seconds)
}

// Unmatched updates the count of UEs not yet matched to a BS this round.
func (r *Recorder) Unmatched(n int) {
	if r == nil {
		return
	}
	r.unmatched.Set(float64(n))
}

// PrefCacheRound adds one matching round's swept candidates — the live
// candidates the proposers swept, one Eq. 17 evaluation at most each —
// to dmra_pref_evaluations_total. No-op on a nil recorder.
func (r *Recorder) PrefCacheRound(swept int64) {
	if r == nil {
		return
	}
	r.prefEval.Add(swept)
}

// CohortCounter returns the online-session lifecycle counter
// online_cohort_<event>_total{cohort=...} for one workload cohort.
// Sessions resolve their cohorts' counters once at setup, so the
// per-event hot path is a plain atomic increment. Nil (and free) when
// the recorder or its registry is nil.
func (r *Recorder) CohortCounter(event, cohort string) *Counter {
	if r == nil || r.reg == nil {
		return nil
	}
	return r.reg.Counter(Label("online_cohort_"+event+"_total", "cohort", cohort))
}

// RoundLatency records one TCP-cluster round's coordinator wall-clock in
// the wire_round_seconds histogram. Latency histograms never touch the
// event sink, so observed runs keep a deterministic trace. No-op on a nil
// recorder.
func (r *Recorder) RoundLatency(seconds float64) {
	if r == nil || r.reg == nil {
		return
	}
	r.reg.Histogram("wire_round_seconds", DefaultLatencyBuckets()).Observe(seconds)
}

// ShardRoundLatency records one coordinator shard's exchange wall-clock
// for a round in wire_shard_round_seconds{shard}. Resolved through the
// registry per call (the registry is mutex-guarded, and shards observe
// concurrently); this runs once per shard per round, so the lookup stays
// off the frame hot path. No-op on a nil recorder.
func (r *Recorder) ShardRoundLatency(shard int, seconds float64) {
	if r == nil || r.reg == nil {
		return
	}
	name := Label("wire_shard_round_seconds", "shard", strconv.Itoa(shard))
	r.reg.Histogram(name, DefaultLatencyBuckets()).Observe(seconds)
}

// TaskDone records one experiment-grid task: its latency lands in the
// exp_task_seconds histogram and the worker's busy-time gauge, from which
// per-worker utilization can be read off. No-op on a nil recorder.
func (r *Recorder) TaskDone(worker int, seconds float64) {
	if r == nil {
		return
	}
	r.taskHist.Observe(seconds)
	if r.reg == nil {
		return
	}
	r.reg.Gauge(Label("exp_worker_busy_seconds", "worker", strconv.Itoa(worker))).Add(seconds)
}
