// Package online extends the paper's one-shot batch evaluation to the
// dynamic setting its §V motivates: "each SP needs to adjust its resource
// allocation strategy in real time to adapt its network to the changing
// environment. Namely, the best association changes over time."
//
// A Session drives a continuous-time simulation on internal/sim: UEs
// arrive under per-cohort arrival processes (the default is the paper's
// homogeneous Poisson stream; a dynamic workload spec can declare bursty
// gamma/Weibull cohorts, diurnal spike/drain phases, or a recorded CSV
// trace — see internal/workload/dynamic), hold their allocation for a
// cohort-distributed session lifetime, then depart and release their
// BS's resources. At every re-allocation epoch the configured matching
// policy runs over the UEs currently waiting (arrivals since the last
// epoch plus earlier cloud fallbacks that are still active), exactly as
// a periodically-executed DMRA would in deployment. The collector
// reports time-averaged profit rate, edge-service ratio, per-epoch
// allocation latency proxies, and per-cohort lifecycle counters.
//
// # Horizon semantics
//
// The horizon [0, DurationS] is closed on the right: any event scheduled
// at exactly DurationS still fires (an epoch re-matches, a departure
// counts and releases resources), but an arrival at exactly DurationS is
// not admitted — no service time remains. Events scheduled strictly
// after DurationS never fire: the drive loop stops at the horizon
// instead of draining departures into dead time, so no state or
// profit-rate mutation happens after the integrals are clamped.
package online

import (
	"errors"
	"fmt"
	"io"
	"math"

	"dmra/internal/alloc"
	"dmra/internal/engine"
	"dmra/internal/mec"
	"dmra/internal/obs"
	"dmra/internal/rng"
	"dmra/internal/sim"
	"dmra/internal/workload"
	"dmra/internal/workload/dynamic"
)

// Config parameterizes a dynamic session.
type Config struct {
	// Scenario describes the static substrate (SPs, BSs, radio, pricing).
	// Its UEs field bounds the *concurrent* population: the UE population
	// is generated once and each arrival activates one of the inactive
	// profiles, so radio/link state stays precomputed.
	Scenario workload.Config
	// ArrivalRate is the Poisson arrival intensity in UEs per second for
	// the default single-cohort process (ignored when Workload is set).
	ArrivalRate float64
	// MeanHoldS is the mean exponential task holding time in seconds for
	// the default single-cohort process (ignored when Workload is set).
	MeanHoldS float64
	// Workload, when non-nil, replaces the default Poisson/exponential
	// traffic with the spec's cohorts: per-cohort arrival processes,
	// session-lifetime distributions, demand distributions over disjoint
	// slices of the profile pool, or CSV trace replay. The default
	// (nil) keeps the paper's original driver, byte-identical under
	// existing seeds.
	Workload *dynamic.Spec
	// EpochS is the re-allocation period in seconds.
	EpochS float64
	// DurationS is the simulated horizon in seconds (see the package
	// comment for the exact boundary semantics).
	DurationS float64
	// Algorithm names the matching policy re-run each epoch ("dmra",
	// "dcsp", "nonco", "greedy", "random").
	Algorithm string
	// DMRA overrides the DMRA configuration when Algorithm == "dmra".
	DMRA alloc.DMRAConfig
	// Incremental requires the delta-repair epoch path and reports its
	// work in the Delta* counters, which stay zero without it.
	//
	// Every DMRA session takes that path by default, observed or not
	// and for any rho: a persistent engine.Incremental carries the ledger
	// and every UE's candidate state across epochs and repairs only the
	// frontier churn touched, instead of re-running Alg. 1 from scratch
	// over the waiting set, so epoch cost scales with arrivals and
	// departures rather than the standing population. Setting
	// Incremental rejects configs that cannot repair incrementally
	// (another policy) instead of falling back to from-scratch epochs. Every other report field is identical either
	// way (the delta-repair fuzz gate proves the assignments equal).
	Incremental bool
	// Seed drives arrivals, holding times, and the scenario build.
	Seed uint64
	// RecordSeries captures a per-epoch sample of the session state in
	// Report.Series (off by default to keep reports small).
	RecordSeries bool
	// Obs, when non-nil, streams every epoch's DMRA convergence events
	// (when Algorithm == "dmra") and the per-cohort lifecycle counters
	// to the recorder, plus per-epoch delta statistics when Incremental
	// is set. An epoch's Alg. 1 events cover its repair frontier: the
	// waiting UEs with at least one candidate link. Nil (the default)
	// adds no per-epoch work and the report is identical either way.
	Obs *obs.Recorder
	// Timeline, when non-nil, receives a periodic obs.TimelineSample as
	// one JSON line every TimelineEveryS seconds of simulated time:
	// concurrent sessions, cumulative lifecycle counts, edge/cloud split,
	// RRB occupancy, profit rate, and the per-cohort breakdown. The first
	// write error aborts sampling and is returned from Run.
	Timeline io.Writer
	// TimelineEveryS is the sampling period in seconds; <= 0 defaults to
	// EpochS (one sample per re-allocation epoch).
	TimelineEveryS float64
}

// DefaultConfig returns a moderately loaded dynamic session over the
// paper's default scenario: ~5 arrivals/s held ~120 s each (steady-state
// offered load ~600 concurrent UEs), re-matched every second for 10
// simulated minutes.
func DefaultConfig() Config {
	sc := workload.Default()
	sc.UEs = 1200 // concurrent-population bound
	return Config{
		Scenario:    sc,
		ArrivalRate: 5,
		MeanHoldS:   120,
		EpochS:      1,
		DurationS:   600,
		Algorithm:   "dmra",
		DMRA:        alloc.DefaultDMRAConfig(),
		Seed:        1,
	}
}

// Validate reports the first invalid field.
func (c Config) Validate() error {
	if c.Workload == nil {
		switch {
		case c.ArrivalRate <= 0 || math.IsNaN(c.ArrivalRate) || math.IsInf(c.ArrivalRate, 0):
			return fmt.Errorf("online: arrival rate %g, want positive and finite", c.ArrivalRate)
		case c.MeanHoldS <= 0 || math.IsNaN(c.MeanHoldS) || math.IsInf(c.MeanHoldS, 0):
			return fmt.Errorf("online: mean hold %g, want positive and finite", c.MeanHoldS)
		}
	} else if err := c.Workload.Validate(); err != nil {
		return err
	}
	switch {
	case c.EpochS <= 0:
		return fmt.Errorf("online: epoch %g, want positive", c.EpochS)
	case c.DurationS <= 0:
		return fmt.Errorf("online: duration %g, want positive", c.DurationS)
	case c.DurationS < c.EpochS:
		return fmt.Errorf("online: duration %g below one epoch %g", c.DurationS, c.EpochS)
	}
	if c.Incremental && c.Algorithm != "dmra" {
		return fmt.Errorf("online: incremental mode needs the dmra policy, got %q", c.Algorithm)
	}
	if _, err := alloc.ByName(c.Algorithm); err != nil {
		return err
	}
	return c.Scenario.Validate()
}

// Report is the outcome of a dynamic session.
type Report struct {
	// Arrivals and Departures count UE lifecycle events inside the
	// horizon; Saturated counts arrivals dropped because the concurrent
	// population bound was hit (should be zero in a well-sized run).
	Arrivals   int
	Departures int
	Saturated  int
	// EdgeServed and CloudServed split completed-or-admitted tasks by
	// where they ran.
	EdgeServed  int
	CloudServed int
	// ProfitTime integrates profit-rate x time: the total MEC-layer profit
	// earned over the horizon, in price-units (the dynamic analogue of
	// Eq. 11 where each served task pays per unit of service time).
	ProfitTime float64
	// MeanConcurrent is the time-averaged number of active UEs.
	MeanConcurrent float64
	// MeanOccupancyRRB is the time-averaged fraction of RRBs in use.
	MeanOccupancyRRB float64
	// Epochs counts re-allocation runs; ReassignChecks counts the UEs
	// examined across them.
	Epochs         int
	ReassignChecks int
	// Delta* aggregate the incremental engine's per-Settle statistics
	// over the session (all zero unless Config.Incremental is set):
	// DeltaFrontier sums repair-frontier sizes, DeltaReleased counts
	// standing matches undone by churn, DeltaInvalidated counts the
	// frontier UEs whose candidate region a Settle rebuilt because a
	// candidate BS was credited since the region was built, and
	// DeltaRepairRounds sums Alg. 1 rounds spent on repair.
	DeltaFrontier     int
	DeltaReleased     int
	DeltaInvalidated  int
	DeltaRepairRounds int
	// Events counts discrete-event executions inside the horizon
	// (arrivals, departures, epochs) — the denominator of the engine's
	// events/sec throughput.
	Events int
	// Cohorts breaks the lifecycle counts down per workload cohort, in
	// spec order, when the session ran under a dynamic workload spec
	// (nil for the default single-process session).
	Cohorts []CohortReport
	// Series holds one sample per epoch when Config.RecordSeries is set.
	Series []EpochSample
}

// CohortReport is one cohort's slice of the lifecycle counters.
type CohortReport struct {
	// Name is the cohort's spec name.
	Name string
	// PoolSize is the number of UE profiles in the cohort's slice of
	// the scenario population.
	PoolSize                        int
	Arrivals, Departures, Saturated int
	EdgeServed, CloudServed         int
}

// EpochSample is the session state at one re-allocation epoch.
type EpochSample struct {
	// TimeS is the epoch's simulation time.
	TimeS float64
	// Active is the concurrent population (waiting + admitted).
	Active int
	// ProfitRate is the instantaneous MEC-layer profit per second.
	ProfitRate float64
	// OccupancyRRB is the instantaneous fraction of RRBs in use.
	OccupancyRRB float64
}

// EdgeRatio returns the fraction of admitted tasks served at the edge.
func (r Report) EdgeRatio() float64 {
	total := r.EdgeServed + r.CloudServed
	if total == 0 {
		return 0
	}
	return float64(r.EdgeServed) / float64(total)
}

// ErrNoProfiles is returned when the scenario has a zero UE population.
var ErrNoProfiles = errors.New("online: scenario has no UE profiles")

// Run executes the dynamic session.
func Run(cfg Config) (Report, error) {
	if err := cfg.Validate(); err != nil {
		return Report{}, err
	}
	plans, ranges, err := planWorkload(cfg)
	if err != nil {
		return Report{}, err
	}
	net, err := cfg.Scenario.BuildWithDemand(cfg.Seed, ranges)
	if err != nil {
		return Report{}, err
	}
	if len(net.UEs) == 0 {
		return Report{}, ErrNoProfiles
	}

	s := &session{
		cfg:      cfg,
		net:      net,
		book:     make([]placement, len(net.UEs)),
		cohortOf: make([]int, len(net.UEs)),
	}
	if incrementalEpochs(cfg) {
		s.inc = new(engine.Incremental)
		// One propose worker: an epoch's frontier is a few hundred UEs,
		// too few to pay for a fan-out, and replicated sessions already
		// run one per core. Begin's error is always nil.
		_ = s.inc.Begin(net, engine.Config(cfg.DMRA), 1)
		if cfg.Obs != nil {
			s.hooks = alloc.ArenaHooks(cfg.Obs)
		}
	} else {
		if s.allocator, err = allocatorFor(cfg); err != nil {
			return Report{}, err
		}
		s.state = mec.NewState(net)
		s.subview = net.NewSubView()
	}
	root := rng.New(cfg.Seed)
	s.cohorts = make([]*cohortRun, len(plans))
	for i, p := range plans {
		co := &cohortRun{name: p.name, pool: p.count, proc: p.proc, hold: p.hold, demands: p.traceDemands}
		if cfg.Workload == nil {
			// The legacy driver's single stream, so default sessions
			// stay byte-identical under existing seeds.
			co.src = root.SplitLabeled("online")
		} else {
			co.src = root.SplitLabeled("online-cohort:" + p.name)
		}
		co.inactive = make([]mec.UEID, p.count)
		for j := range co.inactive {
			co.inactive[j] = mec.UEID(p.start + j)
			s.cohortOf[p.start+j] = i
		}
		co.counters = newCohortCounters(cfg.Obs, p.name)
		co.arrive = func() { s.arrival(co) }
		s.cohorts[i] = co
	}
	return s.run()
}

// incrementalEpochs reports whether a session drives the persistent
// delta-repair engine instead of re-matching from scratch: always when
// Incremental is set, and otherwise for every DMRA session. Baselines
// and testHookAllocator keep the SubView + allocator path.
func incrementalEpochs(cfg Config) bool {
	return cfg.Incremental || (cfg.Algorithm == "dmra" && testHookAllocator == nil)
}

// cohortPlan is one cohort's resolved slice of the session: its profile
// range, arrival process, lifetime sampler, and (in trace mode) its
// recorded demand hints.
type cohortPlan struct {
	name         string
	start, count int
	proc         dynamic.Process
	hold         dynamic.Sampler
	traceDemands []int
}

// planWorkload resolves the configured workload into per-cohort plans
// plus the demand-override ranges the scenario build needs. The default
// (nil spec) plan is a single cohort owning the whole pool with the
// legacy Poisson/exponential process.
func planWorkload(cfg Config) ([]cohortPlan, []workload.DemandRange, error) {
	if cfg.Workload == nil {
		return []cohortPlan{{
			name:  "default",
			start: 0, count: cfg.Scenario.UEs,
			proc: dynamic.Poisson{RateHz: cfg.ArrivalRate},
			hold: dynamic.ExpSampler{Mean: cfg.MeanHoldS},
		}}, nil, nil
	}
	spec := *cfg.Workload

	// Partition the profile pool by cohort share: floor allocation with
	// the remainder handed to the earliest cohorts, so the split is
	// deterministic and exact.
	n := len(spec.Cohorts)
	sizes := make([]int, n)
	total := 0
	for i, c := range spec.Cohorts {
		sizes[i] = int(c.PoolShare * float64(cfg.Scenario.UEs))
		total += sizes[i]
	}
	for i := 0; total < cfg.Scenario.UEs && i < n; i++ {
		sizes[i]++
		total++
	}
	plans := make([]cohortPlan, n)
	var ranges []workload.DemandRange
	start := 0
	for i, c := range spec.Cohorts {
		if sizes[i] == 0 {
			return nil, nil, fmt.Errorf("online: cohort %q gets an empty profile slice (share %g of %d UEs); raise Scenario.UEs",
				c.Name, c.PoolShare, cfg.Scenario.UEs)
		}
		hold, err := c.HoldS.NewSampler()
		if err != nil {
			return nil, nil, err
		}
		plans[i] = cohortPlan{name: c.Name, start: start, count: sizes[i], hold: hold}
		if spec.Trace == "" {
			if plans[i].proc, err = c.Arrival.NewProcess(); err != nil {
				return nil, nil, err
			}
		}
		if c.CRUDemandMax != 0 || c.RateMaxBps != 0 {
			ranges = append(ranges, workload.DemandRange{
				Start: start, Count: sizes[i],
				CRUDemandMin: c.CRUDemandMin, CRUDemandMax: c.CRUDemandMax,
				RateMinBps: c.RateMinBps, RateMaxBps: c.RateMaxBps,
			})
		}
		start += sizes[i]
	}

	if spec.Trace != "" {
		events, err := dynamic.LoadTrace(spec.Trace)
		if err != nil {
			return nil, nil, err
		}
		if err := spec.CheckTrace(events); err != nil {
			return nil, nil, err
		}
		times, demands := dynamic.SplitTrace(events)
		for i := range plans {
			plans[i].proc = dynamic.NewReplay(times[plans[i].name])
			plans[i].traceDemands = demands[plans[i].name]
		}
	}
	return plans, ranges, nil
}

// placement records where an active UE's task runs: one slot of the
// session's book per UE profile, live while the UE is admitted.
type placement struct {
	live bool
	bs   mec.BSID // CloudBS for cloud-served tasks
	// rrbs and margin are the link's RRBs and the per-second profit the
	// placement adds to the session's used-RRB total and profit rate,
	// stored at grant time so the departure subtracts the very same
	// values without repeating the link lookup. Both are zero on CloudBS.
	rrbs   int
	margin float64
}

// cohortRun is one cohort's live state inside a session.
type cohortRun struct {
	name string
	pool int
	proc dynamic.Process
	hold dynamic.Sampler
	// src is the cohort's private draw stream (the shared legacy stream
	// for the default single-cohort session).
	src      *rng.Source
	inactive []mec.UEID
	// demands holds the cohort's recorded CRU-demand hints in trace
	// mode, consumed one per arrival event (admitted or saturated).
	demands   []int
	demandIdx int

	arrivals, departures, saturated int
	edgeServed, cloudServed         int
	counters                        cohortCounters
	// arrive is the cohort's arrival event, bound once at setup so each
	// scheduled arrival reuses it.
	arrive func()
}

// nextDemand consumes the cohort's next trace demand hint (0 when the
// cohort is generative or the hint column was empty).
func (co *cohortRun) nextDemand() int {
	if co.demandIdx >= len(co.demands) {
		return 0
	}
	d := co.demands[co.demandIdx]
	co.demandIdx++
	return d
}

// take removes and returns one inactive profile. Without a demand hint
// it picks uniformly at random (keeping the active population's
// spatial/service mix); with a hint it picks the profile whose CRU
// demand is nearest the recorded value, lowest UE ID winning ties.
func (co *cohortRun) take(net *mec.Network, hint int) mec.UEID {
	k := 0
	if hint <= 0 {
		k = co.src.Intn(len(co.inactive))
	} else {
		best := math.MaxInt
		for j, u := range co.inactive {
			d := net.UEs[u].CRUDemand - hint
			if d < 0 {
				d = -d
			}
			if d < best || (d == best && u < co.inactive[k]) {
				best, k = d, j
			}
		}
	}
	u := co.inactive[k]
	co.inactive[k] = co.inactive[len(co.inactive)-1]
	co.inactive = co.inactive[:len(co.inactive)-1]
	return u
}

// cohortCounters are the per-cohort obs counters, resolved once at
// session setup (all nil — and free — without a recorder).
type cohortCounters struct {
	arrivals, departures, saturated *obs.Counter
	edgeServed, cloudServed         *obs.Counter
}

func newCohortCounters(rec *obs.Recorder, cohort string) cohortCounters {
	return cohortCounters{
		arrivals:    rec.CohortCounter("arrivals", cohort),
		departures:  rec.CohortCounter("departures", cohort),
		saturated:   rec.CohortCounter("saturated", cohort),
		edgeServed:  rec.CohortCounter("edge_served", cohort),
		cloudServed: rec.CohortCounter("cloud_served", cohort),
	}
}

type session struct {
	cfg Config
	net *mec.Network
	// state is the from-scratch route's ledger: subview hands its
	// residuals to the allocator, and match debits every grant from it.
	// subview is the session-persistent restriction of net handed to the
	// allocator each epoch: one Refresh per epoch, zero NewNetwork calls
	// after setup (a property the tests assert via mec.NetworkBuilds).
	// All three are nil when inc drives the epochs.
	state     *mec.State
	subview   *mec.SubView
	allocator alloc.Allocator
	engine    sim.Engine
	// inc is the persistent delta-repair engine (nil when the session
	// re-matches from scratch; see incrementalEpochs). Its ledger is the
	// session's only one: arrivals and departures are reported to it as
	// churn, and each epoch's Settle repairs the matching instead of
	// matchWaiting's full re-run.
	inc *engine.Incremental
	// hooks stream inc's settles to Obs (nil when unobserved).
	hooks *engine.SoAHooks

	// epochFn and the timeline closures are bound once at setup; the
	// reschedule path reuses them instead of allocating a fresh closure
	// per event.
	epochFn  func()
	tlSample func()
	tlWrite  func()
	// tlCohorts recycles the per-sample cohort breakdown buffer.
	tlCohorts []obs.CohortSample

	cohorts []*cohortRun
	// cohortOf maps each UE profile to its cohort's index in cohorts.
	cohortOf []int
	// waiting holds arrivals not yet matched (between epochs).
	waiting []mec.UEID
	// book is the session's occupancy book, indexed by UE ID: a live
	// placement per admitted UE. nActive counts the live slots and
	// usedRRBs the RRBs their edge placements hold.
	book     []placement
	nActive  int
	usedRRBs int

	rep Report
	// err is the first epoch-path failure (an incremental arrival or
	// settle, an epoch allocation or grant); fail records it and
	// stops the simulation, and run() returns it.
	err error
	// timelineErr remembers the first sampler write failure; sampling
	// stops there and run() surfaces it.
	timelineErr error
	// integration state for time averages
	lastT       float64
	areaActive  float64
	areaRRBUsed float64
	totalRRBs   int
	profitRate  float64 // current profit per second
	areaProfit  float64
}

func (s *session) run() (Report, error) {
	for _, bs := range s.net.BSs {
		s.totalRRBs += bs.MaxRRBs
	}

	for _, co := range s.cohorts {
		s.scheduleNextArrival(co)
	}
	s.epochFn = s.epoch
	s.engine.Schedule(s.cfg.EpochS, s.epochFn)
	if s.cfg.Timeline != nil {
		every := s.cfg.TimelineEveryS
		if every <= 0 {
			every = s.cfg.EpochS
		}
		s.tlSample = func() { s.sampleTimeline(every) }
		s.tlWrite = s.writeTimelineSample
		s.engine.Schedule(every, s.tlSample)
	}
	// Drive to the horizon and stop: events at exactly DurationS fire,
	// departures scheduled past it never do, so nothing mutates state or
	// profitRate after the integrals are clamped below.
	s.engine.RunUntil(s.cfg.DurationS)
	if s.err != nil {
		return Report{}, s.err
	}
	s.integrateTo(s.cfg.DurationS)

	s.rep.Events = s.engine.Processed()
	s.rep.MeanConcurrent = s.areaActive / s.cfg.DurationS
	if s.totalRRBs > 0 {
		s.rep.MeanOccupancyRRB = s.areaRRBUsed / (s.cfg.DurationS * float64(s.totalRRBs))
	}
	s.rep.ProfitTime = s.areaProfit
	if s.cfg.Workload != nil {
		s.rep.Cohorts = make([]CohortReport, len(s.cohorts))
		for i, co := range s.cohorts {
			s.rep.Cohorts[i] = CohortReport{
				Name: co.name, PoolSize: co.pool,
				Arrivals: co.arrivals, Departures: co.departures, Saturated: co.saturated,
				EdgeServed: co.edgeServed, CloudServed: co.cloudServed,
			}
		}
	}
	if err := s.checkLedger(); err != nil {
		return Report{}, fmt.Errorf("online: ledger corrupted: %w", err)
	}
	if s.timelineErr != nil {
		return Report{}, fmt.Errorf("online: timeline: %w", s.timelineErr)
	}
	return s.rep, nil
}

// checkLedger is the session's teardown check: the route ledger's own
// recount against its residual book, and the RRBs that book has granted
// against the placement table's running total.
func (s *session) checkLedger() error {
	var book *mec.Book
	var err error
	if s.inc != nil {
		book, err = s.inc.Book(), s.inc.CheckInvariants()
	} else {
		book, err = s.state.Book(), s.state.CheckInvariants()
	}
	if err != nil {
		return err
	}
	granted := s.totalRRBs
	for _, rem := range book.RRB {
		granted -= int(rem)
	}
	if granted != s.usedRRBs {
		return fmt.Errorf("ledger grants %d RRBs, placements hold %d", granted, s.usedRRBs)
	}
	return nil
}

// fail records the session's first epoch-path error and stops the
// simulation; run() returns the error instead of a report.
func (s *session) fail(err error) {
	if s.err == nil {
		s.err = err
		s.engine.Stop()
	}
}

// sampleTimeline emits one obs.TimelineSample and reschedules itself.
// The first write error stops sampling (the session keeps running) and
// is surfaced from run().
func (s *session) sampleTimeline(every float64) {
	if s.timelineErr != nil {
		return
	}
	// A re-allocation epoch due at this same instant is already queued
	// and ties fire in scheduling order, so defer the actual write by a
	// zero-delay event: the sample then observes post-match state, and
	// its cumulative counters agree with the final report at the horizon.
	s.engine.Schedule(0, s.tlWrite)
	if s.engine.Now()+every <= s.cfg.DurationS+1e-9 {
		s.engine.Schedule(every, s.tlSample)
	}
}

func (s *session) writeTimelineSample() {
	if s.timelineErr != nil {
		return
	}
	sample := obs.TimelineSample{
		TimeS:        s.engine.Now(),
		Active:       s.nActive + len(s.waiting),
		Waiting:      len(s.waiting),
		Arrivals:     s.rep.Arrivals,
		Departures:   s.rep.Departures,
		Saturated:    s.rep.Saturated,
		EdgeServed:   s.rep.EdgeServed,
		CloudServed:  s.rep.CloudServed,
		OccupancyRRB: s.occupancy(),
		ProfitRate:   s.profitRate,
	}
	if len(s.cohorts) > 1 || s.cfg.Workload != nil {
		s.tlCohorts = s.tlCohorts[:0]
		for _, co := range s.cohorts {
			cs := obs.CohortSample{
				Name: co.name, Arrivals: co.arrivals, Saturated: co.saturated,
				EdgeServed: co.edgeServed, CloudServed: co.cloudServed,
			}
			if offered := co.arrivals + co.saturated; offered > 0 {
				cs.UnmatchedRate = float64(co.cloudServed+co.saturated) / float64(offered)
			}
			s.tlCohorts = append(s.tlCohorts, cs)
		}
		sample.Cohorts = s.tlCohorts
	}
	if err := obs.WriteTimelineSample(s.cfg.Timeline, sample); err != nil {
		s.timelineErr = err
	}
}

// scheduleNextArrival asks the cohort's process for its next arrival
// time and schedules it; an exhausted process (trace replay past its
// last event) schedules nothing and the cohort goes quiet.
func (s *session) scheduleNextArrival(co *cohortRun) {
	t := co.proc.Next(s.engine.Now(), co.src)
	if math.IsInf(t, 1) {
		return
	}
	s.engine.ScheduleAt(t, co.arrive)
}

// occupancy returns the instantaneous fraction of RRBs in use.
func (s *session) occupancy() float64 {
	if s.totalRRBs == 0 {
		return 0
	}
	return float64(s.usedRRBs) / float64(s.totalRRBs)
}

// integrateTo advances the time integrals to time t.
func (s *session) integrateTo(t float64) {
	t = math.Min(t, s.cfg.DurationS)
	dt := t - s.lastT
	if dt <= 0 {
		return
	}
	s.areaActive += dt * float64(s.nActive+len(s.waiting))
	s.areaRRBUsed += dt * float64(s.usedRRBs)
	s.areaProfit += dt * s.profitRate
	s.lastT = t
}

// arrival activates an inactive UE profile of the cohort and queues it
// for the next epoch.
func (s *session) arrival(co *cohortRun) {
	if s.engine.Now() >= s.cfg.DurationS {
		// An arrival at exactly the horizon is not admitted: no service
		// time remains (see the package comment).
		return
	}
	s.integrateTo(s.engine.Now())
	hint := co.nextDemand()
	if len(co.inactive) == 0 {
		s.rep.Saturated++
		co.saturated++
		co.counters.saturated.Inc()
	} else {
		u := co.take(s.net, hint)
		s.waiting = append(s.waiting, u)
		if s.inc != nil {
			if err := s.inc.Arrive(u); err != nil {
				s.fail(fmt.Errorf("online: incremental arrival: %w", err))
				return
			}
		}
		s.rep.Arrivals++
		co.arrivals++
		co.counters.arrivals.Inc()
	}
	s.scheduleNextArrival(co)
}

// epoch re-runs the matching policy over the waiting UEs.
func (s *session) epoch() {
	s.integrateTo(s.engine.Now())
	s.rep.Epochs++

	if len(s.waiting) > 0 {
		if err := s.match(); err != nil {
			s.fail(err)
			return
		}
	}
	if s.cfg.RecordSeries {
		s.rep.Series = append(s.rep.Series, EpochSample{
			TimeS:        s.engine.Now(),
			Active:       s.nActive + len(s.waiting),
			ProfitRate:   s.profitRate,
			OccupancyRRB: s.occupancy(),
		})
	}
	if s.engine.Now()+s.cfg.EpochS <= s.cfg.DurationS+1e-9 {
		s.engine.Schedule(s.cfg.EpochS, s.epochFn)
	}
}

// match runs the allocator restricted to the waiting UEs against the
// current residual capacities, then commits its grants; every waiting
// UE is placed (edge or cloud), so the waiting list drains. A session
// lifetime is drawn only after placement succeeds: a grant the ledger
// refuses fails the epoch before the UE consumes any randomness.
func (s *session) match() error {
	s.rep.ReassignChecks += len(s.waiting)
	if s.inc != nil {
		return s.matchIncremental()
	}

	assignment, err := s.matchWaiting()
	if err != nil {
		return err
	}
	// The SubView's capacity rows are state's residuals and nothing else
	// grants between its Refresh and here, so every grant of a feasible
	// allocator fits: a refused one is an allocator fault.
	for _, u := range s.waiting {
		b := assignment.ServingBS[u]
		if b != mec.CloudBS {
			if err := s.state.Assign(u, b); err != nil {
				return fmt.Errorf("online: epoch grant: %w", err)
			}
		}
		s.place(u, b)
	}
	s.waiting = s.waiting[:0]
	return nil
}

// matchIncremental is match for the delta-repair mode: one Settle
// repairs the standing matching over the accumulated churn, then the
// waiting UEs are placed from the engine's serving array — in waiting
// order, with lifetimes drawn only after placement, so every cohort's
// RNG stream advances exactly as in the from-scratch mode. The engine
// has already debited every grant from its ledger, the session's only
// one; the frontier always drains (admitted or cloud), so no UE stays
// waiting.
func (s *session) matchIncremental() error {
	ds, err := s.inc.SettleWith(s.hooks)
	if err != nil {
		return fmt.Errorf("online: epoch settle: %w", err)
	}
	if s.cfg.Incremental {
		s.rep.DeltaFrontier += ds.Frontier
		s.rep.DeltaReleased += ds.Released
		s.rep.DeltaInvalidated += ds.Invalidated
		s.rep.DeltaRepairRounds += ds.Rounds
		s.cfg.Obs.DeltaEpoch(ds.Frontier, ds.Released, ds.Invalidated, ds.Rounds)
	}
	serving := s.inc.Serving()
	for _, u := range s.waiting {
		b := mec.CloudBS
		if bi := serving[u]; bi >= 0 {
			b = mec.BSID(bi)
		}
		s.place(u, b)
	}
	s.waiting = s.waiting[:0]
	return nil
}

// place admits waiting UE u on BS b, whose grant the route ledger has
// already debited, adding the link's RRBs to the used-RRB total and its
// margin to the profit rate; on CloudBS the task runs remotely at zero
// MEC profit. Either way its lifetime is drawn now and its departure
// scheduled.
func (s *session) place(u mec.UEID, b mec.BSID) {
	co := s.cohorts[s.cohortOf[u]]
	p := placement{live: true, bs: b}
	if b == mec.CloudBS {
		s.rep.CloudServed++
		co.cloudServed++
		co.counters.cloudServed.Inc()
	} else {
		// The ledger grants only over candidate links, so the link
		// exists; only its RRB count and price are read.
		csr := s.net.Dense()
		k := csr.FindCand(u, b)
		p.rrbs = int(csr.RRBs[k])
		p.margin = alloc.Margin(s.net, mec.Link{UE: u, PricePerCRU: csr.Price[k]})
		s.rep.EdgeServed++
		co.edgeServed++
		co.counters.edgeServed.Inc()
		s.usedRRBs += p.rrbs
		s.profitRate += p.margin
	}
	s.book[u] = p
	s.nActive++
	s.scheduleDeparture(u, co.hold.Sample(co.src))
}

// matchWaiting computes the policy's choice for each waiting UE given the
// residual resources. The session-persistent SubView masks the parent
// network's candidate store to the waiting set and snapshots the live
// residuals as its capacity rows — no network rebuild, no UE renumbering:
// the returned assignment is indexed by real UE ID, with every
// non-waiting UE on the cloud. A fully drained BS stays present with
// zero residual capacity and rejects proposals normally, preserving
// every waiting UE's true coverage count f_u.
func (s *session) matchWaiting() (mec.Assignment, error) {
	res, err := s.allocator.Allocate(s.subview.Refresh(s.waiting, s.state))
	if err != nil {
		return mec.Assignment{}, fmt.Errorf("online: epoch allocation: %w", err)
	}
	return res.Assignment, nil
}

// scheduleDeparture releases the UE's resources after its holding time.
// Departures scheduled past the horizon never fire (the drive loop
// stops at DurationS); one at exactly the horizon counts.
func (s *session) scheduleDeparture(u mec.UEID, hold float64) {
	s.engine.Schedule(hold, func() {
		s.integrateTo(s.engine.Now())
		p := s.book[u]
		if !p.live {
			return
		}
		s.book[u] = placement{}
		s.nActive--
		if p.bs != mec.CloudBS {
			s.profitRate -= p.margin
			s.usedRRBs -= p.rrbs
			if s.inc != nil {
				s.inc.Depart(u)
			} else {
				s.state.Unassign(u)
			}
		}
		co := s.cohorts[s.cohortOf[u]]
		co.inactive = append(co.inactive, u)
		s.rep.Departures++
		co.departures++
		co.counters.departures.Inc()
	})
}

// testHookAllocator, when non-nil, replaces the configured matching
// policy. Tests use it to inject a failing allocator; always nil in
// production.
var testHookAllocator alloc.Allocator

func allocatorFor(cfg Config) (alloc.Allocator, error) {
	if testHookAllocator != nil {
		return testHookAllocator, nil
	}
	return alloc.ByName(cfg.Algorithm)
}
