package main

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math/rand/v2"
	"reflect"
	"strconv"
	"time"

	"dmra/internal/alloc"
	"dmra/internal/engine"
	"dmra/internal/mec"
	"dmra/internal/obs"
	"dmra/internal/online"
	"dmra/internal/wire"
	scenario "dmra/internal/workload"
	"dmra/internal/workload/dynamic"
)

// A workload is one closed loop of a single client: setup builds its inputs
// from the seed alone, then the runner calls op back to back, each op
// starting only after the previous one returned.
type workload struct {
	name string
	// minOps is the fewest timed ops a run makes, whatever its duration.
	minOps int
	// tail is the percentile op_tail_ms reports. It leaves at least ten of
	// minOps samples above it.
	tail float64
	// period, when set, is the least time from one op's start to the next.
	period time.Duration
	setup  func(e *env) (*instance, error)
}

// workloads run in this order. Each stresses a different layer; see
// README.md for why each was chosen and which metrics it should move.
// Every network is large enough that profit, served UEs and the work an op
// does vary by a few percent at most from seed to seed.
var workloads = []*workload{
	{name: "batch-city100k", minOps: 100, tail: 90, setup: setupBatch},
	// Churn's profit and served count are read at epoch minOps, so every
	// run reports the same quality whatever its op count. Its ops are
	// many enough for p99, but the p98 and p99 of its ~1 ms ops follow the
	// machine's hiccups: across ten runs they spread by 23% and 45%, p90
	// by 8%.
	{name: "churn-city100k", minOps: 1000, tail: 90, setup: setupChurn},
	// Session ops take 0.25-0.4 s, so fifty fit in a run even on a slow
	// machine.
	{name: "session-city28k", minOps: 50, tail: 80, setup: setupSession},
	// Each cluster op opens and closes a TCP connection per BS. Linux
	// keeps a closed connection's port in TIME_WAIT for 60 s, and op
	// latency doubles once ~9,000 ports are held, so the period caps the
	// churn at 50 connections a second even across back-to-back runs.
	// Last, so its ports age out while the next set's other workloads run.
	{name: "cluster-dense18k", minOps: 40, tail: 75, period: 500 * time.Millisecond, setup: setupCluster},
}

func workloadByName(name string) (*workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// env is what a workload's setup and ops see of the run.
type env struct {
	seed uint64
	// small builds every network at the base dense city (1,100 UEs), for
	// the smoke test.
	small bool
	// ops is the run's minimum op count.
	ops int
	// tr records spans; nil outside the traced phase.
	tr *tracer
	// corrupt, when set, damages every checked assignment, so a test can
	// show that the checks count failed ops.
	corrupt func(mec.Assignment)
}

// instance is one set-up workload.
type instance struct {
	// net is the workload's network; the traced run probes the engine on
	// it.
	net *mec.Network
	// next prepares the next op outside the timed region: it draws the
	// op's inputs and runs periodic checks. Nil when there is nothing to do.
	next func() error
	// op runs one operation and checks its output. events counts the units
	// of work it absorbed: UEs matched, churn events, or simulated session
	// events.
	op func() (events int, err error)
	// finish runs the end-of-run checks, untimed. Nil when there are none.
	finish func() error
	// quality is the profit and edge-served UE count, fixed by the seed.
	quality func() (profit float64, served int)
	// layers adds the workload's own per-layer counts. p50 is the op median
	// of the run's untraced phase. Nil when the workload has none.
	layers func(m metrics, p50 float64) error
}

func (e *env) city(scale int) scenario.Config {
	if e.small {
		return scenario.DenseCity()
	}
	return scenario.DenseCity().Scale(scale)
}

// spreadCity is the Scale(5) city (27,500 UEs) with four times its
// hotspots, each a quarter as populous. Where a hotspot falls relative to
// the BSs sets how contended the match is; more, smaller hotspots average
// that out. From seed to seed the session's profit spreads 1.7%
// (interquartile) here against 4.0% with the plain Scale(5) hotspots.
func (e *env) spreadCity() scenario.Config {
	c := e.city(5)
	if !e.small {
		c.HotspotCount *= 4
	}
	return c
}

func (e *env) build(cfg scenario.Config) (*mec.Network, error) {
	defer e.tr.begin("workload.build")()
	net, err := cfg.Build(e.seed)
	if err != nil {
		return nil, fmt.Errorf("build network: %w", err)
	}
	return net, nil
}

// reference runs the match every op of a workload must reproduce.
func (e *env) reference(net *mec.Network, d *alloc.DMRA) (alloc.Result, error) {
	defer e.tr.begin("alloc.reference")()
	res, err := d.Allocate(net)
	if err != nil {
		return res, fmt.Errorf("reference match: %w", err)
	}
	if err := mec.ValidateAssignment(net, res.Assignment); err != nil {
		return res, fmt.Errorf("reference match: %w", err)
	}
	return res, nil
}

// check validates an op's assignment, compares it with the reference hash
// and returns its profit report.
func (e *env) check(net *mec.Network, a mec.Assignment, want uint64) (mec.ProfitReport, error) {
	if e.corrupt != nil {
		e.corrupt(a)
	}
	end := e.tr.begin("mec.report")
	err := mec.ValidateAssignment(net, a)
	var rep mec.ProfitReport
	if err == nil {
		rep = mec.Profit(net, a)
	}
	end()
	if err != nil {
		return rep, err
	}
	defer e.tr.begin("bench.compare")()
	if got := hashAssignment(a); got != want {
		return rep, fmt.Errorf("assignment hash %016x differs from reference %016x", got, want)
	}
	return rep, nil
}

func hashAssignment(a mec.Assignment) uint64 {
	h := fnv.New64a()
	var b [4]byte
	for _, bs := range a.ServingBS {
		binary.LittleEndian.PutUint32(b[:], uint32(int32(bs)))
		h.Write(b[:])
	}
	return h.Sum64()
}

// setupBatch: one re-match of a 110,000-UE city per op. The engine's scan
// path does nearly all the work; obs, online and wire do none. Its traced
// run also measures the same match with telemetry on.
func setupBatch(e *env) (*instance, error) {
	net, err := e.build(e.city(10))
	if err != nil {
		return nil, err
	}
	cfg := alloc.DefaultDMRAConfig()
	// The reference proposes on one worker and every op on GOMAXPROCS, so
	// each op also checks that the parallel propose phase is deterministic.
	ref, err := e.reference(net, alloc.NewDMRA(cfg).WithProposeWorkers(1))
	if err != nil {
		return nil, err
	}
	want := hashAssignment(ref.Assignment)
	d := alloc.NewDMRA(cfg)
	var res alloc.Result
	var rep mec.ProfitReport
	return &instance{
		net: net,
		op: func() (int, error) {
			end := e.tr.begin("alloc.allocate")
			err := d.AllocateInto(net, &res)
			end()
			if err != nil {
				return 0, err
			}
			rep, err = e.check(net, res.Assignment, want)
			return len(net.UEs), err
		},
		quality: func() (float64, int) { return rep.TotalProfit(), rep.ServedUEs() },
		layers: func(m metrics, p50 float64) error {
			return observe(e, net, cfg, want, m, p50)
		},
	}, nil
}

// byteCounter is an io.Writer that keeps only the number of bytes written.
type byteCounter struct{ n int64 }

func (c *byteCounter) Write(p []byte) (int, error) {
	c.n += int64(len(p))
	return len(p), nil
}

// observe runs the batch match with full telemetry attached (a metrics
// registry and a JSONL event sink into a byte counter) and reports its
// event volume and cost against p50, the unobserved op median of the same
// run. Observing a match must not change it.
func observe(e *env, net *mec.Network, cfg alloc.DMRAConfig, want uint64, m metrics, p50 float64) error {
	const reps = 3
	var sunk byteCounter
	var res alloc.Result
	var events int64
	lat := make([]float64, 0, reps)
	for i := 0; i < reps; i++ {
		sink := obs.NewSink(&sunk, 0)
		d := alloc.NewDMRA(cfg).WithObserver(obs.NewRecorder(obs.NewRegistry(), sink))
		t0 := time.Now()
		err := d.AllocateInto(net, &res)
		lat = append(lat, msSince(t0))
		if err == nil {
			err = sink.Err()
		}
		if err == nil {
			_, err = e.check(net, res.Assignment, want)
		}
		if err != nil {
			return fmt.Errorf("observed match: %w", err)
		}
		events += sink.Total()
	}
	perOp := float64(events) / reps
	observed := percentile(lat, 50)
	m.set("obs.events_per_op", perOp, "count")
	m.set("obs.sink_bytes_per_op", float64(sunk.n)/reps, "B")
	m.set("obs.tax_ratio", ratio(observed, p50), "ratio")
	m.set("obs.ns_per_event", ratio((observed-p50)*1e6, perOp), "ns")
	return nil
}

const checkEvery = 1000 // churn epochs between full audits

// setupChurn: an incremental engine holds 90% of a 110,000-UE city; each op
// is one epoch that departs a Poisson draw with mean 1% of the UEs, arrives
// as many inactive ones, and settles. Delta repair runs; the full match
// sits idle.
func setupChurn(e *env) (*instance, error) {
	net, err := e.build(e.city(10))
	if err != nil {
		return nil, err
	}
	n := len(net.UEs)
	rnd := rand.New(rand.NewPCG(e.seed, 0x636875726e)) // stream "churn"
	perm := rnd.Perm(n)
	held := n * 9 / 10
	active := make([]mec.UEID, held, n)
	inactive := make([]mec.UEID, n-held, n)
	for i, u := range perm {
		if i < held {
			active[i] = mec.UEID(u)
		} else {
			inactive[i-held] = mec.UEID(u)
		}
	}

	inc := new(engine.Incremental)
	end := e.tr.begin("engine.begin")
	err = inc.Begin(net, engine.Config(alloc.DefaultDMRAConfig()), 0)
	for _, u := range active {
		if err == nil {
			err = inc.Arrive(u)
		}
	}
	if err == nil {
		_, err = inc.Settle()
	}
	end()
	if err != nil {
		return nil, fmt.Errorf("initial settle: %w", err)
	}

	mean := float64(n) / 100
	var departs, arrives []mec.UEID
	var total engine.DeltaStats
	epochs, audited := 0, -1
	var profit float64
	var served int
	audit := func() error {
		if audited == epochs {
			return nil
		}
		audited = epochs
		defer e.tr.begin("mec.report")()
		a := mec.NewAssignment(n)
		for u, b := range inc.Serving() {
			if b >= 0 {
				a.ServingBS[u] = mec.BSID(b)
			}
		}
		if e.corrupt != nil {
			e.corrupt(a)
		}
		if err := mec.ValidateAssignment(net, a); err != nil {
			return fmt.Errorf("epoch %d: %w", epochs, err)
		}
		if err := inc.CheckInvariants(); err != nil {
			return fmt.Errorf("epoch %d: %w", epochs, err)
		}
		if epochs == e.ops {
			rep := mec.Profit(net, a)
			profit, served = rep.TotalProfit(), inc.AssignedCount()
		}
		return nil
	}
	return &instance{
		net: net,
		next: func() error {
			k := min(poisson(rnd, mean), len(active), len(inactive))
			active, departs = take(rnd, active, k, departs)
			inactive, arrives = take(rnd, inactive, k, arrives)
			active = append(active, arrives...)
			inactive = append(inactive, departs...)
			if epochs%checkEvery == 0 || epochs == e.ops {
				return audit()
			}
			return nil
		},
		op: func() (int, error) {
			end := e.tr.begin("engine.depart")
			for _, u := range departs {
				inc.Depart(u)
			}
			end()
			end = e.tr.begin("engine.arrive")
			for _, u := range arrives {
				if err := inc.Arrive(u); err != nil {
					end()
					return 0, err
				}
			}
			end()
			end = e.tr.begin("engine.settle")
			st, err := inc.Settle()
			end()
			if err != nil {
				return 0, err
			}
			total.Add(st)
			epochs++
			return len(departs) + len(arrives), nil
		},
		finish:  audit,
		quality: func() (float64, int) { return profit, served },
		layers: func(m metrics, _ float64) error {
			m.set("engine.frontier_per_epoch", ratio(float64(total.Frontier), float64(epochs)), "count")
			m.set("engine.invalidated_per_release", ratio(float64(total.Invalidated), float64(total.Released)), "count")
			m.set("engine.repair_rounds_per_epoch", ratio(float64(total.Rounds), float64(epochs)), "count")
			m.set("engine.placed_ratio", ratio(float64(total.Accepts), float64(total.Frontier)), "ratio")
			return nil
		},
	}, nil
}

// poisson draws a Poisson variate by counting unit-rate exponential
// arrivals before mean.
func poisson(r *rand.Rand, mean float64) int {
	k := 0
	for t := r.ExpFloat64(); t < mean; t += r.ExpFloat64() {
		k++
	}
	return k
}

// take moves k uniformly drawn UEs from pool into dst (reset first) and
// returns both.
func take(r *rand.Rand, pool []mec.UEID, k int, dst []mec.UEID) ([]mec.UEID, []mec.UEID) {
	dst = dst[:0]
	for ; k > 0; k-- {
		j := r.IntN(len(pool))
		last := len(pool) - 1
		dst = append(dst, pool[j])
		pool[j] = pool[last]
		pool = pool[:last]
	}
	return pool, dst
}

// sessionConfig is a two-minute online session over spreadCity's profile
// pool: a steady Poisson cohort and a bursty gamma cohort (CV 2), both
// holding UEs for exponential lifetimes with mean 60 s, re-matched every
// second. The arrival rates scale with the city's area, so the offered
// load per cell is the same at every scale.
func sessionConfig(e *env) online.Config {
	scale := 5
	if e.small {
		scale = 1
	}
	perCell := float64(scale*scale) / 100
	hold := dynamic.DistSpec{Dist: dynamic.DistExponential, Mean: 60}
	spec := dynamic.Spec{Version: dynamic.SpecVersion, Cohorts: []dynamic.Cohort{
		{Name: "steady", PoolShare: 0.7, HoldS: hold,
			Arrival: dynamic.ArrivalSpec{Process: dynamic.ProcessPoisson, RateHz: 700 * perCell}},
		{Name: "bursty", PoolShare: 0.3, HoldS: hold,
			Arrival: dynamic.ArrivalSpec{Process: dynamic.ProcessGamma, RateHz: 300 * perCell, CV: 2}},
	}}
	cfg := online.DefaultConfig()
	cfg.Scenario = e.spreadCity()
	cfg.Workload = &spec
	cfg.EpochS = 1
	cfg.DurationS = 120
	cfg.Seed = e.seed
	return cfg
}

// setupSession: one whole online session per op, from spec to report.
// Session bookkeeping and the per-epoch SubView matcher dominate.
func setupSession(e *env) (*instance, error) {
	cfg := sessionConfig(e)
	// The profile pool online.Run builds from the same scenario and seed.
	net, err := e.build(cfg.Scenario)
	if err != nil {
		return nil, err
	}
	// The reference runs the delta-repair epoch path and every op the
	// default one; their reports must agree on every field they share.
	inc := cfg
	inc.Incremental = true
	end := e.tr.begin("online.reference")
	want, err := online.Run(inc)
	end()
	if err != nil {
		return nil, fmt.Errorf("reference session: %w", err)
	}
	if want.Saturated != 0 {
		return nil, fmt.Errorf("reference session dropped %d arrivals: pool too small", want.Saturated)
	}
	want.DeltaFrontier, want.DeltaReleased, want.DeltaInvalidated, want.DeltaRepairRounds = 0, 0, 0, 0
	if e.corrupt != nil {
		want.EdgeServed++
	}
	var rep online.Report
	return &instance{
		net: net,
		op: func() (int, error) {
			end := e.tr.begin("online.run")
			r, err := online.Run(cfg)
			end()
			if err != nil {
				return 0, err
			}
			rep = r
			end = e.tr.begin("bench.compare")
			same := reflect.DeepEqual(r, want)
			end()
			if !same {
				return r.Events, fmt.Errorf("session report differs from the delta-repair reference")
			}
			return r.Events, nil
		},
		quality: func() (float64, int) { return rep.ProfitTime, rep.EdgeServed },
		layers: func(m metrics, _ float64) error {
			m.set("online.events_per_op", float64(rep.Events), "count")
			m.set("online.epochs_per_op", float64(rep.Epochs), "count")
			m.set("online.reassign_checks_per_epoch", ratio(float64(rep.ReassignChecks), float64(rep.Epochs)), "count")
			return nil
		},
	}, nil
}

// clusterCity is the base dense city's 25 BSs under 16 times its UEs and
// hotspots: 17,600 UEs. Few BSs keep the connections per op few; many UEs
// make each op long enough to leave the sockets idle, and enough hotspots
// that profit varies little from seed to seed.
func clusterCity(e *env) scenario.Config {
	c := scenario.DenseCity()
	if !e.small {
		c.UEs *= 16
		c.HotspotCount *= 16
	}
	return c
}

// setupCluster: DMRA over TCP, one server per BS and two region
// coordinators. JSON framing and loopback syscalls dominate.
func setupCluster(e *env) (*instance, error) {
	net, err := e.build(clusterCity(e))
	if err != nil {
		return nil, err
	}
	cfg := alloc.DefaultDMRAConfig()
	// The cluster must reproduce the in-memory match exactly.
	ref, err := e.reference(net, alloc.NewDMRA(cfg))
	if err != nil {
		return nil, err
	}
	want := hashAssignment(ref.Assignment)
	var rep mec.ProfitReport
	var ops, frames, handoffs int
	var bytes int64
	// Traced ops record the per-region round latencies here.
	reg := obs.NewRegistry()
	return &instance{
		net: net,
		op: func() (int, error) {
			rc := wire.RegionConfig{DMRA: cfg, Regions: 2}
			if e.tr != nil {
				rc.Obs = obs.NewRecorder(reg, nil)
			}
			end := e.tr.begin("wire.run")
			r, err := wire.RunRegionCluster(net, rc)
			end()
			if err != nil {
				return 0, err
			}
			ops++
			frames += r.Frames
			handoffs += r.HandoffProposals
			bytes += r.BytesSent + r.BytesReceived
			rep, err = e.check(net, r.Assignment, want)
			return len(net.UEs), err
		},
		quality: func() (float64, int) { return rep.TotalProfit(), rep.ServedUEs() },
		layers: func(m metrics, _ float64) error {
			m.set("wire.frames_per_op", ratio(float64(frames), float64(ops)), "count")
			m.set("wire.bytes_per_ue", ratio(float64(bytes), float64(ops*len(net.UEs))), "B")
			m.set("wire.handoff_ratio", ratio(float64(handoffs), float64(ops*ref.Stats.Proposals)), "ratio")
			var sum float64
			var count int64
			for r := 0; r < 2; r++ {
				h := reg.Histogram(obs.Label("wire_region_round_seconds", "region", strconv.Itoa(r)), obs.DefaultLatencyBuckets())
				sum, count = sum+h.Sum(), count+h.Count()
			}
			m.set("wire.round_mean_ms", ratio(sum*1e3, float64(count)), "ms")
			return nil
		},
	}, nil
}
