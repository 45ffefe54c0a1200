// Command dmra-online runs a dynamic arrival/departure session: Poisson
// UE arrivals, exponential task holding times, and periodic re-allocation
// with the chosen algorithm.
//
// Usage:
//
//	dmra-online [flags]
//
//	-rate 5        arrivals per second
//	-hold 120      mean task holding time (seconds)
//	-spec ""       dynamic workload spec (JSON: cohorts, arrival processes,
//	               trace replay; replaces -rate/-hold)
//	-duration 600  simulated horizon (seconds)
//	-epoch 1       re-allocation period (seconds)
//	-algo dmra     matching policy per epoch
//	-incremental   require delta-repair re-matching (dmra only) and print
//	               its counters; dmra sessions delta-repair by default,
//	               and the output is byte-identical either way
//	-seed 1        session seed
//	-replicate 1   independent sessions to aggregate (seeds seed..seed+N-1)
//	-procs 0       worker goroutines for replication (0 = GOMAXPROCS)
//
// With -obs-addr or -trace a dmra session streams each epoch's Alg. 1
// events over its repair frontier (the waiting UEs with a candidate
// link) from the same delta-repair path it runs unobserved.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"

	"dmra"
	"dmra/internal/cliobs"
	"dmra/internal/exp"
	"dmra/internal/viz"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "dmra-online:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("dmra-online", flag.ContinueOnError)
	var (
		rate      = fs.Float64("rate", 5, "UE arrivals per second")
		hold      = fs.Float64("hold", 120, "mean task holding time (s)")
		duration  = fs.Float64("duration", 600, "simulated horizon (s)")
		epoch     = fs.Float64("epoch", 1, "re-allocation period (s)")
		spec      = fs.String("spec", "", "dynamic workload spec file (JSON; replaces -rate/-hold)")
		algo      = fs.String("algo", "dmra", "matching policy (dmra|dcsp|nonco|random|greedy|stablematch)")
		incr      = fs.Bool("incremental", false, "require delta-repair re-matching (dmra only) and print its counters; dmra sessions delta-repair by default, output is byte-identical")
		seed      = fs.Uint64("seed", 1, "session seed")
		pool      = fs.Int("pool", 0, "concurrent-UE profile pool (0 = 4x offered load)")
		series    = fs.Bool("series", false, "chart profit rate and occupancy over time")
		replicate = fs.Int("replicate", 1, "independent sessions to aggregate (seeds seed..seed+N-1)")
		procs     = fs.Int("procs", 0, "worker goroutines for replication (0 = GOMAXPROCS, 1 = sequential)")
		timeline  = fs.String("timeline", "", "write periodic timeline samples to this JSONL file (dmra-debug timeline reads it)")
		tlEvery   = fs.Float64("timeline-every", 0, "timeline sampling period in seconds (0 = one sample per epoch)")
	)
	obsFlags := cliobs.Register(fs)
	cliobs.AppendUsage(fs, "dmra sessions stream each epoch's Alg. 1 events over its repair frontier")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *replicate < 1 {
		return fmt.Errorf("-replicate %d: want at least 1", *replicate)
	}
	obsRT, err := obsFlags.Start()
	if err != nil {
		return err
	}

	cfg := dmra.DefaultOnlineConfig()
	cfg.ArrivalRate = *rate
	cfg.MeanHoldS = *hold
	cfg.DurationS = *duration
	cfg.EpochS = *epoch
	cfg.Algorithm = *algo
	cfg.Incremental = *incr
	cfg.Seed = *seed
	cfg.RecordSeries = *series
	cfg.Obs = obsRT.Rec
	if *spec != "" {
		ws, err := dmra.LoadWorkloadSpec(*spec)
		if err != nil {
			return err
		}
		cfg.Workload = &ws
	}
	if cfg.Scenario.UEs, err = poolSize(cfg, *pool, *rate, *hold); err != nil {
		return err
	}
	scenarioJSON, err := json.Marshal(cfg.Scenario)
	if err != nil {
		return err
	}
	if err := obsRT.WriteManifest(dmra.ObsManifest{
		Tool:      "dmra-online",
		Algorithm: cfg.Algorithm,
		Seed:      cfg.Seed,
		Rho:       cfg.DMRA.Rho,
		Scenario:  scenarioJSON,
	}); err != nil {
		return err
	}

	if *replicate > 1 {
		if *timeline != "" {
			return fmt.Errorf("-timeline records one session; it cannot be combined with -replicate")
		}
		if err := runReplicated(cfg, *replicate, *procs, obsRT.Rec); err != nil {
			return err
		}
		return obsRT.Close()
	}

	var tlBuf *bufio.Writer
	var tlFile *os.File
	if *timeline != "" {
		if tlFile, err = os.Create(*timeline); err != nil {
			return err
		}
		tlBuf = bufio.NewWriter(tlFile)
		cfg.Timeline = tlBuf
		cfg.TimelineEveryS = *tlEvery
	}

	rep, err := dmra.RunOnline(cfg)
	if tlFile != nil {
		if ferr := flushTimeline(tlBuf, tlFile); err == nil {
			err = ferr
		}
	}
	if err != nil {
		return err
	}
	if *timeline != "" {
		fmt.Printf("timeline: wrote %s\n", *timeline)
	}

	if cfg.Workload != nil {
		fmt.Printf("dynamic session: spec %s (%d cohorts), %.0f s horizon, %s every %.1f s (seed %d)\n\n",
			*spec, len(cfg.Workload.Cohorts), *duration, *algo, *epoch, *seed)
	} else {
		fmt.Printf("dynamic session: %.1f UE/s, %.0f s mean hold, %.0f s horizon, %s every %.1f s (seed %d)\n\n",
			*rate, *hold, *duration, *algo, *epoch, *seed)
	}
	fmt.Printf("arrivals:        %d (%d departures within horizon, %d pool-saturated)\n",
		rep.Arrivals, rep.Departures, rep.Saturated)
	fmt.Printf("admissions:      %d edge + %d cloud (edge ratio %.0f%%)\n",
		rep.EdgeServed, rep.CloudServed, 100*rep.EdgeRatio())
	if offered, err := offeredLoad(cfg); err == nil {
		fmt.Printf("mean concurrent: %.1f UEs (Little's law predicts ~%.1f)\n",
			rep.MeanConcurrent, offered)
	} else {
		fmt.Printf("mean concurrent: %.1f UEs\n", rep.MeanConcurrent)
	}
	fmt.Printf("RRB occupancy:   %.0f%% (time-averaged)\n", 100*rep.MeanOccupancyRRB)
	fmt.Printf("profit-time:     %.0f price-units x s over %d epochs (%d matcher invocations)\n",
		rep.ProfitTime, rep.Epochs, rep.ReassignChecks)
	if cfg.Incremental {
		fmt.Printf("delta repair:    %d frontier UEs, %d released, %d stale regions rebuilt, %d repair rounds\n",
			rep.DeltaFrontier, rep.DeltaReleased, rep.DeltaInvalidated, rep.DeltaRepairRounds)
	}

	if len(rep.Cohorts) > 0 {
		fmt.Printf("\n%-12s %6s %8s %8s %9s %6s %6s\n",
			"cohort", "pool", "arrivals", "departs", "saturated", "edge", "cloud")
		for _, c := range rep.Cohorts {
			fmt.Printf("%-12s %6d %8d %8d %9d %6d %6d\n",
				c.Name, c.PoolSize, c.Arrivals, c.Departures, c.Saturated, c.EdgeServed, c.CloudServed)
		}
	}

	if *series && len(rep.Series) > 0 {
		fmt.Println()
		times := make([]float64, len(rep.Series))
		profit := make([]float64, len(rep.Series))
		occupancy := make([]float64, len(rep.Series))
		for i, s := range rep.Series {
			times[i] = s.TimeS
			profit[i] = s.ProfitRate
			occupancy[i] = 100 * s.OccupancyRRB
		}
		for _, p := range []*viz.Plot{
			{Title: "profit rate over time (price-units/s)", XLabel: "s",
				Series: []viz.Series{{Name: "profit/s", X: times, Y: profit}}},
			{Title: "RRB occupancy over time (%)", XLabel: "s",
				Series: []viz.Series{{Name: "occupancy %", X: times, Y: occupancy}}},
		} {
			chart, err := p.Render()
			if err != nil {
				return err
			}
			fmt.Println(chart)
		}
	}
	return obsRT.Close()
}

// flushTimeline flushes and closes the timeline file, reporting the
// first failure — samples must reach disk before the run claims success.
func flushTimeline(buf *bufio.Writer, f *os.File) error {
	ferr := buf.Flush()
	if cerr := f.Close(); ferr == nil {
		ferr = cerr
	}
	if ferr != nil {
		return fmt.Errorf("timeline: %w", ferr)
	}
	return nil
}

// maxAutoPool bounds the auto-sized profile pool. Each profile costs
// precomputed link state; a request past this bound is almost certainly a
// mistyped rate or hold, so the sizing fails loudly instead of attempting
// a multi-gigabyte build (or, worse, overflowing int and passing a
// negative UE count downstream).
const maxAutoPool = 1 << 20

// poolSize resolves the concurrent-UE profile pool: an explicit -pool
// wins; otherwise the pool is sized at 4x the steady-state offered load
// (Little's law) so saturation of the pool itself is unlikely, clamped
// to [100, maxAutoPool]. Trace-replay specs have no intrinsic load and
// require an explicit -pool.
func poolSize(cfg dmra.OnlineConfig, pool int, rate, hold float64) (int, error) {
	if pool > 0 {
		return pool, nil
	}
	if pool < 0 {
		return 0, fmt.Errorf("-pool %d: want positive", pool)
	}
	offered, err := offeredLoad(cfg)
	if err != nil {
		return 0, fmt.Errorf("cannot auto-size the profile pool (%w); pass -pool explicitly", err)
	}
	if math.IsNaN(offered) || math.IsInf(offered, 0) || offered < 0 {
		return 0, fmt.Errorf("offered load %g UE/s x s (rate %g, hold %g): want non-negative and finite", offered, rate, hold)
	}
	p := 4 * offered
	if p > maxAutoPool {
		return 0, fmt.Errorf("auto-sized profile pool %.0f exceeds %d (offered load %.0f concurrent UEs); pass -pool explicitly if this load is intended", p, maxAutoPool, offered)
	}
	n := int(p)
	if n < 100 {
		n = 100
	}
	return n, nil
}

// offeredLoad returns the configured workload's steady-state concurrent
// population (Little's law).
func offeredLoad(cfg dmra.OnlineConfig) (float64, error) {
	if cfg.Workload != nil {
		return cfg.Workload.OfferedLoad()
	}
	return cfg.ArrivalRate * cfg.MeanHoldS, nil
}

// runReplicated aggregates n independent sessions (seeds cfg.Seed ..
// cfg.Seed+n-1) run across procs workers as one exp.Replicate row, so
// the printed summary is independent of scheduling.
func runReplicated(cfg dmra.OnlineConfig, n, procs int, rec *dmra.ObsRecorder) error {
	names := []string{"edge ratio (%)", "profit-time", "RRB occupancy (%)", "mean concurrent UEs"}
	rows, err := exp.Replicate(procs, 1, n, len(names), rec, func(_, i int) ([]float64, error) {
		c := cfg
		c.Seed = cfg.Seed + uint64(i)
		c.RecordSeries = false
		rep, err := dmra.RunOnline(c)
		if err != nil {
			return nil, fmt.Errorf("session seed %d: %w", c.Seed, err)
		}
		return []float64{100 * rep.EdgeRatio(), rep.ProfitTime, 100 * rep.MeanOccupancyRRB, rep.MeanConcurrent}, nil
	})
	if err != nil {
		return err
	}
	if cfg.Workload != nil {
		fmt.Printf("dynamic sessions: %d replications, %d-cohort workload spec, %.0f s horizon, %s every %.1f s (seeds %d-%d)\n\n",
			n, len(cfg.Workload.Cohorts), cfg.DurationS, cfg.Algorithm, cfg.EpochS, cfg.Seed, cfg.Seed+uint64(n)-1)
	} else {
		fmt.Printf("dynamic sessions: %d replications, %.1f UE/s, %.0f s mean hold, %.0f s horizon, %s every %.1f s (seeds %d-%d)\n\n",
			n, cfg.ArrivalRate, cfg.MeanHoldS, cfg.DurationS, cfg.Algorithm, cfg.EpochS, cfg.Seed, cfg.Seed+uint64(n)-1)
	}
	for i, name := range names {
		s := rows[0][i]
		fmt.Printf("%-20s %12.2f ±%-8.2f (min %.2f, max %.2f)\n",
			name, s.Mean, s.CI95(), s.Min, s.Max)
	}
	return nil
}
