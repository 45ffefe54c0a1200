// Command dmra-sweep runs a generic one-parameter sweep over the scenario
// space and prints a comparison table, for exploration beyond the paper's
// six figures.
//
// Usage:
//
//	dmra-sweep -param ues -values 400,600,800 -algos dmra,dcsp,nonco
//	dmra-sweep -param coverage -values 250,350,450 -metric served
//
// Supported parameters: ues, rho, iota, coverage, hotspot-fraction,
// services. Supported metrics: profit, forwarded, served, latency. This
// mode runs one exp.Figure over the default scenario, so its axes and
// metrics are exactly exp.XAxis and exp.Metric.
//
// A second mode sweeps the *online* session's offered load:
//
//	dmra-sweep -param arrival-rate -values 2,5,10 -hold 60 -duration 300
//	dmra-sweep -param arrival-rate -values 2,5,10 -spec bursty.json
//
// Each point runs full dynamic sessions at that aggregate arrival rate
// (a workload spec, when given, is rate-scaled per point with its cohort
// mix and burst shapes preserved). Online metrics: profit (profit-time),
// served, edge-ratio, concurrent, occupancy.
//
// Both modes fan the whole (point, seed) replication grid across -procs
// workers as one exp.Replicate task pool — a sweep with many small
// points keeps every worker busy instead of draining point by point —
// and each replication writes only its own pre-indexed slot, so the
// table is byte-identical to a sequential run. With -obs-addr/-trace
// the grid and every DMRA replication inside it are observable live;
// arrival-rate sessions stream each epoch's Alg. 1 events over its
// repair frontier.
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"dmra"
	"dmra/internal/cliobs"
	"dmra/internal/exp"
	"dmra/internal/metrics"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "dmra-sweep:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("dmra-sweep", flag.ContinueOnError)
	var (
		param  = fs.String("param", "ues", "swept parameter (ues|rho|iota|coverage|hotspot-fraction|services|arrival-rate)")
		values = fs.String("values", "400,600,800", "comma-separated sweep values")
		algos  = fs.String("algos", "dmra,dcsp,nonco", "comma-separated algorithms")
		metric = fs.String("metric", "profit", "measured quantity (profit|forwarded|served|latency; online adds edge-ratio|concurrent|occupancy)")
		seeds  = fs.Int("seeds", 10, "independent replications per point")
		ues    = fs.Int("ues", 800, "UE population (when not swept)")
		procs  = fs.Int("procs", 0, "worker goroutines for the (point, seed) grid (0 = GOMAXPROCS, 1 = sequential)")
		csv    = fs.Bool("csv", false, "emit CSV instead of an aligned table")

		// arrival-rate (online) sweep flags.
		hold     = fs.Float64("hold", 60, "arrival-rate sweep: mean task holding time (s)")
		duration = fs.Float64("duration", 300, "arrival-rate sweep: simulated horizon (s)")
		epoch    = fs.Float64("epoch", 1, "arrival-rate sweep: re-allocation period (s)")
		spec     = fs.String("spec", "", "arrival-rate sweep: workload spec rate-scaled per point (JSON)")
		pool     = fs.Int("pool", 0, "arrival-rate sweep: concurrent-UE profile pool (0 = 4x offered load)")
		incr     = fs.Bool("incremental", false, "arrival-rate sweep: require delta-repair re-matching for dmra sessions and report its counters (byte-identical output)")
	)
	obsFlags := cliobs.Register(fs)
	cliobs.AppendUsage(fs, "dmra sessions stream each epoch's Alg. 1 events over its repair frontier")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *seeds < 1 {
		return fmt.Errorf("-seeds %d: want at least 1", *seeds)
	}
	obsRT, err := obsFlags.Start()
	if err != nil {
		return err
	}

	xs, err := parseFloats(*values)
	if err != nil {
		return err
	}
	algorithms := strings.Split(*algos, ",")
	// Reject unknown algorithm names before any replication runs.
	for _, algo := range algorithms {
		if err := dmra.ValidateAlgorithm(algo); err != nil {
			return err
		}
	}

	if *param == "arrival-rate" {
		cfg := onlineSweep{
			rates: xs, algorithms: algorithms, metric: *metric,
			seeds: *seeds, procs: *procs, csvOut: *csv,
			hold: *hold, duration: *duration, epoch: *epoch,
			specPath: *spec, pool: *pool, incremental: *incr,
		}
		if err := cfg.run(obsRT.Rec); err != nil {
			return err
		}
		return obsRT.Close()
	}

	scenario := dmra.DefaultScenario()
	f := exp.Figure{
		Title:      fmt.Sprintf("%s vs %s (%d seeds)", *metric, *param, *seeds),
		Iota:       scenario.Pricing.CrossSPFactor,
		Placement:  scenario.Placement,
		X:          exp.XAxis(*param),
		XValues:    xs,
		UEs:        *ues,
		Algorithms: algorithms,
		Metric:     exp.Metric(*metric),
	}
	tab, err := f.Run(exp.Options{Seeds: *seeds, Parallelism: *procs, Obs: obsRT.Rec})
	if err != nil {
		return err
	}
	tab.Series = algorithms // raw names, not the paper's series labels
	if *csv {
		fmt.Print(tab.CSV())
	} else {
		fmt.Print(tab.Text())
	}
	return obsRT.Close()
}

// onlineSweep sweeps the dynamic session's aggregate arrival rate:
// every (rate, seed) cell runs a full online session per algorithm.
type onlineSweep struct {
	rates      []float64
	algorithms []string
	metric     string
	seeds      int
	procs      int
	csvOut     bool

	hold        float64
	duration    float64
	epoch       float64
	specPath    string
	pool        int
	incremental bool
}

// maxAutoPool bounds the auto-sized profile pool, mirroring dmra-online:
// a mistyped rate or hold fails loudly instead of building a huge
// scenario per sweep point.
const maxAutoPool = 1 << 20

func (o onlineSweep) run(rec *dmra.ObsRecorder) error {
	// Reject unknown metrics before any session runs.
	if _, err := measureOnline(o.metric, dmra.OnlineReport{}); err != nil {
		return err
	}
	var base *dmra.WorkloadSpec
	if o.specPath != "" {
		s, err := dmra.LoadWorkloadSpec(o.specPath)
		if err != nil {
			return err
		}
		base = &s
	}

	// Resolve every point's session config up front so a bad rate, an
	// unscalable spec, or an oversized pool fails before the grid runs.
	points := make([]dmra.OnlineConfig, len(o.rates))
	for xi, rate := range o.rates {
		cfg := dmra.DefaultOnlineConfig()
		cfg.ArrivalRate = rate
		cfg.MeanHoldS = o.hold
		cfg.DurationS = o.duration
		cfg.EpochS = o.epoch
		offered := rate * o.hold
		if base != nil {
			scaled, err := base.ScaleRate(rate)
			if err != nil {
				return err
			}
			cfg.Workload = &scaled
			if offered, err = scaled.OfferedLoad(); err != nil {
				return err
			}
		}
		if o.pool > 0 {
			cfg.Scenario.UEs = o.pool
		} else {
			p := 4 * offered
			if p > maxAutoPool {
				return fmt.Errorf("arrival rate %g: auto-sized profile pool %.0f exceeds %d; pass -pool explicitly", rate, p, maxAutoPool)
			}
			cfg.Scenario.UEs = int(p)
			if cfg.Scenario.UEs < 100 {
				cfg.Scenario.UEs = 100
			}
		}
		points[xi] = cfg
	}

	rows, err := exp.Replicate(o.procs, len(o.rates), o.seeds, len(o.algorithms), rec, func(xi, s int) ([]float64, error) {
		values := make([]float64, len(o.algorithms))
		for ai, algo := range o.algorithms {
			cfg := points[xi]
			cfg.Algorithm = algo
			// dmra sessions delta-repair their epochs by default;
			// -incremental adds its counters to the report. Delta repair
			// is a dmra-engine mode, so other policies in the same sweep
			// run their usual from-scratch epochs.
			cfg.Incremental = o.incremental && algo == "dmra"
			cfg.Seed = uint64(s) + 1
			cfg.Obs = rec
			rep, err := dmra.RunOnline(cfg)
			if err != nil {
				return nil, fmt.Errorf("%s at arrival-rate=%g seed %d: %w", algo, o.rates[xi], cfg.Seed, err)
			}
			if values[ai], err = measureOnline(o.metric, rep); err != nil {
				return nil, err
			}
		}
		return values, nil
	})
	if err != nil {
		return err
	}

	tab := &metrics.Table{
		Title:  fmt.Sprintf("%s vs arrival-rate (%d seeds, %.0f s horizon)", o.metric, o.seeds, o.duration),
		XLabel: "arrival-rate",
		YLabel: o.metric,
		Series: o.algorithms,
	}
	for xi, x := range o.rates {
		if err := tab.AddRow(x, rows[xi]); err != nil {
			return err
		}
	}
	tab.Sort()
	if o.csvOut {
		fmt.Print(tab.CSV())
	} else {
		fmt.Print(tab.Text())
	}
	return nil
}

// measureOnline maps a metric name onto an online session report.
func measureOnline(metric string, rep dmra.OnlineReport) (float64, error) {
	switch metric {
	case "profit":
		return rep.ProfitTime, nil
	case "served":
		return float64(rep.EdgeServed + rep.CloudServed), nil
	case "edge-ratio":
		return 100 * rep.EdgeRatio(), nil
	case "concurrent":
		return rep.MeanConcurrent, nil
	case "occupancy":
		return 100 * rep.MeanOccupancyRRB, nil
	default:
		return 0, fmt.Errorf("unknown online metric %q (want profit|served|edge-ratio|concurrent|occupancy)", metric)
	}
}

func parseFloats(csv string) ([]float64, error) {
	parts := strings.Split(csv, ",")
	out := make([]float64, 0, len(parts))
	for _, p := range parts {
		v, err := strconv.ParseFloat(strings.TrimSpace(p), 64)
		if err != nil {
			return nil, fmt.Errorf("bad value %q: %w", p, err)
		}
		out = append(out, v)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("no sweep values")
	}
	return out, nil
}
