// Package exp regenerates the paper's evaluation: one runner per figure
// (the paper has no numeric tables; Figs. 2-7 are the entire §VI), with
// multi-seed replication and confidence intervals.
package exp

import (
	"fmt"
	"strings"

	"dmra/internal/alloc"
	"dmra/internal/mec"
	"dmra/internal/metrics"
	"dmra/internal/obs"
	"dmra/internal/qos"
	"dmra/internal/workload"
)

// Metric selects what a figure measures.
type Metric string

// Supported metrics.
const (
	// MetricProfit is the total SP profit (Eq. 11), the y-axis of
	// Figs. 2-6.
	MetricProfit Metric = "profit"
	// MetricForwardedMbps is the total forwarded traffic load in Mbit/s,
	// the y-axis of Fig. 7.
	MetricForwardedMbps Metric = "forwarded"
	// MetricServed counts edge-served UEs (not a paper figure; used by
	// ablations).
	MetricServed Metric = "served"
	// MetricLatencyMs is the mean task latency in milliseconds under
	// qos.DefaultConfig (not a paper figure).
	MetricLatencyMs Metric = "latency"
)

// XAxis selects a figure's swept parameter.
type XAxis string

// Supported sweep axes.
const (
	// XUEs sweeps the UE population (Figs. 2-5).
	XUEs XAxis = "ues"
	// XRho sweeps Eq. 17's rho weight (Figs. 6-7).
	XRho XAxis = "rho"
	// The remaining axes are not paper figures; dmra-sweep explores them.
	// XIota sweeps the cross-SP price factor.
	XIota XAxis = "iota"
	// XCoverage sweeps the BS coverage radius in metres.
	XCoverage XAxis = "coverage"
	// XHotspotFraction sweeps the share of UEs placed in hotspots.
	XHotspotFraction XAxis = "hotspot-fraction"
	// XServices sweeps |S|, clamping ServicesPerBS to it.
	XServices XAxis = "services"
)

// Figure describes one reproducible figure of §VI.
type Figure struct {
	// ID is the paper's figure number (2-7).
	ID int
	// Title matches the paper's caption.
	Title string
	// Iota is the cross-SP price factor of the scenario.
	Iota float64
	// Placement is the BS deployment method.
	Placement workload.Placement
	// X and XValues define the sweep.
	X       XAxis
	XValues []float64
	// UEs fixes the population for every axis but XUEs.
	UEs int
	// Algorithms are the series; rho sweeps plot DMRA only.
	Algorithms []string
	// Metric is the measured quantity.
	Metric Metric
}

// Figures returns the paper's six evaluation figures.
func Figures() []Figure {
	ueSweep := []float64{400, 500, 600, 700, 800, 900}
	rhoSweep := []float64{0, 100, 200, 300, 400, 500, 600, 700, 800, 900, 1000}
	cmp := []string{"dmra", "dcsp", "nonco"}
	return []Figure{
		{ID: 2, Title: "Fig. 2: Total profit of SPs vs. number of UEs (iota=2, regular BS placement)",
			Iota: 2, Placement: workload.PlacementRegular, X: XUEs, XValues: ueSweep,
			Algorithms: cmp, Metric: MetricProfit},
		{ID: 3, Title: "Fig. 3: Total profit of SPs vs. number of UEs (iota=2, random BS placement)",
			Iota: 2, Placement: workload.PlacementRandom, X: XUEs, XValues: ueSweep,
			Algorithms: cmp, Metric: MetricProfit},
		{ID: 4, Title: "Fig. 4: Total profit of SPs vs. number of UEs (iota=1.1, regular BS placement)",
			Iota: 1.1, Placement: workload.PlacementRegular, X: XUEs, XValues: ueSweep,
			Algorithms: cmp, Metric: MetricProfit},
		{ID: 5, Title: "Fig. 5: Total profit of SPs vs. number of UEs (iota=1.1, random BS placement)",
			Iota: 1.1, Placement: workload.PlacementRandom, X: XUEs, XValues: ueSweep,
			Algorithms: cmp, Metric: MetricProfit},
		{ID: 6, Title: "Fig. 6: Total profit of SPs vs. rho (iota=2, number of UEs=1000, regular BS placement)",
			Iota: 2, Placement: workload.PlacementRegular, X: XRho, XValues: rhoSweep, UEs: 1000,
			Algorithms: []string{"dmra"}, Metric: MetricProfit},
		{ID: 7, Title: "Fig. 7: Total forwarded traffic load vs. rho (iota=1.1, number of UEs=1000, regular BS placement)",
			Iota: 1.1, Placement: workload.PlacementRegular, X: XRho, XValues: rhoSweep, UEs: 1000,
			Algorithms: []string{"dmra"}, Metric: MetricForwardedMbps},
	}
}

// TitleShort returns a compact identifier ("fig2") for file names and
// sub-benchmark labels.
func (f Figure) TitleShort() string {
	return fmt.Sprintf("fig%d", f.ID)
}

// FigureByID returns the figure with the given paper number.
func FigureByID(id int) (Figure, error) {
	for _, f := range Figures() {
		if f.ID == id {
			return f, nil
		}
	}
	return Figure{}, fmt.Errorf("exp: no figure %d (paper has Figs. 2-7)", id)
}

// Options controls a figure run.
//
// The zero value requests the documented defaults. Parameters whose zero
// is a legitimate setting (BaseSeed 0, Rho 0 — the Eq. 17 price-only
// ablation) are pointers so "unset" and "explicitly zero" stay
// distinguishable; build them with the Rho and BaseSeed helpers.
type Options struct {
	// Seeds is the number of independent replications (default 20).
	Seeds int
	// BaseSeed offsets the replication seeds: replication k builds its
	// scenario from *BaseSeed + k. Nil means the default base seed 1;
	// BaseSeed(0) is a valid explicit choice.
	BaseSeed *uint64
	// Workload overrides the scenario defaults; leave nil for
	// workload.Default(). Iota, placement, UE count and the swept
	// parameter are always set by the figure itself.
	Workload *workload.Config
	// Rho is the DMRA rho used in UE sweeps; ignored for rho sweeps.
	// Nil means the calibrated default (alloc.DefaultDMRAConfig().Rho);
	// Rho(0) runs the price-only preference ablation, dropping the
	// remaining-resource term of Eq. 17 entirely.
	Rho *float64
	// Parallelism caps the worker goroutines fanning the (seed, x-value)
	// replication grid. 0 (the default) uses GOMAXPROCS; 1 forces the
	// sequential path. The output table is byte-identical regardless.
	Parallelism int
	// Obs, when non-nil, receives run telemetry: per-task latency and
	// per-worker busy-time from the replication grid, plus the DMRA
	// convergence counters (rounds, proposals, accepts, rejects) from
	// every DMRA replication. Telemetry never alters the result table —
	// runs with and without Obs produce byte-identical output.
	Obs *obs.Recorder
}

// Rho wraps an explicit rho for Options.Rho, distinguishing "rho = 0"
// (price-only ablation) from "use the default".
func Rho(v float64) *float64 { return &v }

// BaseSeed wraps an explicit base seed for Options.BaseSeed,
// distinguishing "seed 0" from "use the default".
func BaseSeed(v uint64) *uint64 { return &v }

// resolved is Options with every default applied; zero values in here are
// real settings, not sentinels.
type resolved struct {
	seeds       int
	baseSeed    uint64
	rho         float64
	parallelism int
	workload    *workload.Config
	obs         *obs.Recorder
}

func (o Options) resolve() resolved {
	r := resolved{
		seeds:       o.Seeds,
		baseSeed:    1,
		rho:         alloc.DefaultDMRAConfig().Rho,
		parallelism: o.Parallelism,
		workload:    o.Workload,
		obs:         o.Obs,
	}
	if r.seeds <= 0 {
		r.seeds = 20
	}
	if o.BaseSeed != nil {
		r.baseSeed = *o.BaseSeed
	}
	if o.Rho != nil {
		r.rho = *o.Rho
	}
	return r
}

// Run executes the figure and returns its data table. The replication
// grid (every seed of every x value) runs through Replicate across
// Options.Parallelism worker goroutines; each replication builds its own
// mec.Network, so the table is byte-identical to a sequential run
// regardless of scheduling.
func (f Figure) Run(opts Options) (*metrics.Table, error) {
	o := opts.resolve()
	base := workload.Default()
	if o.workload != nil {
		base = *o.workload
	}
	base.Pricing.CrossSPFactor = f.Iota
	base.Placement = f.Placement
	base.UEs = f.UEs
	metric, err := metricFor(f.Metric)
	if err != nil {
		return nil, err
	}

	// Validate the axis and every algorithm name and instantiate each x
	// value's allocators once, before any replication runs: a bad name
	// must fail fast, not after Seeds x |XValues| allocations of work.
	type point struct {
		cfg        workload.Config
		allocators []alloc.Allocator
	}
	points := make([]point, len(f.XValues))
	for xi, x := range f.XValues {
		cfg, rho, err := f.X.apply(base, o.rho, x)
		if err != nil {
			return nil, err
		}
		dmraCfg := alloc.DMRAConfig{Rho: rho, SPPriority: true, FuTieBreak: true}
		allocators := make([]alloc.Allocator, len(f.Algorithms))
		for ai, name := range f.Algorithms {
			a, err := allocatorFor(name, dmraCfg, o.obs)
			if err != nil {
				return nil, err
			}
			allocators[ai] = a
		}
		points[xi] = point{cfg: cfg, allocators: allocators}
	}

	// Allocators are shared across workers: every built-in is stateless
	// per Allocate call.
	rows, err := Replicate(o.parallelism, len(points), o.seeds, len(f.Algorithms), o.obs, func(xi, seed int) ([]float64, error) {
		p := points[xi]
		x := f.XValues[xi]
		net, err := p.cfg.Build(o.baseSeed + uint64(seed))
		if err != nil {
			return nil, fmt.Errorf("exp: figure %d x=%g: %w", f.ID, x, err)
		}
		values := make([]float64, len(p.allocators))
		for ai, allocator := range p.allocators {
			res, err := allocator.Allocate(net)
			if err != nil {
				return nil, fmt.Errorf("exp: figure %d x=%g %s: %w", f.ID, x, f.Algorithms[ai], err)
			}
			if values[ai], err = metric(net, res.Assignment); err != nil {
				return nil, err
			}
		}
		return values, nil
	})
	if err != nil {
		return nil, err
	}

	seriesNames := make([]string, len(f.Algorithms))
	for i, a := range f.Algorithms {
		seriesNames[i] = displayName(a)
	}
	tab := &metrics.Table{
		Title:  f.Title,
		XLabel: string(f.X),
		YLabel: string(f.Metric),
		Series: seriesNames,
	}
	for xi, cells := range rows {
		if err := tab.AddRow(f.XValues[xi], cells); err != nil {
			return nil, err
		}
	}
	tab.Sort()
	return tab, nil
}

// apply sets the swept parameter to x in a scenario and a DMRA rho.
func (ax XAxis) apply(cfg workload.Config, rho, x float64) (workload.Config, float64, error) {
	switch ax {
	case XUEs:
		cfg.UEs = int(x)
	case XRho:
		rho = x
	case XIota:
		cfg.Pricing.CrossSPFactor = x
	case XCoverage:
		cfg.Radio.CoverageRadiusM = x
	case XHotspotFraction:
		cfg.HotspotFraction = x
	case XServices:
		cfg.Services = int(x)
		cfg.ServicesPerBS = min(cfg.ServicesPerBS, cfg.Services)
	default:
		return cfg, 0, fmt.Errorf("exp: unknown x-axis %q", ax)
	}
	return cfg, rho, nil
}

// metricFor returns the function that extracts metric m from an
// assignment.
func metricFor(m Metric) (func(*mec.Network, mec.Assignment) (float64, error), error) {
	switch m {
	case MetricProfit:
		return func(net *mec.Network, a mec.Assignment) (float64, error) {
			return mec.Profit(net, a).TotalProfit(), nil
		}, nil
	case MetricForwardedMbps:
		return func(net *mec.Network, a mec.Assignment) (float64, error) {
			return mec.Profit(net, a).ForwardedTrafficBps / 1e6, nil
		}, nil
	case MetricServed:
		return func(net *mec.Network, a mec.Assignment) (float64, error) {
			return float64(mec.Profit(net, a).ServedUEs()), nil
		}, nil
	case MetricLatencyMs:
		return func(net *mec.Network, a mec.Assignment) (float64, error) {
			rep, err := qos.Evaluate(net, a, qos.DefaultConfig())
			return rep.MeanS * 1e3, err
		}, nil
	default:
		return nil, fmt.Errorf("exp: unknown metric %q", m)
	}
}

// allocatorFor instantiates the named algorithm, honouring the sweep's
// DMRA configuration. A non-nil recorder is attached to DMRA instances
// only — the reference algorithms have no convergence protocol to trace.
func allocatorFor(name string, dmraCfg alloc.DMRAConfig, rec *obs.Recorder) (alloc.Allocator, error) {
	if name == "dmra" {
		return alloc.NewDMRA(dmraCfg).WithObserver(rec), nil
	}
	return alloc.ByName(name)
}

// Significance runs Welch's t-test of series a against series b at every
// row of a figure table, answering "is a's lead statistically real?".
func Significance(tab *metrics.Table, a, b string) ([]metrics.WelchResult, error) {
	ca, err := tab.SeriesCells(a)
	if err != nil {
		return nil, err
	}
	cb, err := tab.SeriesCells(b)
	if err != nil {
		return nil, err
	}
	out := make([]metrics.WelchResult, len(ca))
	for i := range ca {
		out[i] = metrics.WelchTTest(ca[i], cb[i])
	}
	return out, nil
}

// SignificanceSummary renders one line per baseline summarizing where the
// first series' lead over it is significant at the 0.05 level, e.g.
// "DMRA > DCSP: significant at 6/6 points (max p = 0.003)".
func SignificanceSummary(tab *metrics.Table) (string, error) {
	if len(tab.Series) < 2 {
		return "", nil
	}
	lead := tab.Series[0]
	var b strings.Builder
	for _, other := range tab.Series[1:] {
		results, err := Significance(tab, lead, other)
		if err != nil {
			return "", err
		}
		sig := 0
		maxP := 0.0
		for _, r := range results {
			if r.T > 0 && r.Significant(0.05) {
				sig++
			}
			if r.P > maxP {
				maxP = r.P
			}
		}
		fmt.Fprintf(&b, "%s > %s: significant (p<0.05) at %d/%d points (max p = %.3g)\n",
			lead, other, sig, len(results), maxP)
	}
	return b.String(), nil
}

// displayName maps allocator keys to the paper's series labels.
func displayName(key string) string {
	switch key {
	case "dmra":
		return "DMRA"
	case "dcsp":
		return "DCSP"
	case "nonco":
		return "NonCo"
	case "random":
		return "Random"
	case "greedy":
		return "Greedy"
	default:
		return key
	}
}
