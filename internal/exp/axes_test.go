package exp

import (
	"testing"

	"dmra/internal/alloc"
	"dmra/internal/metrics"
	"dmra/internal/workload"
)

// TestFigureAxes runs a tiny figure on every x-axis and checks that the
// axis took effect: each point's cell must equal a fixed-population run
// whose scenario (or DMRA rho) was set to that value by hand, and the
// axis's two values must give different cells.
func TestFigureAxes(t *testing.T) {
	const ues = 150
	defaultRho := alloc.DefaultDMRAConfig().Rho
	cases := []struct {
		axis   XAxis
		values [2]float64
		// set applies x to the hand-built reference run.
		set func(cfg *workload.Config, f *Figure, x float64)
	}{
		{XUEs, [2]float64{80, 160}, func(_ *workload.Config, f *Figure, x float64) { f.UEs = int(x) }},
		{XRho, [2]float64{0, 1000}, func(_ *workload.Config, f *Figure, x float64) { f.XValues = []float64{x} }},
		{XIota, [2]float64{1.1, 3}, func(_ *workload.Config, f *Figure, x float64) { f.Iota = x }},
		{XCoverage, [2]float64{150, 450}, func(cfg *workload.Config, _ *Figure, x float64) { cfg.Radio.CoverageRadiusM = x }},
		{XHotspotFraction, [2]float64{0, 1}, func(cfg *workload.Config, _ *Figure, x float64) { cfg.HotspotFraction = x }},
		// Services below the default ServicesPerBS must clamp it, or the
		// scenario fails validation.
		{XServices, [2]float64{2, 6}, func(cfg *workload.Config, _ *Figure, x float64) {
			cfg.Services = int(x)
			cfg.ServicesPerBS = int(x)
		}},
	}
	run := func(f Figure, opts Options) metrics.Summary {
		t.Helper()
		tab, err := f.Run(opts)
		if err != nil {
			t.Fatalf("%s: %v", f.X, err)
		}
		return tab.Rows[0].Cells[0]
	}
	for _, c := range cases {
		var got [2]metrics.Summary
		for i, x := range c.values {
			f := Figure{Iota: 2, Placement: workload.PlacementRegular, X: c.axis, XValues: []float64{x},
				UEs: ues, Algorithms: []string{"dmra"}, Metric: MetricProfit}
			got[i] = run(f, Options{Seeds: 2})

			cfg := workload.Default()
			ref := Figure{Iota: 2, Placement: workload.PlacementRegular, X: XRho, XValues: []float64{defaultRho},
				UEs: ues, Algorithms: []string{"dmra"}, Metric: MetricProfit}
			c.set(&cfg, &ref, x)
			if want := run(ref, Options{Seeds: 2, Workload: &cfg}); got[i] != want {
				t.Errorf("%s=%g: cell %+v, want the hand-set run's %+v", c.axis, x, got[i], want)
			}
		}
		if got[0] == got[1] {
			t.Errorf("%s: values %v gave the same cell %+v", c.axis, c.values, got[0])
		}
	}
}
