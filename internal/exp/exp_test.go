package exp

import (
	"strings"
	"testing"

	"dmra/internal/workload"
)

func TestFiguresCoverPaper(t *testing.T) {
	figs := Figures()
	if len(figs) != 6 {
		t.Fatalf("got %d figures, want 6 (paper Figs. 2-7)", len(figs))
	}
	seen := make(map[int]bool)
	for _, f := range figs {
		if f.ID < 2 || f.ID > 7 {
			t.Errorf("unexpected figure ID %d", f.ID)
		}
		if seen[f.ID] {
			t.Errorf("duplicate figure %d", f.ID)
		}
		seen[f.ID] = true
		if len(f.XValues) == 0 || len(f.Algorithms) == 0 {
			t.Errorf("figure %d has empty sweep or series", f.ID)
		}
	}
	// Comparison figures carry all three algorithms; rho figures DMRA only.
	for _, id := range []int{2, 3, 4, 5} {
		f, err := FigureByID(id)
		if err != nil {
			t.Fatal(err)
		}
		if len(f.Algorithms) != 3 {
			t.Errorf("figure %d has %d series, want 3", id, len(f.Algorithms))
		}
		if f.Metric != MetricProfit || f.X != XUEs {
			t.Errorf("figure %d: metric=%s x=%s", id, f.Metric, f.X)
		}
	}
	for _, id := range []int{6, 7} {
		f, err := FigureByID(id)
		if err != nil {
			t.Fatal(err)
		}
		if f.X != XRho || f.UEs != 1000 {
			t.Errorf("figure %d: x=%s ues=%d", id, f.X, f.UEs)
		}
	}
	if f, _ := FigureByID(7); f.Metric != MetricForwardedMbps {
		t.Error("figure 7 must measure forwarded traffic")
	}
}

func TestFigureByIDUnknown(t *testing.T) {
	if _, err := FigureByID(1); err == nil {
		t.Error("figure 1 accepted")
	}
	if _, err := FigureByID(8); err == nil {
		t.Error("figure 8 accepted")
	}
}

// shrink makes a figure cheap enough for unit testing.
func shrink(f Figure, xs []float64) Figure {
	f.XValues = xs
	return f
}

func TestRunFig2Shape(t *testing.T) {
	f, err := FigureByID(2)
	if err != nil {
		t.Fatal(err)
	}
	f = shrink(f, []float64{400, 700})
	tab, err := f.Run(Options{Seeds: 4})
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 2 {
		t.Fatalf("rows = %d, want 2", len(tab.Rows))
	}
	dmra, err := tab.SeriesMeans("DMRA")
	if err != nil {
		t.Fatal(err)
	}
	// Profit increases with UEs.
	if dmra[1] <= dmra[0] {
		t.Errorf("DMRA profit not increasing: %v", dmra)
	}
	// DMRA dominates both baselines at every x (the headline result).
	for _, other := range []string{"DCSP", "NonCo"} {
		means, err := tab.SeriesMeans(other)
		if err != nil {
			t.Fatal(err)
		}
		for i := range means {
			if dmra[i] <= means[i] {
				t.Errorf("row %d: DMRA %.0f not above %s %.0f", i, dmra[i], other, means[i])
			}
		}
	}
}

func TestRunFig7Shape(t *testing.T) {
	f, err := FigureByID(7)
	if err != nil {
		t.Fatal(err)
	}
	f = shrink(f, []float64{0, 500})
	tab, err := f.Run(Options{Seeds: 6})
	if err != nil {
		t.Fatal(err)
	}
	means, err := tab.SeriesMeans("DMRA")
	if err != nil {
		t.Fatal(err)
	}
	// Forwarded traffic decreases as rho grows.
	if means[1] >= means[0] {
		t.Errorf("forwarded traffic not decreasing with rho: %v", means)
	}
}

func TestRunRespectsWorkloadOverride(t *testing.T) {
	f, err := FigureByID(2)
	if err != nil {
		t.Fatal(err)
	}
	f = shrink(f, []float64{300})
	small := workload.Default()
	small.SPs = 2
	small.BSsPerSP = 2
	tab, err := f.Run(Options{Seeds: 2, Workload: &small})
	if err != nil {
		t.Fatal(err)
	}
	// With 4 BSs instead of 25, far fewer UEs are served: profit must be
	// well below the default-scenario level at the same population.
	tabBig, err := f.Run(Options{Seeds: 2})
	if err != nil {
		t.Fatal(err)
	}
	smallMeans, _ := tab.SeriesMeans("DMRA")
	bigMeans, _ := tabBig.SeriesMeans("DMRA")
	if smallMeans[0] >= bigMeans[0] {
		t.Errorf("4-BS profit %v not below 25-BS profit %v", smallMeans[0], bigMeans[0])
	}
}

func TestRunDeterministicInSeeds(t *testing.T) {
	f, err := FigureByID(4)
	if err != nil {
		t.Fatal(err)
	}
	f = shrink(f, []float64{400})
	a, err := f.Run(Options{Seeds: 3})
	if err != nil {
		t.Fatal(err)
	}
	b, err := f.Run(Options{Seeds: 3})
	if err != nil {
		t.Fatal(err)
	}
	if a.Rows[0].Cells[0].Mean != b.Rows[0].Cells[0].Mean {
		t.Error("identical options produced different results")
	}
	c, err := f.Run(Options{Seeds: 3, BaseSeed: BaseSeed(99)})
	if err != nil {
		t.Fatal(err)
	}
	if a.Rows[0].Cells[0].Mean == c.Rows[0].Cells[0].Mean {
		t.Error("different base seeds produced identical results")
	}
}

func TestTableRendering(t *testing.T) {
	f, err := FigureByID(6)
	if err != nil {
		t.Fatal(err)
	}
	f = shrink(f, []float64{0, 250})
	tab, err := f.Run(Options{Seeds: 2})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(tab.Text(), "Fig. 6") {
		t.Error("text output missing title")
	}
	if !strings.Contains(tab.CSV(), "DMRA_mean") {
		t.Error("csv output missing series header")
	}
}

func TestMeasureUnknownMetric(t *testing.T) {
	if _, err := metricFor("jitter"); err == nil {
		t.Error("unknown metric accepted")
	}
	f := Figure{X: XUEs, XValues: []float64{100}, Algorithms: []string{"dmra"}, Metric: "jitter"}
	if _, err := f.Run(Options{Seeds: 1}); err == nil || !strings.Contains(err.Error(), `"jitter"`) {
		t.Errorf("Run with an unknown metric: err = %v, want one naming it", err)
	}
}

func TestSignificance(t *testing.T) {
	f, err := FigureByID(2)
	if err != nil {
		t.Fatal(err)
	}
	f = shrink(f, []float64{700})
	tab, err := f.Run(Options{Seeds: 10})
	if err != nil {
		t.Fatal(err)
	}
	results, err := Significance(tab, "DMRA", "DCSP")
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 1 {
		t.Fatalf("results = %d", len(results))
	}
	if results[0].T <= 0 {
		t.Errorf("T = %v, want positive (DMRA above DCSP)", results[0].T)
	}
	if !results[0].Significant(0.05) {
		t.Errorf("DMRA vs DCSP not significant at 10 seeds: p = %v", results[0].P)
	}
	if _, err := Significance(tab, "DMRA", "nope"); err == nil {
		t.Error("unknown series accepted")
	}

	sum, err := SignificanceSummary(tab)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sum, "DMRA > DCSP") || !strings.Contains(sum, "1/1") {
		t.Errorf("summary = %q", sum)
	}
}
