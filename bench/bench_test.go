package main

import (
	"io"
	"math"
	"testing"

	"dmra/internal/mec"
)

// smoke runs a workload at the base dense city with two timed ops.
func smoke(t *testing.T, w *workload, trace bool, corrupt func(mec.Assignment)) *record {
	t.Helper()
	o := options{seed: 1, small: true, ops: 2, trace: trace, traceDir: t.TempDir(), corrupt: corrupt}
	rec, err := run(w, o, io.Discard)
	if err != nil {
		t.Fatalf("%s (trace %v): %v", w.name, trace, err)
	}
	return rec
}

// TestSmoke runs every workload untraced and traced, and checks that each
// run is correct and reports exactly the metrics BENCHMARK.json defines,
// with their units.
func TestSmoke(t *testing.T) {
	var spec benchSpec
	if err := readJSON("../BENCHMARK.json", &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the program runs %d", len(spec.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if spec.Workloads[i].Name != w.name {
			t.Errorf("workload %d: BENCHMARK.json says %q, the program runs %q", i, spec.Workloads[i].Name, w.name)
		}
	}
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			for _, trace := range []bool{false, true} {
				rec := smoke(t, w, trace, nil)
				if !rec.Correct || rec.Failed != 0 || rec.Attempted < 3 {
					t.Errorf("trace %v: correct %v, %d of %d ops failed", trace, rec.Correct, rec.Failed, rec.Attempted)
				}
				want := spec.EndToEnd
				if trace {
					want = spec.PerLayer
				}
				for _, m := range want {
					got, ok := rec.Metrics[m.Name]
					switch {
					case !ok:
						t.Errorf("trace %v: metric %s missing", trace, m.Name)
					case got.Unit != m.Unit:
						t.Errorf("trace %v: metric %s in %s, BENCHMARK.json says %s", trace, m.Name, got.Unit, m.Unit)
					}
				}
				if len(rec.Metrics) != len(want) {
					t.Errorf("trace %v: %d metrics reported, BENCHMARK.json defines %d", trace, len(rec.Metrics), len(want))
				}
			}
		})
	}
}

// TestCompareJudgesSeedPairs checks that compare pairs runs by seed, that
// a profit lower on a single seed reads worse, and that a slowdown hidden
// by the spread across seeds still shows within pairs.
func TestCompareJudgesSeedPairs(t *testing.T) {
	spec := map[string]metricSpec{
		"profit":    {Name: "profit", Better: "higher", Bound: 0.09},
		"op_p50_ms": {Name: "op_p50_ms", Better: "lower", Bound: 0.25},
	}
	// A runs seeds 1-10 in order, B in reverse. Seed s takes 100+10s ms in
	// A, an interquartile spread of 29% across seeds, above the bound.
	var setA, setB []record
	for s := 1; s <= 10; s++ {
		setA = append(setA, runRecord(uint64(s), 1000*float64(s), 100+10*float64(s)))
		setB = append(setB, runRecord(uint64(11-s), 1000*float64(11-s), 1.5*(100+10*float64(11-s))))
	}
	setB[4].Metrics.set("profit", setB[4].Metrics["profit"].Value-1, "price_units")
	for _, c := range []struct {
		metric     string
		sets       [2][]record
		wantChange float64
		want       string
	}{
		{"profit", [2][]record{setA, setA}, 0, "ok"},
		{"profit", [2][]record{setA, setB}, 0, "worse"},
		{"profit", [2][]record{setB, setA}, 0, "better"},
		{"op_p50_ms", [2][]record{setA, setA}, 0, "ok"},
		{"op_p50_ms", [2][]record{setA, setB}, 0.5, "worse"},
		{"op_p50_ms", [2][]record{setB, setA}, -1.0 / 3, "better"},
	} {
		a, b := pairs(c.sets[0], c.sets[1], "batch-city100k", c.metric)
		if len(a) != 10 {
			t.Fatalf("%s: %d pairs, want 10", c.metric, len(a))
		}
		change, _, v := judge(spec[c.metric], a, b)
		if v != c.want || math.Abs(change-c.wantChange) > 1e-9 {
			t.Errorf("%s: change %.4f verdict %s, want %.4f %s", c.metric, change, v, c.wantChange, c.want)
		}
	}
}

func runRecord(seed uint64, profit, p50 float64) record {
	r := record{Workload: "batch-city100k", Provenance: provenance{Seed: seed}, result: result{Metrics: metrics{}}}
	r.Metrics.set("profit", profit, "price_units")
	r.Metrics.set("op_p50_ms", p50, "ms")
	return r
}

// TestCorruptAssignmentFails damages every checked assignment and expects
// each workload's checks to count failed ops.
func TestCorruptAssignmentFails(t *testing.T) {
	corrupt := func(a mec.Assignment) { a.ServingBS[0] = mec.BSID(1 << 30) }
	for _, w := range workloads {
		rec := smoke(t, w, false, corrupt)
		if rec.Correct || rec.Failed == 0 {
			t.Errorf("%s: correct %v, %d of %d ops failed with corrupt assignments", w.name, rec.Correct, rec.Failed, rec.Attempted)
		}
	}
}
