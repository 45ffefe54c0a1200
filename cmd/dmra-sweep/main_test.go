package main

import (
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func capture(t *testing.T, fn func() error) (string, error) {
	t.Helper()
	old := os.Stdout
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	os.Stdout = w
	runErr := fn()
	w.Close()
	os.Stdout = old
	data, err := io.ReadAll(r)
	r.Close()
	if err != nil {
		t.Fatal(err)
	}
	return string(data), runErr
}

func TestSweepUEs(t *testing.T) {
	out, err := capture(t, func() error {
		return run([]string{"-param", "ues", "-values", "100,200", "-algos", "dmra,nonco", "-seeds", "2"})
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"ues", "dmra", "nonco", "100", "200"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
}

func TestSweepEveryParameter(t *testing.T) {
	params := map[string]string{
		"rho":              "0,500",
		"iota":             "1.5,2",
		"coverage":         "300,450",
		"hotspot-fraction": "0,0.75",
		"services":         "3,6",
	}
	for param, values := range params {
		_, err := capture(t, func() error {
			return run([]string{"-param", param, "-values", values, "-algos", "dmra", "-seeds", "1", "-ues", "150"})
		})
		if err != nil {
			t.Errorf("param %s: %v", param, err)
		}
	}
}

func TestSweepMetrics(t *testing.T) {
	for _, metric := range []string{"profit", "forwarded", "served", "latency"} {
		out, err := capture(t, func() error {
			return run([]string{"-values", "150", "-algos", "dmra", "-metric", metric, "-seeds", "1", "-ues", "150"})
		})
		if err != nil {
			t.Fatalf("%s: %v", metric, err)
		}
		if !strings.Contains(out, metric) {
			t.Errorf("%s: metric missing from title:\n%s", metric, out)
		}
	}
}

func TestSweepCSVMode(t *testing.T) {
	out, err := capture(t, func() error {
		return run([]string{"-values", "120", "-algos", "dmra", "-seeds", "1", "-csv"})
	})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(out, "ues,dmra_mean,dmra_ci95") {
		t.Errorf("csv header wrong:\n%s", out)
	}
}

func TestSweepErrors(t *testing.T) {
	// Each rejected run must name the value it rejects.
	cases := []struct {
		args []string
		want string
	}{
		{[]string{"-param", "frequency", "-values", "1"}, `"frequency"`},
		{[]string{"-values", "abc"}, `"abc"`},
		{[]string{"-values", "100", "-algos", "oracle"}, `"oracle"`},
		{[]string{"-values", "100", "-metric", "jitter"}, `"jitter"`},
		{[]string{"-zzz"}, "-zzz"},
		{[]string{"-values", "100", "-seeds", "0"}, "-seeds 0"},
		{[]string{"-values", "100", "-seeds", "-1"}, "-seeds -1"},
	}
	for _, c := range cases {
		_, err := capture(t, func() error { return run(c.args) })
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("args %v: err = %v, want one containing %s", c.args, err, c.want)
		}
	}
}

func TestArrivalRateSweep(t *testing.T) {
	out, err := capture(t, func() error {
		return run([]string{"-param", "arrival-rate", "-values", "1,2", "-algos", "dmra",
			"-hold", "20", "-duration", "60", "-seeds", "2"})
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"profit vs arrival-rate", "dmra"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
}

func TestArrivalRateSweepMetricsAndCSV(t *testing.T) {
	for _, metric := range []string{"served", "edge-ratio", "concurrent", "occupancy"} {
		out, err := capture(t, func() error {
			return run([]string{"-param", "arrival-rate", "-values", "2", "-algos", "greedy",
				"-hold", "15", "-duration", "40", "-seeds", "1", "-metric", metric})
		})
		if err != nil {
			t.Fatalf("%s: %v", metric, err)
		}
		if !strings.Contains(out, metric) {
			t.Errorf("%s: metric missing from title:\n%s", metric, out)
		}
	}

	out, err := capture(t, func() error {
		return run([]string{"-param", "arrival-rate", "-values", "2", "-algos", "greedy",
			"-hold", "15", "-duration", "40", "-seeds", "1", "-csv"})
	})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(out, "arrival-rate,greedy_mean,greedy_ci95") {
		t.Errorf("csv header wrong:\n%s", out)
	}
}

func TestArrivalRateSweepWithSpec(t *testing.T) {
	path := filepath.Join(t.TempDir(), "spec.json")
	if err := os.WriteFile(path, []byte(`{
  "version": 1,
  "cohorts": [
    {"name": "steady", "poolShare": 0.5,
     "arrival": {"process": "poisson", "rateHz": 3},
     "holdS": {"dist": "exponential", "mean": 20}},
    {"name": "bursty", "poolShare": 0.5,
     "arrival": {"process": "gamma", "rateHz": 1, "cv": 2},
     "holdS": {"dist": "constant", "value": 10}}
  ]
}`), 0o644); err != nil {
		t.Fatal(err)
	}
	out, err := capture(t, func() error {
		return run([]string{"-param", "arrival-rate", "-values", "2,4", "-algos", "greedy",
			"-spec", path, "-duration", "60", "-seeds", "1"})
	})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "arrival-rate") {
		t.Errorf("output wrong:\n%s", out)
	}
}

func TestArrivalRateSweepErrors(t *testing.T) {
	cases := [][]string{
		// Batch-only metric in online mode.
		{"-param", "arrival-rate", "-values", "1", "-algos", "greedy", "-metric", "latency", "-duration", "30"},
		// Offered load past the auto-pool bound.
		{"-param", "arrival-rate", "-values", "1e9", "-algos", "greedy", "-hold", "1e9"},
		// Missing spec file.
		{"-param", "arrival-rate", "-values", "1", "-algos", "greedy", "-spec", "no-such-spec.json"},
		// Seed count below 1.
		{"-param", "arrival-rate", "-values", "1", "-algos", "greedy", "-seeds", "-1"},
	}
	for _, args := range cases {
		if _, err := capture(t, func() error { return run(args) }); err == nil {
			t.Errorf("args %v accepted", args)
		}
	}
}
