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

func TestRunShortSession(t *testing.T) {
	out, err := capture(t, func() error {
		return run([]string{"-rate", "2", "-hold", "20", "-duration", "60"})
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"dynamic session", "arrivals:", "edge ratio", "RRB occupancy", "profit-time"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
}

func TestRunExplicitPool(t *testing.T) {
	out, err := capture(t, func() error {
		return run([]string{"-rate", "1", "-hold", "10", "-duration", "30", "-pool", "200"})
	})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "arrivals:") {
		t.Errorf("output wrong:\n%s", out)
	}
}

func TestRunAlgorithms(t *testing.T) {
	for _, algo := range []string{"nonco", "greedy"} {
		if _, err := capture(t, func() error {
			return run([]string{"-rate", "1", "-hold", "10", "-duration", "20", "-algo", algo})
		}); err != nil {
			t.Errorf("%s: %v", algo, err)
		}
	}
}

func TestRunErrors(t *testing.T) {
	cases := [][]string{
		{"-rate", "0"},
		{"-algo", "oracle", "-duration", "10"},
		{"-badflag"},
		{"-replicate", "0", "-duration", "10"},
		{"-replicate", "-3", "-duration", "10"},
	}
	for _, args := range cases {
		if _, err := capture(t, func() error { return run(args) }); err == nil {
			t.Errorf("args %v accepted", args)
		}
	}
}

func TestRunSeriesFlag(t *testing.T) {
	out, err := capture(t, func() error {
		return run([]string{"-rate", "2", "-hold", "20", "-duration", "60", "-series"})
	})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "profit rate over time") || !strings.Contains(out, "occupancy over time") {
		t.Errorf("series charts missing:\n%s", out)
	}
}

// TestAutoPoolClamp is the regression test for the unbounded
// int(4*rate*hold) auto-sizing: absurd offered loads must fail with a
// pointer at -pool instead of attempting a huge (or overflowed) build.
func TestAutoPoolClamp(t *testing.T) {
	_, err := capture(t, func() error {
		return run([]string{"-rate", "1e9", "-hold", "1e9", "-duration", "10"})
	})
	if err == nil {
		t.Fatal("absurd offered load accepted")
	}
	if !strings.Contains(err.Error(), "-pool") {
		t.Errorf("error %q does not point at -pool", err)
	}

	if _, err := capture(t, func() error {
		return run([]string{"-rate", "2", "-hold", "20", "-duration", "10", "-pool", "-5"})
	}); err == nil {
		t.Fatal("negative -pool accepted")
	}
}

func writeSpec(t *testing.T, content string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "spec.json")
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestRunWithSpec(t *testing.T) {
	path := writeSpec(t, `{
  "version": 1,
  "cohorts": [
    {"name": "steady", "poolShare": 0.7,
     "arrival": {"process": "poisson", "rateHz": 2},
     "holdS": {"dist": "exponential", "mean": 20}},
    {"name": "bursty", "poolShare": 0.3,
     "arrival": {"process": "gamma", "rateHz": 1, "cv": 2},
     "holdS": {"dist": "uniform", "min": 5, "max": 25}}
  ]
}`)
	out, err := capture(t, func() error {
		return run([]string{"-spec", path, "-duration", "60"})
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"2 cohorts", "cohort", "steady", "bursty", "arrivals:"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
}

func TestRunSpecErrors(t *testing.T) {
	// Unknown key fails the load.
	bad := writeSpec(t, `{"version": 1, "cohortz": []}`)
	if _, err := capture(t, func() error {
		return run([]string{"-spec", bad, "-duration", "30"})
	}); err == nil {
		t.Error("spec with unknown key accepted")
	}
	// Missing file.
	if _, err := capture(t, func() error {
		return run([]string{"-spec", filepath.Join(t.TempDir(), "nope.json"), "-duration", "30"})
	}); err == nil {
		t.Error("missing spec file accepted")
	}
}

// TestTraceSpecNeedsPool: trace-replay specs have no intrinsic offered
// load, so auto pool sizing must refuse and an explicit -pool must work.
func TestTraceSpecNeedsPool(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "trace.csv"), []byte("1,all\n2,all\n3,all\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, "spec.json")
	if err := os.WriteFile(path, []byte(`{
  "version": 1,
  "cohorts": [{"name": "all", "poolShare": 1,
    "holdS": {"dist": "constant", "value": 10}}],
  "trace": "trace.csv"
}`), 0o644); err != nil {
		t.Fatal(err)
	}

	if _, err := capture(t, func() error {
		return run([]string{"-spec", path, "-duration", "30"})
	}); err == nil || !strings.Contains(err.Error(), "-pool") {
		t.Errorf("trace spec without -pool: err = %v, want pointer at -pool", err)
	}

	out, err := capture(t, func() error {
		return run([]string{"-spec", path, "-duration", "30", "-pool", "120"})
	})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "all") || !strings.Contains(out, "arrivals:        3") {
		t.Errorf("trace replay output wrong:\n%s", out)
	}
}

func TestRunSpecReplicated(t *testing.T) {
	path := writeSpec(t, `{
  "version": 1,
  "cohorts": [{"name": "all", "poolShare": 1,
    "arrival": {"process": "poisson", "rateHz": 2},
    "holdS": {"dist": "exponential", "mean": 15}}]
}`)
	out, err := capture(t, func() error {
		return run([]string{"-spec", path, "-duration", "40", "-replicate", "3", "-procs", "2"})
	})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "3 replications") || !strings.Contains(out, "1-cohort workload spec") {
		t.Errorf("replicated spec output wrong:\n%s", out)
	}
}
