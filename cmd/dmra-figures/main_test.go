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

func TestRunSingleFigure(t *testing.T) {
	out, err := capture(t, func() error {
		return run([]string{"-fig", "6", "-seeds", "2"})
	})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "Fig. 6") || !strings.Contains(out, "DMRA") {
		t.Errorf("figure output wrong:\n%s", out)
	}
	if strings.Contains(out, "Fig. 2") {
		t.Error("-fig 6 also ran figure 2")
	}
}

func TestRunWritesFiles(t *testing.T) {
	dir := t.TempDir()
	_, err := capture(t, func() error {
		return run([]string{"-fig", "7", "-seeds", "2", "-out", dir})
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"fig7.txt", "fig7.csv"} {
		data, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if len(data) == 0 {
			t.Errorf("%s is empty", name)
		}
	}
	csv, _ := os.ReadFile(filepath.Join(dir, "fig7.csv"))
	if !strings.HasPrefix(string(csv), "rho,DMRA_mean,DMRA_ci95") {
		t.Errorf("csv header wrong: %q", string(csv)[:40])
	}
}

func TestRunPlotFlag(t *testing.T) {
	out, err := capture(t, func() error {
		return run([]string{"-fig", "6", "-seeds", "2", "-plot"})
	})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "* DMRA") || !strings.Contains(out, "(rho)") {
		t.Errorf("plot missing from output:\n%s", out)
	}
}

func TestRunUnknownFigure(t *testing.T) {
	if _, err := capture(t, func() error {
		return run([]string{"-fig", "9"})
	}); err == nil {
		t.Fatal("figure 9 accepted")
	}
}

func TestRunBadFlag(t *testing.T) {
	if err := run([]string{"-nope"}); err == nil {
		t.Fatal("bad flag accepted")
	}
	// A seed count below 1 must fail before any figure runs, not fall
	// back to the 20-seed default.
	for _, seeds := range []string{"0", "-1"} {
		err := run([]string{"-fig", "2", "-seeds", seeds})
		if err == nil || !strings.Contains(err.Error(), "-seeds "+seeds) {
			t.Errorf("-seeds %s: err = %v, want one naming the value", seeds, err)
		}
	}
}

func TestRunAblationsFlag(t *testing.T) {
	dir := t.TempDir()
	out, err := capture(t, func() error {
		return run([]string{"-ablations", "-seeds", "2", "-out", dir})
	})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "DMRA (full)") || !strings.Contains(out, "own-BS share") {
		t.Errorf("ablation output wrong:\n%s", out)
	}
	if _, err := os.Stat(filepath.Join(dir, "ablations.csv")); err != nil {
		t.Errorf("ablations.csv not written: %v", err)
	}
}

func TestRunProtocolFlag(t *testing.T) {
	out, err := capture(t, func() error {
		return run([]string{"-protocol", "-seeds", "1"})
	})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "rounds") || !strings.Contains(out, "msgs/UE") {
		t.Errorf("protocol cost output wrong:\n%s", out)
	}
}
