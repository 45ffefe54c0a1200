package main

import (
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"dmra"
	"dmra/internal/obs"
)

// capture runs fn with stdout redirected to a pipe and returns the output.
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

func TestRunDefaultScenario(t *testing.T) {
	out, err := capture(t, func() error {
		return run([]string{"-ues", "200", "-seed", "2"})
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"5 SPs, 25 BSs, 200 UEs", "total profit:", "SP-0", "served at edge:"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
}

func TestRunAllAlgorithms(t *testing.T) {
	for _, algo := range []string{"dmra", "dcsp", "nonco", "random", "greedy"} {
		out, err := capture(t, func() error {
			return run([]string{"-ues", "100", "-algo", algo})
		})
		if err != nil {
			t.Fatalf("%s: %v", algo, err)
		}
		if !strings.Contains(out, "total profit:") {
			t.Errorf("%s: no profit line", algo)
		}
	}
}

func TestRunUnknownAlgorithm(t *testing.T) {
	if _, err := capture(t, func() error {
		return run([]string{"-ues", "10", "-algo", "oracle"})
	}); err == nil {
		t.Fatal("unknown algorithm accepted")
	}
}

func TestRunDecentralizedFlag(t *testing.T) {
	out, err := capture(t, func() error {
		return run([]string{"-ues", "80", "-decentralized"})
	})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "protocol:") || !strings.Contains(out, "rounds") {
		t.Errorf("decentralized output missing protocol stats:\n%s", out)
	}
}

func TestRunScenarioFile(t *testing.T) {
	s := dmra.DefaultScenario()
	s.UEs = 50
	path := filepath.Join(t.TempDir(), "s.json")
	if err := dmra.SaveScenario(s, path); err != nil {
		t.Fatal(err)
	}
	out, err := capture(t, func() error {
		return run([]string{"-scenario", path})
	})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "50 UEs") {
		t.Errorf("scenario file not honoured:\n%s", out)
	}
}

func TestRunMissingScenarioFile(t *testing.T) {
	if _, err := capture(t, func() error {
		return run([]string{"-scenario", "/nonexistent/s.json"})
	}); err == nil {
		t.Fatal("missing scenario file accepted")
	}
}

func TestRunBadFlag(t *testing.T) {
	if err := run([]string{"-definitely-not-a-flag"}); err == nil {
		t.Fatal("bad flag accepted")
	}
}

func TestRunTCPFlag(t *testing.T) {
	out, err := capture(t, func() error {
		return run([]string{"-ues", "60", "-tcp"})
	})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "tcp cluster:") || !strings.Contains(out, "frames") {
		t.Errorf("tcp output missing cluster stats:\n%s", out)
	}
}

// TestRunTCPManifestCoordinators reads the trace manifest back: on the
// wire runtime it stamps the effective coordinator count (the -regions
// value clamped to [1, |BS|]), and 0 off it.
func TestRunTCPManifestCoordinators(t *testing.T) {
	for _, tc := range []struct {
		args []string
		want int
	}{
		{[]string{"-tcp", "-regions", "3"}, 3},
		{[]string{"-tcp"}, 1},
		{[]string{"-tcp", "-regions", "1000"}, 25},
		{[]string{"-decentralized"}, 0},
	} {
		path := filepath.Join(t.TempDir(), "trace.jsonl")
		args := append([]string{"-ues", "60", "-seed", "3", "-trace", path}, tc.args...)
		if _, err := capture(t, func() error { return run(args) }); err != nil {
			t.Fatalf("%v: %v", tc.args, err)
		}
		f, err := os.Open(path)
		if err != nil {
			t.Fatal(err)
		}
		m, _, err := obs.ReadTrace(f)
		f.Close()
		if err != nil {
			t.Fatalf("%v: %v", tc.args, err)
		}
		if m == nil {
			t.Fatalf("%v: trace has no manifest", tc.args)
		}
		if m.Shards != tc.want {
			t.Errorf("%v: manifest coordinators = %d, want %d", tc.args, m.Shards, tc.want)
		}
	}
}

// TestRunCheckpointPlainTCP checks -checkpoint runs with the single
// coordinator: the file is written, a second invocation resumes from it
// to the same result, and the flag is refused off the -tcp runtime.
func TestRunCheckpointPlainTCP(t *testing.T) {
	path := filepath.Join(t.TempDir(), "run.ckpt")
	args := []string{"-ues", "60", "-tcp", "-checkpoint", path}
	first, err := capture(t, func() error { return run(args) })
	if err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(path); err != nil {
		t.Fatalf("no checkpoint written: %v", err)
	}
	second, err := capture(t, func() error { return run(args) })
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(second, "resuming from checkpoint") {
		t.Errorf("second run did not resume:\n%s", second)
	}
	profit := func(out string) string {
		for _, line := range strings.Split(out, "\n") {
			if strings.HasPrefix(line, "total profit:") {
				return line
			}
		}
		t.Fatalf("no profit line:\n%s", out)
		return ""
	}
	if profit(first) != profit(second) {
		t.Errorf("resumed run %q, fresh run %q", profit(second), profit(first))
	}
	if _, err := capture(t, func() error {
		return run([]string{"-ues", "10", "-checkpoint", path})
	}); err == nil {
		t.Error("-checkpoint accepted without -tcp")
	}
}
