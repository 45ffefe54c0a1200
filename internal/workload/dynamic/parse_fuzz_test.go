package dynamic

import (
	"bufio"
	"bytes"
	"math"
	"os"
	"path/filepath"
	"testing"

	"dmra/internal/workload"
)

// addDecoderSeeds seeds f with every checked-in example spec file and a
// scenario written by workload.Save.
func addDecoderSeeds(f *testing.F) {
	paths, err := filepath.Glob(filepath.Join("..", "..", "..", "examples", "specs", "*"))
	if err != nil || len(paths) == 0 {
		f.Fatalf("no example specs found: %v", err)
	}
	saved := filepath.Join(f.TempDir(), "scenario.json")
	if err := workload.Save(workload.Default(), saved); err != nil {
		f.Fatal(err)
	}
	for _, p := range append(paths, saved) {
		data, err := os.ReadFile(p)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
}

// FuzzParseSpec feeds the same bytes to both JSON decoders a run reads
// from disk, the dynamic spec and the scenario config: neither may
// panic, and whatever one accepts must pass its own Validate.
func FuzzParseSpec(f *testing.F) {
	addDecoderSeeds(f)
	f.Fuzz(func(t *testing.T, data []byte) {
		if s, err := Parse(data); err == nil {
			if err := s.Validate(); err != nil {
				t.Fatalf("Parse accepted a spec Validate rejects: %v\n%q", err, data)
			}
		}
		if c, err := workload.Parse(data); err == nil {
			if err := c.Validate(); err != nil {
				t.Fatalf("workload.Parse accepted a config Validate rejects: %v\n%q", err, data)
			}
		}
	})
}

// FuzzParseTrace fuzzes the CSV arrival-trace decoder: it may not panic,
// and an accepted trace must hold what ParseTrace promises — at least one
// event, finite non-negative non-decreasing times, non-empty cohorts and
// non-negative demands.
func FuzzParseTrace(f *testing.F) {
	addDecoderSeeds(f)
	f.Fuzz(func(t *testing.T, data []byte) {
		events, err := ParseTrace(bufio.NewScanner(bytes.NewReader(data)))
		if err != nil {
			return
		}
		if len(events) == 0 {
			t.Fatalf("accepted a trace with no events: %q", data)
		}
		prev := 0.0
		for i, e := range events {
			if !(e.TimeS >= prev) || math.IsInf(e.TimeS, 1) {
				t.Fatalf("event %d: time %g after %g: %q", i, e.TimeS, prev, data)
			}
			if e.Cohort == "" || e.Demand < 0 {
				t.Fatalf("event %d: cohort %q demand %d: %q", i, e.Cohort, e.Demand, data)
			}
			prev = e.TimeS
		}
	})
}
