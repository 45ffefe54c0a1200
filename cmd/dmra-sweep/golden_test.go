package main

import (
	"os"
	"path/filepath"
	"testing"
)

// TestGoldenOutput pins the sweep tables byte for byte. The golden files
// were captured from the hand-written sweep grid that predates
// exp.Replicate; the shared grid must reproduce them exactly.
func TestGoldenOutput(t *testing.T) {
	cases := []struct {
		golden string
		args   []string
	}{
		{"services-latency.csv", []string{"-param", "services", "-values", "3,6", "-metric", "latency", "-csv", "-seeds", "2", "-ues", "300"}},
		{"coverage.txt", []string{"-param", "coverage", "-values", "300,400", "-seeds", "2", "-ues", "300", "-procs", "2"}},
		{"arrival-rate.txt", []string{"-param", "arrival-rate", "-values", "1,2", "-hold", "20", "-duration", "60", "-seeds", "2", "-algos", "dmra,greedy"}},
	}
	for _, c := range cases {
		t.Run(c.golden, func(t *testing.T) {
			want, err := os.ReadFile(filepath.Join("testdata", c.golden))
			if err != nil {
				t.Fatal(err)
			}
			got, err := capture(t, func() error { return run(c.args) })
			if err != nil {
				t.Fatal(err)
			}
			if got != string(want) {
				t.Errorf("%v:\ngot:\n%s\nwant:\n%s", c.args, got, want)
			}
		})
	}
}
