package main

import (
	"os"
	"path/filepath"
	"testing"
)

// TestGoldenReplicated pins the replicated-session summary byte for byte.
// The golden files were captured from the hand-written replication loop
// that predates exp.Replicate; the shared grid must reproduce them
// exactly.
func TestGoldenReplicated(t *testing.T) {
	cases := []struct {
		golden string
		args   []string
	}{
		{"replicate3.txt", []string{"-rate", "2", "-hold", "20", "-duration", "60", "-replicate", "3"}},
		{"replicate3-spec.txt", []string{"-spec", filepath.Join("..", "..", "examples", "specs", "bursty.json"),
			"-duration", "60", "-replicate", "3", "-procs", "2"}},
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
