package main

import (
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// The traces under testdata were recorded by dmra-sim over 60 UEs:
//
//	sync.jsonl   dmra-sim -ues 60 -trace sync.jsonl
//	dec.jsonl    dmra-sim -ues 60 -decentralized -trace dec.jsonl
//	tcp.jsonl    dmra-sim -ues 60 -tcp -regions 2 -trace tcp.jsonl
//	seed2.jsonl  dmra-sim -ues 60 -seed 2 -trace seed2.jsonl
//
// The golden outputs beside them are this command's stdout over them.

// capture runs fn with stdout redirected and returns what it printed.
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

// TestGoldenOutput pins state and diff byte for byte: the end state, a
// mid-run round with one UE's status (from the synchronous solver's and
// the message-passing protocol's traces), a diff of the solver against
// the protocol, whose event streams part at the first broadcast while
// the state agrees, and a diff of the protocol against the TCP cluster,
// which replay cannot tell apart.
func TestGoldenOutput(t *testing.T) {
	cases := []struct {
		golden string
		args   []string
	}{
		{"state-end.txt", []string{"state", "-trace", "testdata/sync.jsonl"}},
		{"state-round2-ue5.txt", []string{"state", "-trace", "testdata/sync.jsonl", "-round", "2", "-ue", "5"}},
		{"state-dec-round1-ue12.txt", []string{"state", "-trace", "testdata/dec.jsonl", "-round", "1", "-ue", "12"}},
		{"diff-sync-dec.txt", []string{"diff", "-a", "testdata/sync.jsonl", "-b", "testdata/dec.jsonl"}},
		{"diff-dec-tcp.txt", []string{"diff", "-a", "testdata/dec.jsonl", "-b", "testdata/tcp.jsonl"}},
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

// TestRefusals covers the errors state and diff must return instead of
// printing: traces of different runs (here: another seed) are not
// comparable, a trace without a manifest cannot be rebuilt or compared,
// and a UE outside the network has no status.
func TestRefusals(t *testing.T) {
	dir := t.TempDir()
	noManifest := filepath.Join(dir, "bare.jsonl")
	data, err := os.ReadFile("testdata/sync.jsonl")
	if err != nil {
		t.Fatal(err)
	}
	_, events, _ := strings.Cut(string(data), "\n") // drop the manifest line
	if err := os.WriteFile(noManifest, []byte(events), 0o644); err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		args []string
		want string
	}{
		{[]string{"diff", "-a", "testdata/sync.jsonl", "-b", "testdata/seed2.jsonl"}, "manifest config hash mismatch"},
		{[]string{"diff", "-a", "testdata/sync.jsonl", "-b", noManifest}, "has no run manifest"},
		{[]string{"diff", "-a", "testdata/sync.jsonl"}, "-a and -b are both required"},
		{[]string{"state", "-trace", noManifest}, "has no run manifest"},
		{[]string{"state", "-trace", "testdata/sync.jsonl", "-ue", "60"}, "UE 60 out of range"},
		{[]string{"state"}, "-trace is required"},
		{[]string{"bogus"}, "unknown subcommand"},
	}
	for _, c := range cases {
		out, err := capture(t, func() error { return run(c.args) })
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%v: error %v, want one containing %q", c.args, err, c.want)
		}
		if strings.HasPrefix(c.args[0], "diff") && out != "" {
			t.Errorf("%v: refused diff printed %q", c.args, out)
		}
	}
}
