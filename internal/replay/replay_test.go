package replay

import (
	"bytes"
	"strings"
	"testing"

	"dmra/internal/mec"
	"dmra/internal/obs"
)

func buildNet(t testing.TB, seed uint64) *mec.Network {
	t.Helper()
	net, err := parityShape(seed).Build(seed)
	if err != nil {
		t.Fatalf("seed %d: %v", seed, err)
	}
	return net
}

// TestApplyRejectsGarbage feeds structurally invalid events and expects
// errors, never panics, with the machine still usable afterwards.
func TestApplyRejectsGarbage(t *testing.T) {
	net := buildNet(t, 42)
	cases := []struct {
		name string
		ev   []obs.Event
		want string
	}{
		{"event before round", []obs.Event{{Kind: obs.KindPropose, Round: 1, UE: 0, BS: 0}}, "before the first round barrier"},
		{"round skip", []obs.Event{{Kind: obs.KindRound, Round: 3, UE: -1, BS: -1}}, "round barrier 3 after round 0"},
		{"round restart", []obs.Event{
			{Kind: obs.KindRound, Round: 1, UE: -1, BS: -1},
			{Kind: obs.KindRound, Round: 1, UE: -1, BS: -1},
		}, "interleaved multi-run"},
		{"ue out of range", []obs.Event{
			{Kind: obs.KindRound, Round: 1, UE: -1, BS: -1},
			{Kind: obs.KindPropose, Round: 1, UE: 1 << 30, BS: 0},
		}, "outside"},
		{"negative ue", []obs.Event{
			{Kind: obs.KindRound, Round: 1, UE: -1, BS: -1},
			{Kind: obs.KindAccept, Round: 1, UE: -5, BS: 0},
		}, "outside"},
		{"bs out of range", []obs.Event{
			{Kind: obs.KindRound, Round: 1, UE: -1, BS: -1},
			{Kind: obs.KindAccept, Round: 1, UE: 0, BS: 1 << 30},
		}, "outside"},
		{"stale round on event", []obs.Event{
			{Kind: obs.KindRound, Round: 1, UE: -1, BS: -1},
			{Kind: obs.KindBroadcast, Round: 7, UE: -1, BS: 0},
		}, "carries round 7 inside round 1"},
		{"unknown kind", []obs.Event{
			{Kind: obs.KindRound, Round: 1, UE: -1, BS: -1},
			{Kind: obs.EventKind(200), Round: 1, UE: 0, BS: 0},
		}, "unknown kind"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			m := New(net)
			var err error
			for _, e := range tc.ev {
				if err = m.Apply(e); err != nil {
					break
				}
			}
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("got %v, want error containing %q", err, tc.want)
			}
		})
	}
}

// TestAcceptSemantics pins the ledger arithmetic: debit on accept,
// idempotent re-send, conflict and overdraw detection.
func TestAcceptSemantics(t *testing.T) {
	net := buildNet(t, 42)
	// Find a UE with at least two candidates for the conflict case.
	var u mec.UEID = mec.UEID(len(net.UEs))
	for i := range net.UEs {
		if net.CoverCount(mec.UEID(i)) >= 2 {
			u = mec.UEID(i)
			break
		}
	}
	if int(u) == len(net.UEs) {
		t.Skip("no UE with two candidates in this shape")
	}
	lo, _ := net.CandRange(u)
	l0 := net.LinkAt(u, lo)
	b0, b1 := l0.BS, net.LinkAt(u, lo+1).BS

	m := New(net)
	if err := m.Apply(obs.Event{Kind: obs.KindRound, Round: 1, UE: -1, BS: -1}); err != nil {
		t.Fatal(err)
	}
	acc := obs.Event{Kind: obs.KindAccept, Round: 1, UE: int(u), BS: int(b0)}
	if err := m.Apply(acc); err != nil {
		t.Fatal(err)
	}
	ue := &net.UEs[u]
	wantCRU := net.BSs[b0].CRUCapacity[ue.Service] - ue.CRUDemand
	if got := m.Snapshot().CRU(int(b0), int(ue.Service)); got != wantCRU {
		t.Fatalf("RemCRU after accept = %d, want %d", got, wantCRU)
	}
	if got := m.Snapshot().RemRRB[b0]; got != net.BSs[b0].MaxRRBs-l0.RRBs {
		t.Fatalf("RemRRB after accept = %d, want %d", got, net.BSs[b0].MaxRRBs-l0.RRBs)
	}
	if st := m.UE(int(u)); st.Phase != PhaseMatched || st.ServingBS != b0 {
		t.Fatalf("status after accept = %+v", st)
	}
	// Idempotent re-send: no double debit.
	if err := m.Apply(acc); err != nil {
		t.Fatalf("re-sent accept: %v", err)
	}
	if got := m.Snapshot().CRU(int(b0), int(ue.Service)); got != wantCRU {
		t.Fatalf("RemCRU after re-send = %d, want %d (double debit)", got, wantCRU)
	}
	// Conflicting accept on a different BS is a corrupt trace.
	if err := m.Apply(obs.Event{Kind: obs.KindAccept, Round: 1, UE: int(u), BS: int(b1)}); err == nil {
		t.Fatal("conflicting accept on a second BS did not error")
	}
}

// TestReplayTruncatedTrace proves the warn-and-continue path end to end:
// a trace cut mid-line yields the decoded prefix plus an error, and the
// prefix replays cleanly.
func TestReplayTruncatedTrace(t *testing.T) {
	net := buildNet(t, 42)
	runs := runAllRuntimes(t, net, 42)
	run := runs[0]

	var buf bytes.Buffer
	sink := obs.NewSink(&buf, 16)
	for _, e := range run.events {
		sink.Emit(e)
	}
	full := buf.Bytes()
	cut := full[:len(full)-len(full)/3] // chop inside the tail

	events, err := obs.ReadEvents(bytes.NewReader(cut))
	if err == nil {
		t.Fatal("truncated trace read without error")
	}
	if len(events) == 0 {
		t.Fatal("truncated trace yielded no prefix events")
	}
	m := New(net)
	for _, e := range events {
		if aerr := m.Apply(e); aerr != nil {
			t.Fatalf("prefix replay failed: %v", aerr)
		}
	}
	if m.Events() != int64(len(events)) {
		t.Fatalf("applied %d events, want %d", m.Events(), len(events))
	}
}

// TestDiffIdentical pins the no-divergence result.
func TestDiffIdentical(t *testing.T) {
	net := buildNet(t, 42)
	run := runAllRuntimes(t, net, 42)[1] // protocol
	res, err := Diff(net, run.events, run.events)
	if err != nil {
		t.Fatal(err)
	}
	if res.DivergeIndex != -1 || len(res.StateDiff) != 0 {
		t.Fatalf("identical traces diverge: %+v", res)
	}
}

// TestDiffAcrossRuntimes diffs the protocol trace against the wire
// trace of the same scenario — parity says they are identical by Key.
func TestDiffAcrossRuntimes(t *testing.T) {
	net := buildNet(t, 42)
	runs := runAllRuntimes(t, net, 42)
	res, err := Diff(net, runs[1].events, runs[2].events)
	if err != nil {
		t.Fatal(err)
	}
	if res.DivergeIndex != -1 {
		t.Fatalf("protocol and wire traces diverge at %d: %s vs %s",
			res.DivergeIndex, FormatEvent(res.A), FormatEvent(res.B))
	}
}

// TestDiffDivergence plants a divergence and checks it is located and
// quantified.
func TestDiffDivergence(t *testing.T) {
	net := buildNet(t, 42)
	run := runAllRuntimes(t, net, 42)[1]
	a := run.events

	// Mutate one accept into a trim reject: the diff must spot the index
	// and report the missing match in the state delta.
	b := append([]obs.Event(nil), a...)
	mut := -1
	for i, e := range b {
		if e.Kind == obs.KindAccept {
			b[i].Kind = obs.KindRejectTrim
			mut = i
			break
		}
	}
	if mut < 0 {
		t.Skip("trace has no accepts")
	}
	res, err := Diff(net, a, b)
	if err != nil {
		t.Fatal(err)
	}
	if res.DivergeIndex != mut {
		t.Fatalf("DivergeIndex = %d, want %d", res.DivergeIndex, mut)
	}
	if res.A == nil || res.B == nil || res.A.Kind != obs.KindAccept || res.B.Kind != obs.KindRejectTrim {
		t.Fatalf("divergent events = %s vs %s", FormatEvent(res.A), FormatEvent(res.B))
	}
	if len(res.StateDiff) == 0 {
		t.Fatal("state delta empty for a dropped accept")
	}

	// Prefix truncation: one trace ends early.
	short := a[:len(a)-3]
	res, err = Diff(net, a, short)
	if err != nil {
		t.Fatal(err)
	}
	if res.DivergeIndex != len(short) || res.B != nil || res.A == nil {
		t.Fatalf("prefix diff = %+v", res)
	}
}

// FuzzReplayDecode is the no-panic gate for the whole decode+replay
// path: arbitrary bytes through ReadTrace, then every decoded event
// through Apply. Errors are expected; panics are bugs.
func FuzzReplayDecode(f *testing.F) {
	net, err := parityShape(42).Build(42)
	if err != nil {
		f.Fatal(err)
	}
	f.Add([]byte(""))
	f.Add([]byte("{"))
	f.Add([]byte("garbage\nmore garbage"))
	f.Add([]byte(`{"manifest":{"schemaVersion":1,"algorithm":"dmra","seed":1,"configHash":"x"}}` + "\n"))
	f.Add([]byte(`{"seq":1,"kind":"round","round":1,"ue":-1,"bs":-1}` + "\n" +
		`{"seq":2,"kind":"accept","round":1,"ue":0,"bs":0}`))
	f.Add([]byte(`{"seq":1,"kind":"accept","round":9,"ue":99999,"bs":-7}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		manifest, events, _ := obs.ReadTrace(bytes.NewReader(data))
		_ = manifest
		m := New(net)
		for _, e := range events {
			if err := m.Apply(e); err != nil {
				break
			}
		}
		// Diff must also hold up against arbitrary decoded streams.
		_, _ = Diff(net, events, events)
	})
}
