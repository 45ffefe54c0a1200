package engine

import (
	"testing"

	"dmra/internal/mec"

	"dmra/internal/workload"
)

// TestArenaSelectWidths pins the arena at every select width against its
// serial run, unobserved: identical assignment and statistics at workers
// 2, 3, 5 and 16. It also checks that at these scenario sizes — down to
// the 80-UE shapes the parity fuzzers draw — the select phase really ran
// on more than one worker (no size threshold routes small rounds to the
// serial path), and that every round left the argmin table and the
// touched-BS set empty for the next.
func TestArenaSelectWidths(t *testing.T) {
	small := workload.Default()
	small.UEs = 80
	for _, tc := range []struct {
		name string
		cfg  workload.Config
	}{
		{"default-80", small},
		{"densecity-1k", workload.DenseCity()},
	} {
		net, err := tc.cfg.Build(3)
		if err != nil {
			t.Fatalf("%s: build: %v", tc.name, err)
		}
		for _, cfg := range []Config{DefaultConfig(), {Rho: 31, FuTieBreak: true}, {}} {
			var serial Arena
			want, err := serial.Run(net, cfg, 1, nil)
			if err != nil {
				t.Fatalf("%s: serial run: %v", tc.name, err)
			}
			if want.Accepts == 0 {
				t.Fatalf("%s: serial run admitted nothing; the test is vacuous", tc.name)
			}
			for _, workers := range []int{2, 3, 5, 16} {
				var a Arena
				got, err := a.Run(net, cfg, workers, nil)
				if err != nil {
					t.Fatalf("%s workers %d: run: %v", tc.name, workers, err)
				}
				if got != want {
					t.Fatalf("%s workers %d: stats %+v, serial %+v", tc.name, workers, got, want)
				}
				for u, b := range a.Serving() {
					if b != serial.Serving()[u] {
						t.Fatalf("%s workers %d: UE %d served by %d, serial %d", tc.name, workers, u, b, serial.Serving()[u])
					}
				}
				if cap(a.sw) < 2 {
					t.Fatalf("%s workers %d: select never ran on more than one worker", tc.name, workers)
				}
				for i, w := range a.win {
					if w.i != -1 {
						t.Fatalf("%s workers %d: argmin slot %d holds proposal %d after the run", tc.name, workers, i, w.i)
					}
				}
				if n := a.hit.Count(); n != 0 {
					t.Fatalf("%s workers %d: %d touched BSs left after the run", tc.name, workers, n)
				}
			}
		}
	}
}

// arenaEvent is one hook call of an observed arena run; swept is the
// round's Swept count on RoundDone events.
type arenaEvent struct {
	kind  byte
	round int
	u, b  int32
	v     Verdict
	swept uint64
}

// observedArenaRun runs the arena with every hook attached, recording
// the ordered event stream and each round snapshot.
func observedArenaRun(t *testing.T, a *Arena, net *mec.Network, cfg Config, workers int) (SoAStats, []arenaEvent, []*Snapshot) {
	t.Helper()
	var events []arenaEvent
	var snaps []*Snapshot
	stats, err := a.Run(net, cfg, workers, &SoAHooks{
		Round:    func(r int) { events = append(events, arenaEvent{kind: 'R', round: r}) },
		Propose:  func(u, b int32) { events = append(events, arenaEvent{kind: 'P', u: u, b: b}) },
		Cloud:    func(u int32) { events = append(events, arenaEvent{kind: 'C', u: u}) },
		Verdict:  func(b int32, v Verdict) { events = append(events, arenaEvent{kind: 'V', b: b, v: v}) },
		Snapshot: func(s *Snapshot) { snaps = append(snaps, s.Clone()) },
		RoundDone: func(r int, a *Arena) {
			events = append(events, arenaEvent{kind: 'D', round: r, swept: a.Swept()})
		},
	})
	if err != nil {
		t.Fatalf("workers %d: observed run: %v", workers, err)
	}
	return stats, events, snaps
}

// TestArenaObservedProposeWidths pins the observed arena — propose with
// its per-worker swept counts, merged in chunk order — at propose widths
// 2, 3, 5 and 16 against its serial run: identical statistics, per-round
// swept counts, ordered event stream and round snapshots, on the 80-UE
// shape the parity fuzzers draw and on densecity-1k. It also checks that
// propose really ran on more than one worker.
func TestArenaObservedProposeWidths(t *testing.T) {
	small := workload.Default()
	small.UEs = 80
	for _, tc := range []struct {
		name string
		cfg  workload.Config
	}{
		{"default-80", small},
		{"densecity-1k", workload.DenseCity()},
	} {
		net, err := tc.cfg.Build(5)
		if err != nil {
			t.Fatalf("%s: build: %v", tc.name, err)
		}
		cfg := DefaultConfig()
		var serial Arena
		want, wantEvents, wantSnaps := observedArenaRun(t, &serial, net, cfg, 1)
		if want.Accepts == 0 {
			t.Fatalf("%s: serial run admitted nothing; the test is vacuous", tc.name)
		}
		var wantSwept uint64
		for _, e := range wantEvents {
			wantSwept += e.swept
		}
		if wantSwept < uint64(want.Proposals) {
			t.Fatalf("%s: %d candidates swept for %d proposals", tc.name, wantSwept, want.Proposals)
		}
		for _, workers := range []int{2, 3, 5, 16} {
			var a Arena
			got, events, snaps := observedArenaRun(t, &a, net, cfg, workers)
			if got != want {
				t.Fatalf("%s workers %d: stats %+v, serial %+v", tc.name, workers, got, want)
			}
			if len(events) != len(wantEvents) {
				t.Fatalf("%s workers %d: %d events, serial %d", tc.name, workers, len(events), len(wantEvents))
			}
			for i := range events {
				if events[i] != wantEvents[i] {
					t.Fatalf("%s workers %d: event %d = %+v, serial %+v", tc.name, workers, i, events[i], wantEvents[i])
				}
			}
			if len(snaps) != len(wantSnaps) {
				t.Fatalf("%s workers %d: %d snapshots, serial %d", tc.name, workers, len(snaps), len(wantSnaps))
			}
			for i := range snaps {
				if !snaps[i].Equal(wantSnaps[i]) {
					t.Fatalf("%s workers %d: snapshot %d differs: %v", tc.name, workers, i, snaps[i].Diff(wantSnaps[i]))
				}
			}
			if cap(a.wswept) < 2 {
				t.Fatalf("%s workers %d: propose never ran on more than one worker", tc.name, workers)
			}
		}
	}
}
