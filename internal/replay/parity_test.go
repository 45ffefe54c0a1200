package replay

import (
	"testing"

	"dmra/internal/alloc"
	"dmra/internal/engine"
	"dmra/internal/mec"
	"dmra/internal/obs"
	"dmra/internal/protocol"
	"dmra/internal/wire"
	"dmra/internal/workload"
)

// parityShape derives a randomized-but-buildable scenario from one seed,
// compact enough that the wire runtime's one-TCP-server-per-BS stays
// cheap (mirrors internal/wire's fuzz shape).
func parityShape(seed uint64) workload.Config {
	cfg := workload.Default()
	cfg.SPs = int(seed%4) + 1
	cfg.BSsPerSP = int(seed/4%4) + 1
	cfg.Services = int(seed/16%6) + 1
	cfg.ServicesPerBS = cfg.Services
	cfg.UEs = int(seed % 80)
	cfg.Radio.CoverageRadiusM = 200 + float64(seed%7)*40
	if seed%5 == 0 {
		cfg.Placement = workload.PlacementRandom
	}
	cfg.SPCRUPrice = 12
	return cfg
}

// liveRun is one runtime execution observed two ways: the trace the sink
// captured and the per-round live snapshots the RoundHook exported.
type liveRun struct {
	name     string
	events   []obs.Event
	captured []*engine.Snapshot
}

// runAllRuntimes executes the same scenario under all three runtimes —
// synchronous solver, discrete-event protocol, TCP cluster at a
// seed-derived region count — each with a trace sink and a round hook.
func runAllRuntimes(t *testing.T, net *mec.Network, seed uint64) []liveRun {
	t.Helper()
	var runs []liveRun

	hook := func(dst *[]*engine.Snapshot) engine.RoundHook {
		return func(s *engine.Snapshot) { *dst = append(*dst, s.Clone()) }
	}

	var allocCaptured []*engine.Snapshot
	allocSink := obs.NewSink(nil, 1<<17)
	d := alloc.NewDMRA(alloc.DefaultDMRAConfig()).
		WithObserver(obs.NewRecorder(nil, allocSink)).
		WithRoundHook(hook(&allocCaptured))
	if _, err := d.Allocate(net); err != nil {
		t.Fatalf("seed %d: alloc: %v", seed, err)
	}
	runs = append(runs, liveRun{"alloc", allocSink.Events(), allocCaptured})

	var protoCaptured []*engine.Snapshot
	protoSink := obs.NewSink(nil, 1<<17)
	protoCfg := protocol.DefaultConfig()
	protoCfg.DMRA = alloc.DefaultDMRAConfig()
	protoCfg.Obs = obs.NewRecorder(nil, protoSink)
	protoCfg.RoundHook = hook(&protoCaptured)
	if _, err := protocol.Run(net, protoCfg); err != nil {
		t.Fatalf("seed %d: protocol: %v", seed, err)
	}
	runs = append(runs, liveRun{"protocol", protoSink.Events(), protoCaptured})

	var wireCaptured []*engine.Snapshot
	wireSink := obs.NewSink(nil, 1<<17)
	if _, err := wire.RunRegionCluster(net, wire.RegionConfig{
		DMRA:      alloc.DefaultDMRAConfig(),
		Regions:   1 + int(seed/3%8),
		Obs:       obs.NewRecorder(nil, wireSink),
		RoundHook: hook(&wireCaptured),
	}); err != nil {
		t.Fatalf("seed %d: wire: %v", seed, err)
	}
	runs = append(runs, liveRun{"wire", wireSink.Events(), wireCaptured})
	return runs
}

// checkReplayParity replays one run's trace and asserts the machine's
// state equals the live snapshot at every round barrier and at the end
// of the trace.
func checkReplayParity(t *testing.T, net *mec.Network, seed uint64, run liveRun) {
	t.Helper()
	if len(run.captured) == 0 {
		t.Fatalf("seed %d: %s: round hook never fired", seed, run.name)
	}
	m := New(net)
	for _, e := range run.events {
		// A barrier opening round r+1 means round r is fully applied:
		// the machine must match the live snapshot the hook exported at
		// the end of round r.
		if e.Kind == obs.KindRound && e.Round >= 2 {
			idx := e.Round - 2
			if idx >= len(run.captured) {
				t.Fatalf("seed %d: %s: trace has round %d, hook captured only %d rounds",
					seed, run.name, e.Round, len(run.captured))
			}
			if d := m.Snapshot().Diff(run.captured[idx]); d != nil {
				t.Fatalf("seed %d: %s: replayed state diverges from live state at round %d:\n%v",
					seed, run.name, e.Round-1, d)
			}
		}
		if err := m.Apply(e); err != nil {
			t.Fatalf("seed %d: %s: replay failed: %v", seed, run.name, err)
		}
	}
	final := run.captured[len(run.captured)-1]
	if d := m.Snapshot().Diff(final); d != nil {
		t.Fatalf("seed %d: %s: replayed final state diverges from live state (round %d):\n%v",
			seed, run.name, final.Round, d)
	}
}

func replayParityForSeed(t *testing.T, seed uint64) {
	t.Helper()
	net, err := parityShape(seed).Build(seed)
	if err != nil {
		t.Skip("unbuildable shape")
	}
	for _, run := range runAllRuntimes(t, net, seed) {
		checkReplayParity(t, net, seed, run)
	}
}

// TestReplayParity is the deterministic replay-parity gate run by
// scripts/check.sh under -race: for a spread of scenario shapes, the
// trace-reconstructed state must equal the live engine state at every
// round of every runtime.
func TestReplayParity(t *testing.T) {
	for _, seed := range []uint64{0, 1, 7, 19, 42, 77, 137, 5000} {
		replayParityForSeed(t, seed)
	}
}

// FuzzReplayParity extends the gate over fuzzed scenario shapes and
// region counts.
func FuzzReplayParity(f *testing.F) {
	for _, seed := range []uint64{0, 1, 7, 42, 137, 5000} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, seed uint64) {
		replayParityForSeed(t, seed)
	})
}

// TestReplayRunUptoRound pins Run's round-bounded replay: the state at
// round N must equal the live snapshot captured after round N.
func TestReplayRunUptoRound(t *testing.T) {
	const seed = 42
	net, err := parityShape(seed).Build(seed)
	if err != nil {
		t.Fatal(err)
	}
	runs := runAllRuntimes(t, net, seed)
	run := runs[0] // alloc
	for round := 1; round <= len(run.captured); round++ {
		m, err := Run(net, run.events, round)
		if err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		if d := m.Snapshot().Diff(run.captured[round-1]); d != nil {
			t.Fatalf("round %d: bounded replay diverges:\n%v", round, d)
		}
	}
}
