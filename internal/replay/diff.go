package replay

import (
	"fmt"

	"dmra/internal/mec"
	"dmra/internal/obs"
)

// DiffResult locates the first divergence between two traces of the
// same scenario and quantifies its consequence as a state delta.
type DiffResult struct {
	// DivergeIndex is the index of the first event whose identity
	// (round, UE, BS, kind) differs between the traces, or the length of
	// the shorter trace when one is a strict prefix of the other; -1
	// when the traces are identical.
	DivergeIndex int
	// A and B are the events at DivergeIndex (nil past a trace's end).
	A, B *obs.Event
	// Round is the round the divergence occurred in (0 if identical).
	Round int
	// StateDiff is the human-readable state delta between the two
	// reconstructions at the end of the divergent round — what the
	// divergence cost, not just where it happened. Empty when identical.
	StateDiff []string
}

// Diff replays two event streams over the same network and reports the
// first divergent event plus the state delta at the end of the round it
// occurred in. Event identity is compared by Key() — (round, UE, BS,
// kind) — so traces from different runtimes or region counts diff
// cleanly despite differing timestamps and region attributions.
func Diff(net *mec.Network, a, b []obs.Event) (DiffResult, error) {
	idx := -1
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	for i := 0; i < n; i++ {
		if a[i].Key() != b[i].Key() {
			idx = i
			break
		}
	}
	if idx < 0 {
		if len(a) == len(b) {
			return DiffResult{DivergeIndex: -1}, nil
		}
		idx = n // one trace is a strict prefix of the other
	}

	res := DiffResult{DivergeIndex: idx}
	if idx < len(a) {
		e := a[idx]
		res.A = &e
		res.Round = e.Round
	}
	if idx < len(b) {
		e := b[idx]
		res.B = &e
		if res.Round == 0 || (res.B.Round < res.Round && res.B.Round > 0) {
			res.Round = e.Round
		}
	}

	// Replay each trace through the end of the divergent round, so the
	// state diff shows what the divergence did to ledgers and matches.
	ma, err := Run(net, truncAfterRound(a, res.Round), 0)
	if err != nil {
		return res, fmt.Errorf("replay: trace A: %w", err)
	}
	mb, err := Run(net, truncAfterRound(b, res.Round), 0)
	if err != nil {
		return res, fmt.Errorf("replay: trace B: %w", err)
	}
	res.StateDiff = ma.Snapshot().Diff(mb.Snapshot())
	return res, nil
}

// truncAfterRound cuts the stream at the barrier opening round+1, so a
// replay covers rounds 1..round completely.
func truncAfterRound(events []obs.Event, round int) []obs.Event {
	if round <= 0 {
		return events
	}
	for i, e := range events {
		if e.Kind == obs.KindRound && e.Round > round {
			return events[:i]
		}
	}
	return events
}

// bsLabel renders a BS id for humans, mapping the cloud sentinel.
func bsLabel(bs int) string {
	if bs == int(mec.CloudBS) {
		return "cloud"
	}
	return fmt.Sprintf("BS %d", bs)
}

// FormatEvent renders one event for diff/state output.
func FormatEvent(e *obs.Event) string {
	if e == nil {
		return "<end of trace>"
	}
	switch e.Kind {
	case obs.KindRound:
		return fmt.Sprintf("round %d barrier", e.Round)
	case obs.KindBroadcast:
		return fmt.Sprintf("round %d: %s broadcast", e.Round, bsLabel(e.BS))
	case obs.KindCloudFallback:
		return fmt.Sprintf("round %d: UE %d cloud fallback", e.Round, e.UE)
	default:
		return fmt.Sprintf("round %d: UE %d %s %s", e.Round, e.UE, e.Kind, bsLabel(e.BS))
	}
}
