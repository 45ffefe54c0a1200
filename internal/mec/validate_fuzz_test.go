package mec_test

import (
	"errors"
	"testing"

	"dmra/internal/mec"
	"dmra/internal/workload"
)

// replayAssignment is the validator's reference: every served UE granted
// through a fresh State in UE order, then the ledger's own invariant
// check. ValidateAssignment must accept exactly what it accepts.
func replayAssignment(net *mec.Network, a mec.Assignment) error {
	if len(a.ServingBS) != len(net.UEs) {
		return errors.New("wrong length")
	}
	s := mec.NewState(net)
	for u, b := range a.ServingBS {
		if b == mec.CloudBS {
			continue
		}
		if err := s.Assign(mec.UEID(u), b); err != nil {
			return err
		}
	}
	return s.CheckInvariants()
}

// fuzzServing decodes script into a serving array over net: byte 0
// picks the length (one short, exact, one long), then two bytes per UE
// pick its BS — the cloud, one of its candidates, any BS in range, a
// negative ID, or a candidate or BS count offset by ±2^32. UEs past the
// script's end go to the cloud, so short scripts make sparse, mostly
// feasible assignments and long ones contended or broken ones.
func fuzzServing(net *mec.Network, script []byte) mec.Assignment {
	n := len(net.UEs)
	if len(script) > 0 {
		n += int(script[0]%3) - 1
		script = script[1:]
	}
	a := mec.NewAssignment(max(n, 0))
	for u := range a.ServingBS {
		if len(script) < 2 {
			break
		}
		op, arg := script[0], int(script[1])
		script = script[2:]
		var cand mec.BSID = mec.CloudBS
		if u < len(net.UEs) {
			if lo, hi := net.CandRange(mec.UEID(u)); hi > lo {
				cand = net.LinkAt(mec.UEID(u), lo+int32(arg)%(hi-lo)).BS
			}
		}
		switch op % 8 {
		case 0, 1:
			// Cloud.
		case 2, 3, 4:
			a.ServingBS[u] = cand
		case 5:
			a.ServingBS[u] = mec.BSID(arg % max(len(net.BSs), 1))
		case 6:
			a.ServingBS[u] = mec.BSID(-2 - arg)
		case 7:
			b := cand
			if arg&1 == 1 {
				b = mec.BSID(len(net.BSs))
			}
			if arg&2 == 2 {
				a.ServingBS[u] = b - 1<<32
			} else {
				a.ServingBS[u] = b + 1<<32
			}
		}
	}
	return a
}

// FuzzValidateAssignment pins the one-pass recount behind
// ValidateAssignment to the ledger replay it replaced: over networks
// drawn from workload.RandomShape and arbitrary serving arrays, it
// returns nil exactly when the replay succeeds, and neither panics.
func FuzzValidateAssignment(f *testing.F) {
	for seed := uint64(0); seed < 8; seed++ {
		f.Add(seed, []byte{1})
		f.Add(seed, []byte{1, 2, 0, 3, 1, 4, 2, 2, 3, 3, 0})
		f.Add(seed, []byte{0, 2, 0})
		f.Add(seed, []byte{2, 2, 0})
		f.Add(seed, []byte{1, 5, 3, 2, 1, 6, 9, 7, 0, 7, 3, 2, 2})
	}
	// Every UE on a candidate: spread over them (valid at these seeds),
	// or all on the first, which overruns only RRB rows at seed 49
	// (Eq. 14) and only CRU rows at seed 2714 (Eq. 12).
	spread, first := []byte{1}, []byte{1}
	for i := 0; i < 120; i++ {
		spread = append(spread, 2, byte(i))
		first = append(first, 2, 0)
	}
	f.Add(uint64(3), spread)
	f.Add(uint64(11), spread)
	f.Add(uint64(49), first)
	f.Add(uint64(2714), first)
	f.Fuzz(func(t *testing.T, seed uint64, script []byte) {
		net, err := workload.RandomShape(seed).Build(seed)
		if err != nil {
			t.Skip(err)
		}
		a := fuzzServing(net, script)
		got, want := mec.ValidateAssignment(net, a), replayAssignment(net, a)
		if (got == nil) != (want == nil) {
			t.Fatalf("ValidateAssignment = %v, replay = %v for %v", got, want, a.ServingBS)
		}
	})
}
