// Differential fuzzing of the DMRA hot path. This file is in package
// alloc_test (not alloc) so it can drive internal/protocol — which imports
// alloc — against the solver without an import cycle.
package alloc_test

import (
	"testing"

	"dmra/internal/alloc"
	"dmra/internal/protocol"
)

// FuzzDMRACachedEquivalence asserts that the arena engine, the naive
// reference implementation, and the message-passing protocol produce
// identical assignments and run statistics on random scenarios, across the
// rho sign boundary (negative rho makes a debit lower a candidate's Eq. 17
// value instead of raising it) and both ablation switches.
func FuzzDMRACachedEquivalence(f *testing.F) {
	f.Add(uint64(1), int16(250), uint8(0))
	f.Add(uint64(7), int16(0), uint8(1))
	f.Add(uint64(42), int16(-40), uint8(2))
	f.Add(uint64(1234), int16(1000), uint8(3))
	f.Add(uint64(99), int16(-8192), uint8(0))
	f.Fuzz(func(t *testing.T, seed uint64, rhoRaw int16, flags uint8) {
		cfg := alloc.GenScenarioForTest(seed)
		net, err := cfg.Build(seed)
		if err != nil {
			t.Skip() // generator can produce shapes Build rejects; not under test
		}
		dcfg := alloc.DMRAConfig{
			Rho:        float64(rhoRaw),
			SPPriority: flags&1 == 0,
			FuTieBreak: flags&2 == 0,
		}

		cached, err := alloc.NewDMRA(dcfg).Allocate(net)
		if err != nil {
			t.Fatalf("seed %d rho %d flags %d: cached: %v", seed, rhoRaw, flags, err)
		}
		naive, err := alloc.NewDMRA(dcfg).ForceNaive().Allocate(net)
		if err != nil {
			t.Fatalf("seed %d rho %d flags %d: naive: %v", seed, rhoRaw, flags, err)
		}
		if cached.Stats != naive.Stats {
			t.Fatalf("seed %d rho %d flags %d: stats diverge: cached %+v, naive %+v",
				seed, rhoRaw, flags, cached.Stats, naive.Stats)
		}
		for u := range naive.Assignment.ServingBS {
			if cached.Assignment.ServingBS[u] != naive.Assignment.ServingBS[u] {
				t.Fatalf("seed %d rho %d flags %d: UE %d: cached -> %d, naive -> %d",
					seed, rhoRaw, flags, u, cached.Assignment.ServingBS[u], naive.Assignment.ServingBS[u])
			}
		}

		// Loss-free protocol parity: same assignment, and the message
		// counts must mirror the solver's statistics exactly.
		pres, err := protocol.Run(net, protocol.Config{DMRA: dcfg, LatencyS: 1e-3})
		if err != nil {
			t.Fatalf("seed %d rho %d flags %d: protocol: %v", seed, rhoRaw, flags, err)
		}
		for u := range naive.Assignment.ServingBS {
			if pres.Assignment.ServingBS[u] != naive.Assignment.ServingBS[u] {
				t.Fatalf("seed %d rho %d flags %d: UE %d: protocol -> %d, solver -> %d",
					seed, rhoRaw, flags, u, pres.Assignment.ServingBS[u], naive.Assignment.ServingBS[u])
			}
		}
		if pres.Rounds != naive.Stats.Iterations {
			t.Fatalf("seed %d rho %d flags %d: protocol rounds %d != solver iterations %d",
				seed, rhoRaw, flags, pres.Rounds, naive.Stats.Iterations)
		}
		if pres.Requests != naive.Stats.Proposals {
			t.Fatalf("seed %d rho %d flags %d: protocol requests %d != solver proposals %d",
				seed, rhoRaw, flags, pres.Requests, naive.Stats.Proposals)
		}
		if pres.Accepts != naive.Stats.Accepts {
			t.Fatalf("seed %d rho %d flags %d: protocol accepts %d != solver accepts %d",
				seed, rhoRaw, flags, pres.Accepts, naive.Stats.Accepts)
		}
		if pres.Rejects != naive.Stats.Rejects {
			t.Fatalf("seed %d rho %d flags %d: protocol rejects %d != solver rejects %d",
				seed, rhoRaw, flags, pres.Rejects, naive.Stats.Rejects)
		}
	})
}
