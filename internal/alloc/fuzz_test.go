package alloc

import (
	"testing"
	"testing/quick"

	"dmra/internal/mec"
	"dmra/internal/workload"
)

// TestFuzzAllAllocatorsOnRandomShapes is the cross-cutting safety net:
// every allocator must produce a validated feasible assignment on every
// shape the generator can produce.
func TestFuzzAllAllocatorsOnRandomShapes(t *testing.T) {
	allocators := allAllocators()
	allocators = append(allocators, NewStableMatch(), NewLocalSearch(), NewAuction())
	f := func(seed uint64) bool {
		cfg := workload.RandomShape(seed)
		if err := cfg.Validate(); err != nil {
			t.Logf("seed %d: invalid config: %v", seed, err)
			return false
		}
		net, err := cfg.Build(seed)
		if err != nil {
			t.Logf("seed %d: build: %v", seed, err)
			return false
		}
		for _, a := range allocators {
			res, err := a.Allocate(net)
			if err != nil {
				t.Logf("seed %d: %s: %v", seed, a.Name(), err)
				return false
			}
			if err := mec.ValidateAssignment(net, res.Assignment); err != nil {
				t.Logf("seed %d: %s: invalid assignment: %v", seed, a.Name(), err)
				return false
			}
			if p := mec.Profit(net, res.Assignment).TotalProfit(); p < -1e-9 {
				t.Logf("seed %d: %s: negative profit %v (Eq. 16 should forbid)", seed, a.Name(), p)
				return false
			}
		}
		return true
	}
	cfgQ := &quick.Config{MaxCount: 40}
	if testing.Short() {
		cfgQ.MaxCount = 8
	}
	if err := quick.Check(f, cfgQ); err != nil {
		t.Error(err)
	}
}

// TestFuzzDMRAProtocolParityOnRandomShapes extends the protocol parity
// guarantee across the fuzzed scenario space (sync solver only here; the
// message runtime's own tests cover the default shapes).
func TestFuzzDMRADeterministicOnRandomShapes(t *testing.T) {
	f := func(seed uint64) bool {
		cfg := workload.RandomShape(seed)
		net, err := cfg.Build(seed)
		if err != nil {
			return false
		}
		d := NewDMRA(DefaultDMRAConfig())
		a, err := d.Allocate(net)
		if err != nil {
			return false
		}
		b, err := d.Allocate(net)
		if err != nil {
			return false
		}
		for u := range a.Assignment.ServingBS {
			if a.Assignment.ServingBS[u] != b.Assignment.ServingBS[u] {
				return false
			}
		}
		return true
	}
	cfgQ := &quick.Config{MaxCount: 25}
	if testing.Short() {
		cfgQ.MaxCount = 5
	}
	if err := quick.Check(f, cfgQ); err != nil {
		t.Error(err)
	}
}
