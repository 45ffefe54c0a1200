package protocol

import (
	"errors"
	"math"
	"testing"
	"testing/quick"

	"dmra/internal/alloc"
	"dmra/internal/mec"
	"dmra/internal/workload"
)

func buildNet(t *testing.T, ues int, seed uint64) *mec.Network {
	t.Helper()
	cfg := workload.Default()
	cfg.UEs = ues
	net, err := cfg.Build(seed)
	if err != nil {
		t.Fatal(err)
	}
	return net
}

// TestParityWithSyncSolver is the core integration check: the actor-based
// protocol and the synchronous in-memory solver must produce the identical
// matching, UE for UE.
func TestParityWithSyncSolver(t *testing.T) {
	for _, n := range []int{0, 1, 50, 300, 800} {
		for seed := uint64(1); seed <= 3; seed++ {
			net := buildNet(t, n, seed)
			sync, err := alloc.NewDMRA(alloc.DefaultDMRAConfig()).Allocate(net)
			if err != nil {
				t.Fatal(err)
			}
			dist, err := Run(net, DefaultConfig())
			if err != nil {
				t.Fatal(err)
			}
			for u := range sync.Assignment.ServingBS {
				if sync.Assignment.ServingBS[u] != dist.Assignment.ServingBS[u] {
					t.Fatalf("n=%d seed=%d: UE %d sync->%d protocol->%d",
						n, seed, u, sync.Assignment.ServingBS[u], dist.Assignment.ServingBS[u])
				}
			}
		}
	}
}

func TestParityAcrossConfigs(t *testing.T) {
	net := buildNet(t, 400, 7)
	for _, dc := range []alloc.DMRAConfig{
		{Rho: 0, SPPriority: true, FuTieBreak: true},
		{Rho: 500, SPPriority: false, FuTieBreak: true},
		{Rho: 2000, SPPriority: true, FuTieBreak: false},
		{Rho: 250},
	} {
		sync, err := alloc.NewDMRA(dc).Allocate(net)
		if err != nil {
			t.Fatal(err)
		}
		dist, err := Run(net, Config{DMRA: dc, LatencyS: 1e-3})
		if err != nil {
			t.Fatal(err)
		}
		for u := range sync.Assignment.ServingBS {
			if sync.Assignment.ServingBS[u] != dist.Assignment.ServingBS[u] {
				t.Fatalf("cfg %+v: UE %d sync->%d protocol->%d",
					dc, u, sync.Assignment.ServingBS[u], dist.Assignment.ServingBS[u])
			}
		}
	}
}

func TestResultAccounting(t *testing.T) {
	net := buildNet(t, 200, 5)
	res, err := Run(net, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if res.Rounds < 1 {
		t.Errorf("rounds = %d", res.Rounds)
	}
	if res.Messages != res.Requests+res.Accepts+res.Rejects+res.Broadcasts {
		t.Errorf("message count %d does not decompose: %d+%d+%d+%d",
			res.Messages, res.Requests, res.Accepts, res.Rejects, res.Broadcasts)
	}
	if res.Accepts != res.Assignment.ServedCount() {
		t.Errorf("accepts %d != served %d", res.Accepts, res.Assignment.ServedCount())
	}
	if res.Requests < res.Accepts {
		t.Errorf("requests %d < accepts %d", res.Requests, res.Accepts)
	}
	if res.SimTimeS <= 0 {
		t.Errorf("sim time = %v", res.SimTimeS)
	}
	if err := mec.ValidateAssignment(net, res.Assignment); err != nil {
		t.Fatal(err)
	}
}

func TestSimTimeScalesWithLatency(t *testing.T) {
	net := buildNet(t, 100, 3)
	fast, err := Run(net, Config{DMRA: alloc.DefaultDMRAConfig(), LatencyS: 1e-3})
	if err != nil {
		t.Fatal(err)
	}
	slow, err := Run(net, Config{DMRA: alloc.DefaultDMRAConfig(), LatencyS: 1e-2})
	if err != nil {
		t.Fatal(err)
	}
	if slow.SimTimeS <= fast.SimTimeS {
		t.Errorf("10x latency did not slow the run: %v vs %v", slow.SimTimeS, fast.SimTimeS)
	}
	if slow.Rounds != fast.Rounds {
		t.Errorf("latency changed round count: %d vs %d", slow.Rounds, fast.Rounds)
	}
}

func TestEmptyNetworkQuiescesImmediately(t *testing.T) {
	net := buildNet(t, 0, 1)
	res, err := Run(net, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if res.Rounds != 1 || res.Messages != 0 {
		t.Errorf("rounds=%d messages=%d, want 1 round and 0 messages", res.Rounds, res.Messages)
	}
}

func TestMaxRoundsGuard(t *testing.T) {
	net := buildNet(t, 300, 2)
	_, err := Run(net, Config{DMRA: alloc.DefaultDMRAConfig(), LatencyS: 1e-3, MaxRounds: 1})
	if err == nil {
		t.Fatal("expected ErrDidNotQuiesce with MaxRounds=1 on a contended scenario")
	}
}

func TestDeterministicAcrossRuns(t *testing.T) {
	net := buildNet(t, 300, 4)
	a, err := Run(net, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(net, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if a.Messages != b.Messages || a.Rounds != b.Rounds {
		t.Fatalf("non-deterministic protocol: %+v vs %+v", a, b)
	}
	for u := range a.Assignment.ServingBS {
		if a.Assignment.ServingBS[u] != b.Assignment.ServingBS[u] {
			t.Fatalf("UE %d differs across identical runs", u)
		}
	}
}

func TestLossyRunStaysFeasible(t *testing.T) {
	net := buildNet(t, 400, 11)
	for _, drop := range []float64{0.05, 0.2, 0.4} {
		cfg := DefaultConfig()
		cfg.DropRate = drop
		cfg.LossSeed = 7
		res, err := Run(net, cfg)
		if err != nil {
			t.Fatalf("drop=%g: %v", drop, err)
		}
		if err := mec.ValidateAssignment(net, res.Assignment); err != nil {
			t.Fatalf("drop=%g: infeasible assignment: %v", drop, err)
		}
		if res.Dropped == 0 {
			t.Errorf("drop=%g: no messages recorded as dropped", drop)
		}
		// Loss must not strand everyone: the retry machinery keeps the
		// protocol productive.
		if res.Assignment.ServedCount() < net.TotalCandidateLinks()/20 {
			t.Errorf("drop=%g: only %d UEs served", drop, res.Assignment.ServedCount())
		}
	}
}

func TestLossyRunDeterministic(t *testing.T) {
	net := buildNet(t, 300, 13)
	cfg := DefaultConfig()
	cfg.DropRate = 0.25
	cfg.LossSeed = 5
	a, err := Run(net, cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(net, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a.Messages != b.Messages || a.Dropped != b.Dropped || a.Rounds != b.Rounds {
		t.Fatalf("lossy run not deterministic: %+v vs %+v", a, b)
	}
	for u := range a.Assignment.ServingBS {
		if a.Assignment.ServingBS[u] != b.Assignment.ServingBS[u] {
			t.Fatalf("UE %d differs across identical lossy runs", u)
		}
	}
}

func TestLossCostsRoundsAndMessages(t *testing.T) {
	net := buildNet(t, 400, 17)
	clean, err := Run(net, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	cfg.DropRate = 0.3
	cfg.LossSeed = 3
	lossy, err := Run(net, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if lossy.Rounds <= clean.Rounds {
		t.Errorf("30%% loss did not extend the protocol: %d vs %d rounds", lossy.Rounds, clean.Rounds)
	}
	if lossy.Requests <= clean.Requests {
		t.Errorf("30%% loss did not increase retries: %d vs %d requests", lossy.Requests, clean.Requests)
	}
}

func TestLossFreeNeverLeaks(t *testing.T) {
	net := buildNet(t, 500, 19)
	res, err := Run(net, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if res.LeakedReservations != 0 || res.Dropped != 0 {
		t.Fatalf("loss-free run leaked=%d dropped=%d", res.LeakedReservations, res.Dropped)
	}
}

func TestInvalidDropRateRejected(t *testing.T) {
	net := buildNet(t, 10, 1)
	for _, bad := range []float64{-0.1, 1.0, 1.5, math.NaN()} {
		cfg := DefaultConfig()
		cfg.DropRate = bad
		if _, err := Run(net, cfg); err == nil {
			t.Errorf("drop rate %g accepted", bad)
		}
	}
	// A non-finite latency is a config error too, not a stalled run or
	// an infinite completion time; non-positive values keep selecting
	// the 1 ms default.
	for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		cfg := DefaultConfig()
		cfg.LatencyS = bad
		if _, err := Run(net, cfg); err == nil || errors.Is(err, ErrDidNotQuiesce) {
			t.Errorf("latency %g: err = %v, want a config error", bad, err)
		}
	}
	for _, dflt := range []float64{0, -1} {
		cfg := DefaultConfig()
		cfg.LatencyS = dflt
		if _, err := Run(net, cfg); err != nil {
			t.Errorf("latency %g: %v", dflt, err)
		}
	}
}

func TestAcceptRetransmissionServesUEs(t *testing.T) {
	// Even under heavy loss, most UEs of a light scenario end up served,
	// which exercises the duplicate-request/accept-resend path.
	net := buildNet(t, 100, 23)
	cfg := DefaultConfig()
	cfg.DropRate = 0.5
	cfg.LossSeed = 11
	res, err := Run(net, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Assignment.ServedCount(); got < 80 {
		t.Errorf("served %d/100 under loss; retransmission path not effective", got)
	}
}

func TestFuzzParityOnRandomShapes(t *testing.T) {
	// Cross-shape extension of the parity guarantee: over randomized
	// scenario shapes (sparse services, narrow coverage, shadowing, both
	// pricing laws), the loss-free protocol equals the sync solver.
	f := func(seed uint64) bool {
		cfg := workload.Default()
		// Mirror internal/alloc's fuzz generator in a compact form.
		cfg.SPs = int(seed%4) + 1
		cfg.BSsPerSP = int(seed/4%5) + 1
		cfg.Services = int(seed/20%6) + 1
		cfg.ServicesPerBS = cfg.Services
		cfg.UEs = int(seed % 90)
		cfg.Radio.CoverageRadiusM = 200 + float64(seed%7)*40
		cfg.SPCRUPrice = 12
		net, err := cfg.Build(seed)
		if err != nil {
			t.Logf("seed %d: %v", seed, err)
			return false
		}
		sync, err := alloc.NewDMRA(alloc.DefaultDMRAConfig()).Allocate(net)
		if err != nil {
			return false
		}
		dist, err := Run(net, DefaultConfig())
		if err != nil {
			return false
		}
		for u := range sync.Assignment.ServingBS {
			if sync.Assignment.ServingBS[u] != dist.Assignment.ServingBS[u] {
				t.Logf("seed %d: UE %d diverges", seed, u)
				return false
			}
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 25}
	if testing.Short() {
		cfg.MaxCount = 5
	}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}
