package wire

import (
	"errors"
	"net"
	"runtime"
	"strconv"
	"strings"
	"testing"
	"time"

	"dmra/internal/alloc"
	"dmra/internal/engine"
	"dmra/internal/mec"
	"dmra/internal/obs"
	"dmra/internal/workload"
)

// testRegionConfig is the cluster configuration the package's functional
// tests run under. scripts/check.sh sweeps DMRA_TEST_REGIONS over region
// counts so every parity and accounting test doubles as a multi-coordinator
// test; unset, tests exercise the single coordinator.
func testRegionConfig(cfg alloc.DMRAConfig) RegionConfig {
	return RegionConfig{DMRA: cfg, Regions: testRegionCount(1)}
}

// setStartHook installs a BS-server start hook for one test and removes it
// on cleanup. Tests using it must not run in parallel (the hook is a
// package global).
func setStartHook(t *testing.T, hook func(*BSServer)) {
	t.Helper()
	testHookStartBS = hook
	t.Cleanup(func() { testHookStartBS = nil })
}

// drainLedger rewinds a server's ledger to z CRUs per service and z RRBs,
// keeping the service count so SelectRound stays in bounds.
func drainLedger(s *BSServer, z int) {
	services := len(s.led.RemainingCRU())
	cru := make([]int, services)
	for j := range cru {
		cru[j] = z
	}
	s.led.Reset(cru, z)
}

// TestClusterShardLatencyHistograms checks the per-round and per-region
// wall-clock histograms land in the registry without touching the event
// stream.
func TestClusterShardLatencyHistograms(t *testing.T) {
	net_ := buildNet(t, 80, 4)
	reg := obs.NewRegistry()
	res, err := RunRegionCluster(net_, RegionConfig{
		DMRA:    alloc.DefaultDMRAConfig(),
		Regions: 3,
		Obs:     obs.NewRecorder(reg, nil),
	})
	if err != nil {
		t.Fatal(err)
	}
	roundHist := reg.Histogram("wire_round_seconds", obs.DefaultLatencyBuckets())
	if got := roundHist.Count(); got != int64(res.Rounds) {
		t.Errorf("wire_round_seconds count = %d, want %d rounds", got, res.Rounds)
	}
	for r := 0; r < res.Regions; r++ {
		name := obs.Label("wire_region_round_seconds", "region", strconv.Itoa(r))
		if reg.Histogram(name, obs.DefaultLatencyBuckets()).Count() == 0 {
			t.Errorf("region %d recorded no round latencies", r)
		}
	}
}

// TestClusterHungBSTimesOut is the deadline gate: a BS that accepts the
// request but never answers must fail the run within ExchangeTimeout with
// a typed error naming a base station, instead of deadlocking.
func TestClusterHungBSTimesOut(t *testing.T) {
	setStartHook(t, func(s *BSServer) {
		s.stall = make(chan struct{}) // never closed: the server wedges before replying
	})
	net_ := buildNet(t, 60, 2)
	rc := RegionConfig{
		DMRA:            alloc.DefaultDMRAConfig(),
		Regions:         3,
		ExchangeTimeout: 150 * time.Millisecond,
	}
	start := time.Now()
	_, err := RunRegionCluster(net_, rc)
	elapsed := time.Since(start)
	if err == nil {
		t.Fatal("run with wedged servers returned nil error")
	}
	var bse *BSError
	if !errors.As(err, &bse) {
		t.Fatalf("error %v (%T) is not a *BSError", err, err)
	}
	if bse.Op != "exchange" || bse.Round != 1 {
		t.Errorf("BSError op=%q round=%d, want exchange round 1", bse.Op, bse.Round)
	}
	if !bse.Timeout() {
		t.Errorf("BSError.Timeout() = false for a hung BS: %v", err)
	}
	if int(bse.BS) < 0 || int(bse.BS) >= len(net_.BSs) {
		t.Errorf("BSError names BS %d, outside [0, %d)", bse.BS, len(net_.BSs))
	}
	if elapsed > 5*time.Second {
		t.Errorf("failure took %v; want roughly the 150ms exchange timeout", elapsed)
	}
}

// TestClusterSelectErrorSurfaces forces a BS-side select failure (a ledger
// driven into an invalid state) and checks it reaches the caller as a
// *BSError instead of the round being applied. Regression for verdicts
// formerly being applied from a broken book with the error only held in
// the server.
func TestClusterSelectErrorSurfaces(t *testing.T) {
	setStartHook(t, func(s *BSServer) {
		drainLedger(s, -1) // invalid: negative residuals fail CheckInvariants
	})
	net_ := buildNet(t, 60, 2)
	res, err := RunRegionCluster(net_, RegionConfig{DMRA: alloc.DefaultDMRAConfig(), Regions: 2})
	if err == nil {
		t.Fatal("run with corrupted ledgers returned nil error")
	}
	var bse *BSError
	if !errors.As(err, &bse) {
		t.Fatalf("error %v (%T) is not a *BSError", err, err)
	}
	if bse.Op != "select" || bse.Round != 1 {
		t.Errorf("BSError op=%q round=%d, want select round 1", bse.Op, bse.Round)
	}
	if !strings.Contains(err.Error(), "ledger invalid") {
		t.Errorf("error %q does not carry the ledger diagnosis", err)
	}
	if res.Assignment.ServingBS != nil {
		t.Error("failed run returned a non-zero result")
	}
}

// TestClusterCloseErrorFolded is the satellite's regression: an error the
// BS server records during the run but that never rides a response frame
// used to be swallowed by the coordinator's deferred Close. It must now
// fold into RunRegionCluster's return value.
func TestClusterCloseErrorFolded(t *testing.T) {
	injected := errors.New("injected ledger corruption")
	setStartHook(t, func(s *BSServer) {
		if s.id == 2 {
			s.setErr(injected)
		}
	})
	net_ := buildNet(t, 60, 2)
	_, err := RunRegionCluster(net_, RegionConfig{DMRA: alloc.DefaultDMRAConfig(), Regions: 2})
	if err == nil {
		t.Fatal("recorded server error was swallowed; want it folded into the run error")
	}
	var bse *BSError
	if !errors.As(err, &bse) {
		t.Fatalf("error %v (%T) is not a *BSError", err, err)
	}
	if bse.Op != "close" || bse.BS != 2 {
		t.Errorf("BSError op=%q bs=%d, want close on BS 2", bse.Op, bse.BS)
	}
	if !errors.Is(err, injected) {
		t.Errorf("folded error %v does not wrap the server's recorded error", err)
	}
}

// TestClusterNoGoroutineLeakOnFailure checks the failure path tears
// everything down: after a run fails mid-round, every region worker and BS
// server goroutine must exit (asserted by goroutine count, since the
// module carries no leak-checker dependency).
func TestClusterNoGoroutineLeakOnFailure(t *testing.T) {
	setStartHook(t, func(s *BSServer) {
		drainLedger(s, -1)
	})
	before := runtime.NumGoroutine()
	net_ := buildNet(t, 60, 2)
	if _, err := RunRegionCluster(net_, RegionConfig{DMRA: alloc.DefaultDMRAConfig(), Regions: 4}); err == nil {
		t.Fatal("expected the run to fail")
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		if g := runtime.NumGoroutine(); g <= before+2 {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutines: %d before failed run, %d after", before, runtime.NumGoroutine())
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestClusterRoundsExceedUEPlusOne is the round-bound satellite's
// adversarial case: when BS ledgers have diverged from UE views (here:
// servers restarted with drained books), retry churn makes the run need
// more than |UE|+1 rounds — each round only removes one candidate link.
// The old |UE|+1 cap aborted such runs; the deferred-acceptance bound
// (engine.RoundBound: one round per candidate link, plus the final empty
// round) lets them terminate, and this scenario meets it exactly.
func TestClusterRoundsExceedUEPlusOne(t *testing.T) {
	cfg := workload.Default()
	cfg.SPs = 3
	cfg.BSsPerSP = 1
	cfg.UEs = 1
	cfg.Services = 1
	cfg.ServicesPerBS = 1
	cfg.AreaWidthM, cfg.AreaHeightM = 400, 400
	cfg.Radio.CoverageRadiusM = 1000 // every BS covers the lone UE
	net_, err := cfg.Build(3)
	if err != nil {
		t.Fatal(err)
	}
	cands := net_.CoverCount(0)
	if cands < 3 {
		t.Fatalf("scenario gives the UE %d candidates, need >= 3", cands)
	}

	// Drain every ledger to zero behind the UE's back: views still claim
	// full capacity, so the UE proposes to each candidate in turn and
	// collects one permanent reject per round.
	setStartHook(t, func(s *BSServer) {
		drainLedger(s, 0)
	})
	res, err := RunRegionCluster(net_, RegionConfig{DMRA: alloc.DefaultDMRAConfig(), Regions: 2})
	if err != nil {
		t.Fatalf("run exceeded the round bound it should satisfy: %v", err)
	}
	if want := len(net_.UEs) + 1; res.Rounds <= want {
		t.Fatalf("rounds = %d, want > |UE|+1 = %d (scenario failed to exercise the old bound)", res.Rounds, want)
	}
	if want := engine.RoundBound(net_); res.Rounds != want {
		t.Errorf("rounds = %d, want exactly RoundBound = %d", res.Rounds, want)
	}
	if res.Assignment.ServingBS[0] != mec.CloudBS {
		t.Errorf("UE 0 assigned to BS %d, want cloud (all books drained)", res.Assignment.ServingBS[0])
	}
}

// TestBSServerConcurrentClose hammers Close from several goroutines while
// the serve loop is parked in a read on a live connection; run under
// -race this is the regression for the old racy select/default close.
func TestBSServerConcurrentClose(t *testing.T) {
	for i := 0; i < 20; i++ {
		s, err := StartBS(0, []int{50}, 20, alloc.DefaultDMRAConfig(), time.Second)
		if err != nil {
			t.Fatal(err)
		}
		conn, err := net.Dial("tcp", s.Addr())
		if err != nil {
			t.Fatal(err)
		}
		errs := make(chan error, 3)
		for g := 0; g < 3; g++ {
			go func() { errs <- s.Close() }()
		}
		for g := 0; g < 3; g++ {
			if err := <-errs; err != nil {
				t.Fatalf("concurrent close %d: %v", g, err)
			}
		}
		conn.Close()
	}
}

// TestClusterRejectsMalformedResponse feeds the coordinator responses it
// must not apply — a verdict for a UE that did not propose to the BS, a
// broadcast of the wrong shape, a residual above the BS's capacity — and
// checks each fails the run as a typed exchange error instead of being
// applied to another region's UEs or views.
func TestClusterRejectsMalformedResponse(t *testing.T) {
	net_ := buildNet(t, 60, 2)
	cases := map[string]func(*RoundResponse){
		"foreign-verdict": func(r *RoundResponse) {
			if len(r.Verdicts) > 0 {
				r.Verdicts[0].UE = mec.UEID(len(net_.UEs) - 1 - int(r.Verdicts[0].UE))
			}
		},
		"short-broadcast": func(r *RoundResponse) { r.RemainingCRU = r.RemainingCRU[:0] },
		"grown-residual":  func(r *RoundResponse) { r.RemainingRRBs = 1 << 40 },
	}
	for name, tamper := range cases {
		t.Run(name, func(t *testing.T) {
			setStartHook(t, func(s *BSServer) { s.tamper = tamper })
			_, err := RunRegionCluster(net_, RegionConfig{DMRA: alloc.DefaultDMRAConfig(), Regions: testRegionCount(2)})
			var bse *BSError
			if !errors.As(err, &bse) || bse.Op != "exchange" || !errors.Is(err, errMalformed) {
				t.Fatalf("tampered responses: got %v, want a malformed-frame *BSError on exchange", err)
			}
		})
	}
}
