package engine_test

import (
	"math"
	"slices"
	"testing"

	"dmra/internal/engine"
	"dmra/internal/geo"
	"dmra/internal/mec"
	"dmra/internal/radio"
	"dmra/internal/workload"
)

// creditNet builds two far-apart BSs, each with room for exactly one of
// its two 3-CRU UEs: UEs 0 and 1 cover only BS 0, UEs 2 and 3 only BS 1.
func creditNet(t *testing.T) *mec.Network {
	t.Helper()
	sps := []mec.SP{{ID: 0, Name: "sp", CRUPrice: 8, OtherCostPerCRU: 1}}
	bss := []mec.BS{
		{ID: 0, SP: 0, Pos: geo.Point{X: 0, Y: 0}, CRUCapacity: []int{4}, MaxRRBs: 55},
		{ID: 1, SP: 0, Pos: geo.Point{X: 5000, Y: 0}, CRUCapacity: []int{4}, MaxRRBs: 55},
	}
	var ues []mec.UE
	for i, x := range []float64{10, 20, 4990, 4980} {
		ues = append(ues, mec.UE{ID: mec.UEID(i), SP: 0, Service: 0, CRUDemand: 3, RateBps: 1e6, Pos: geo.Point{X: x, Y: 0}})
	}
	net, err := mec.NewNetwork(sps, bss, ues, 1, radio.DefaultConfig(),
		mec.Pricing{BasePrice: 1, CrossSPFactor: 2, DistanceSigma: 0.01})
	if err != nil {
		t.Fatalf("NewNetwork: %v", err)
	}
	return net
}

// settleAll arrives every UE of net, settles, and returns the admitted
// and the cloud-served UE of each BS's pair.
func settleAll(t *testing.T, inc *engine.Incremental, net *mec.Network) (won, lost [2]mec.UEID) {
	t.Helper()
	for u := range net.UEs {
		if err := inc.Arrive(mec.UEID(u)); err != nil {
			t.Fatalf("Arrive(%d): %v", u, err)
		}
	}
	if _, err := inc.Settle(); err != nil {
		t.Fatalf("Settle: %v", err)
	}
	for b := 0; b < 2; b++ {
		x, y := mec.UEID(2*b), mec.UEID(2*b+1)
		if inc.ServingBS(x) < 0 {
			x, y = y, x
		}
		if inc.ServingBS(x) != int32(b) || inc.ServingBS(y) != -1 {
			t.Fatalf("BS %d pair settled to %d, %d; want one admitted, one cloud", b, inc.ServingBS(x), inc.ServingBS(y))
		}
		won[b], lost[b] = x, y
	}
	return won, lost
}

// TestIncrementalCreditInvalidation pins the lazy credit epochs: a
// departure credits its BS in O(1), and the next Settle rebuilds exactly
// the frontier regions with a drop at a BS credited since they were
// built.
func TestIncrementalCreditInvalidation(t *testing.T) {
	net := creditNet(t)
	cfg := engine.DefaultConfig()

	t.Run("stale drop rebuilt", func(t *testing.T) {
		var inc engine.Incremental
		if err := inc.Begin(net, cfg, 1); err != nil {
			t.Fatalf("Begin: %v", err)
		}
		won, lost := settleAll(t, &inc, net)
		// lost[0] dropped BS 0 as full; the departure from BS 0 in the
		// same epoch makes that drop stale.
		inc.Depart(won[0])
		if err := inc.Arrive(lost[0]); err != nil {
			t.Fatalf("re-Arrive: %v", err)
		}
		ds, err := inc.Settle()
		if err != nil {
			t.Fatalf("Settle: %v", err)
		}
		if got := inc.ServingBS(lost[0]); got != 0 {
			t.Fatalf("re-arrived UE %d on %d after BS 0 was freed, want 0", lost[0], got)
		}
		if ds.Released != 1 || ds.Invalidated != 1 || ds.Accepts != 1 {
			t.Fatalf("settle stats %+v, want 1 released, 1 invalidated, 1 accept", ds)
		}
		if err := inc.CheckInvariants(); err != nil {
			t.Fatal(err)
		}
	})

	t.Run("uncredited region kept", func(t *testing.T) {
		var inc engine.Incremental
		if err := inc.Begin(net, cfg, 1); err != nil {
			t.Fatalf("Begin: %v", err)
		}
		won, lost := settleAll(t, &inc, net)
		stamp := inc.RegionStampForTest(lost[0])
		if stamp == 0 {
			t.Fatal("cloud-served UE has no region to keep")
		}
		// BS 1 is credited; lost[0] covers only BS 0, so its empty region
		// stays valid and it ends cloud-served again without a rebuild.
		inc.Depart(won[1])
		if err := inc.Arrive(lost[0]); err != nil {
			t.Fatalf("re-Arrive: %v", err)
		}
		ds, err := inc.Settle()
		if err != nil {
			t.Fatalf("Settle: %v", err)
		}
		if ds.Invalidated != 0 || ds.Proposals != 0 || inc.ServingBS(lost[0]) != -1 {
			t.Fatalf("settle %+v, UE %d on %d; want no invalidation, no proposal, cloud", ds, lost[0], inc.ServingBS(lost[0]))
		}
		if got := inc.RegionStampForTest(lost[0]); got != stamp {
			t.Fatalf("region stamp %d -> %d: an uncredited region was rebuilt", stamp, got)
		}
	})
}

// TestIncrementalRunWrap drives sessions across the uint32 wrap of the
// arena's run epoch. Stamps surviving the wrap would read as newer than
// every later credit and revive stale regions.
func TestIncrementalRunWrap(t *testing.T) {
	t.Run("credit before wrap", func(t *testing.T) {
		net := creditNet(t)
		var inc engine.Incremental
		inc.SetRunForTest(math.MaxUint32 - 2)
		if err := inc.Begin(net, engine.DefaultConfig(), 1); err != nil {
			t.Fatalf("Begin: %v", err)
		}
		won, lost := settleAll(t, &inc, net) // regions stamped MaxUint32
		inc.Depart(won[0])
		// A Settle of the other pair wraps the run; lost[0]'s region,
		// stale since the credit, must not outlive the wrap.
		if err := inc.Arrive(lost[1]); err != nil {
			t.Fatalf("Arrive: %v", err)
		}
		if _, err := inc.Settle(); err != nil {
			t.Fatalf("wrapping Settle: %v", err)
		}
		if r := inc.RunForTest(); r != 1 {
			t.Fatalf("run %d after the wrapping Settle, want 1", r)
		}
		if err := inc.Arrive(lost[0]); err != nil {
			t.Fatalf("re-Arrive: %v", err)
		}
		if _, err := inc.Settle(); err != nil {
			t.Fatalf("Settle: %v", err)
		}
		if got := inc.ServingBS(lost[0]); got != 0 {
			t.Fatalf("UE %d on %d after BS 0 was freed before the wrap, want 0", lost[0], got)
		}
	})

	// Random churn must settle exactly like a twin session far from the
	// wrap — the twin delta parity pins to from-scratch DMRA — on every
	// epoch: placements, residual ledgers and round counters.
	const start = math.MaxUint32 - 16
	for seed := uint64(1); seed <= 30; seed++ {
		// A contended population, so regions hold drops across the wrap.
		wl := workload.RandomShape(seed)
		wl.UEs = 300
		net, err := wl.Build(seed)
		if err != nil {
			t.Fatalf("build: %v", err)
		}
		cfg := engine.DefaultConfig()
		var wrap, twin engine.Incremental
		var total engine.DeltaStats
		wrap.SetRunForTest(start)
		for _, inc := range []*engine.Incremental{&wrap, &twin} {
			if err := inc.Begin(net, cfg, 2); err != nil {
				t.Fatalf("Begin: %v", err)
			}
		}
		// Session population: each UE inactive, pending, or held (edge or
		// cloud) — the lifecycle online sessions drive.
		n := len(net.UEs)
		active := make([]bool, n)
		s := seed*2654435761 + 1
		for i := 0; i < 1200; i++ {
			s ^= s << 13
			s ^= s >> 7
			s ^= s << 17
			u := mec.UEID(int(s>>8) % n)
			switch {
			case active[u]:
				wrap.Depart(u)
				twin.Depart(u)
				active[u] = false
			case wrap.ServingBS(u) < 0:
				errW, errT := wrap.Arrive(u), twin.Arrive(u)
				if (errW == nil) != (errT == nil) {
					t.Fatalf("Arrive(%d): wrapped %v, twin %v", u, errW, errT)
				}
				active[u] = errW == nil
			}
			if i%4 != 3 {
				continue
			}
			dw, err := wrap.Settle()
			if err != nil {
				t.Fatalf("wrapped Settle: %v", err)
			}
			dt, err := twin.Settle()
			if err != nil {
				t.Fatalf("twin Settle: %v", err)
			}
			total.Add(dt)
			dw.Invalidated, dt.Invalidated = 0, 0 // the wrap drops regions, uncounted
			if dw != dt {
				t.Fatalf("seed %d step %d: wrapped settle %+v, twin %+v", seed, i, dw, dt)
			}
			for u := range net.UEs {
				if w, tw := wrap.ServingBS(mec.UEID(u)), twin.ServingBS(mec.UEID(u)); w != tw {
					t.Fatalf("seed %d step %d: UE %d wrapped on %d, twin on %d", seed, i, u, w, tw)
				}
			}
		}
		if r := wrap.RunForTest(); r > start {
			t.Fatalf("seed %d: run %d never wrapped", seed, r)
		}
		if total.Invalidated == 0 {
			t.Fatalf("seed %d: no region was ever invalidated; the wrap is untested", seed)
		}
		if !slices.Equal(wrap.Book().CRU, twin.Book().CRU) || !slices.Equal(wrap.Book().RRB, twin.Book().RRB) {
			t.Fatalf("seed %d: residuals diverge", seed)
		}
		if err := wrap.CheckInvariants(); err != nil {
			t.Fatal(err)
		}
	}
}
