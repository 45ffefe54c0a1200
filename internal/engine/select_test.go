package engine

import (
	"math"
	"sort"
	"testing"

	"dmra/internal/mec"
	"dmra/internal/rng"
)

// refSelectPerService is the filter-chain formulation of Alg. 1 lines
// 13-21 the one-pass minimum must reproduce: same-SP candidates first (if
// enabled), then smallest f_u (if enabled), then smallest combined
// footprint, then lowest UE ID, one winner per service in ascending
// service order.
func refSelectPerService(c Config, reqs []Request) []Request {
	byService := make(map[mec.ServiceID][]Request)
	var services []mec.ServiceID
	for _, r := range reqs {
		if _, seen := byService[r.Service]; !seen {
			services = append(services, r.Service)
		}
		byService[r.Service] = append(byService[r.Service], r)
	}
	sort.Slice(services, func(a, b int) bool { return services[a] < services[b] })

	filter := func(group []Request, keep func(Request) bool) []Request {
		var out []Request
		for _, r := range group {
			if keep(r) {
				out = append(out, r)
			}
		}
		return out
	}
	argmin := func(group []Request, key func(Request) int) []Request {
		best := math.MaxInt
		for _, r := range group {
			if k := key(r); k < best {
				best = k
			}
		}
		return filter(group, func(r Request) bool { return key(r) == best })
	}

	selected := make([]Request, 0, len(services))
	for _, j := range services {
		group := byService[j]
		if c.SPPriority {
			if same := filter(group, func(r Request) bool { return r.SameSP }); len(same) > 0 {
				group = same
			}
		}
		if c.FuTieBreak {
			group = argmin(group, func(r Request) int { return r.Fu })
		}
		group = argmin(group, func(r Request) int { return r.RRBs + r.CRUs })
		best := group[0]
		for _, cand := range group[1:] {
			if cand.UE < best.UE {
				best = cand
			}
		}
		selected = append(selected, best)
	}
	return selected
}

// randomRequests draws a batch with plenty of deliberate ties so every
// link of the tie-break chain is exercised.
func randomRequests(src *rng.Source, n int) []Request {
	reqs := make([]Request, n)
	for i := range reqs {
		reqs[i] = Request{
			UE:      mec.UEID(src.Intn(200)),
			Service: mec.ServiceID(src.Intn(4)),
			CRUs:    1 + src.Intn(3),
			RRBs:    1 + src.Intn(3),
			SameSP:  src.Intn(2) == 0,
			Fu:      1 + src.Intn(3),
		}
	}
	// Selection assumes one request per UE per round; dedup UE collisions
	// by reindexing so the lowest-UE-ID tie-break stays a total order.
	seen := make(map[mec.UEID]bool, n)
	next := mec.UEID(1000)
	for i := range reqs {
		for seen[reqs[i].UE] {
			reqs[i].UE = next
			next++
		}
		seen[reqs[i].UE] = true
	}
	return reqs
}

// TestSelectPerServiceMatchesFilterChain pins the one-pass minimum against
// the literal filter-chain formulation under every ablation combination.
func TestSelectPerServiceMatchesFilterChain(t *testing.T) {
	for _, cfg := range []Config{
		{SPPriority: true, FuTieBreak: true},
		{SPPriority: true, FuTieBreak: false},
		{SPPriority: false, FuTieBreak: true},
		{SPPriority: false, FuTieBreak: false},
	} {
		src := rng.New(7).SplitLabeled("select-test")
		var sc SelectScratch
		for trial := 0; trial < 200; trial++ {
			reqs := randomRequests(src, 1+src.Intn(30))
			want := refSelectPerService(cfg, reqs)
			got := cfg.selectPerService(reqs, &sc)
			if len(got) != len(want) {
				t.Fatalf("cfg %+v trial %d: %d selected, want %d", cfg, trial, len(got), len(want))
			}
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("cfg %+v trial %d: selected[%d] = %+v, want %+v", cfg, trial, i, got[i], want[i])
				}
			}
		}
	}
}

// TestSortByPreferenceMatchesReference pins the allocation-free insertion
// sort against sort.SliceStable over the same comparator.
func TestSortByPreferenceMatchesReference(t *testing.T) {
	cfg := DefaultConfig()
	src := rng.New(11).SplitLabeled("sort-test")
	for trial := 0; trial < 200; trial++ {
		reqs := randomRequests(src, 1+src.Intn(20))
		want := append([]Request(nil), reqs...)
		sort.SliceStable(want, func(a, b int) bool { return cfg.prefers(want[a], want[b]) })
		cfg.sortByPreference(reqs)
		for i := range reqs {
			if reqs[i] != want[i] {
				t.Fatalf("trial %d: sorted[%d] = %+v, want %+v", trial, i, reqs[i], want[i])
			}
		}
	}
}

// TestSelectRoundTrimsStrictlyInPreferenceOrder pins the Alg. 1 lines
// 22-25 semantics: when the selected batch exceeds the radio budget, the
// BS admits in its preference order and stops at the first request that
// does not fit — everything behind it is trimmed, even requests small
// enough to squeeze into the leftover budget. A first-fit admit (the bug
// this test guards against) would let the least-preferred UE C leapfrog B
// here.
func TestSelectRoundTrimsStrictlyInPreferenceOrder(t *testing.T) {
	// Three UEs on distinct services so all pass per-service selection;
	// f_u forces the BS preference order A (UE 0) > B (UE 1) > C (UE 2).
	// Budget: A fits, B does not, C would.
	a := Request{UE: 0, Service: 0, CRUs: 4, RRBs: 3, SameSP: true, Fu: 1}
	b := Request{UE: 1, Service: 1, CRUs: 4, RRBs: 10, SameSP: true, Fu: 2}
	c := Request{UE: 2, Service: 2, CRUs: 4, RRBs: 3, SameSP: true, Fu: 3}
	led := NewBSLedger([]int{100, 100, 100}, a.RRBs+c.RRBs)

	var sc SelectScratch
	verdicts, err := DefaultConfig().SelectRound(led, []Request{c, a, b}, &sc)
	if err != nil {
		t.Fatalf("SelectRound: %v", err)
	}
	if len(verdicts) != 3 {
		t.Fatalf("got %d verdicts, want 3", len(verdicts))
	}
	if v := verdicts[0]; !v.Accepted || v.Req.UE != 0 {
		t.Errorf("verdicts[0] = %+v, want accept of most-preferred UE 0", v)
	}
	if v := verdicts[1]; v.Accepted || v.Req.UE != 1 || !v.Permanent {
		t.Errorf("verdicts[1] = %+v, want permanent reject of unfittable UE 1", v)
	}
	if v := verdicts[2]; v.Accepted || v.Req.UE != 2 || v.Permanent {
		t.Errorf("verdicts[2] = %+v, want non-permanent trim of UE 2 (fits, but no first-fit leapfrog)", v)
	}
	if remCRU, remRRBs := led.Residual(0); remCRU != 96 || remRRBs != c.RRBs {
		t.Errorf("ledger after round: remCRU=%d remRRBs=%d, want 96 and %d", remCRU, remRRBs, c.RRBs)
	}

	// A request no post-admission ledger state can fit at all is rejected
	// permanently: drain the RRBs below every demand and re-offer B.
	led2 := NewBSLedger([]int{100, 100, 100}, a.RRBs)
	verdicts, err = DefaultConfig().SelectRound(led2, []Request{a, b}, &sc)
	if err != nil {
		t.Fatalf("SelectRound: %v", err)
	}
	if v := verdicts[1]; v.Accepted || !v.Permanent {
		t.Errorf("verdicts[1] = %+v, want permanent reject of unfittable UE 1", v)
	}
}

// TestSelectRoundEmptyAndBSLedgerReset covers the bookkeeping edges: an
// empty inbox yields no verdicts, and Reset rewinds a ledger in place.
func TestSelectRoundEmptyAndBSLedgerReset(t *testing.T) {
	led := NewBSLedger([]int{5}, 7)
	var sc SelectScratch
	verdicts, err := DefaultConfig().SelectRound(led, nil, &sc)
	if err != nil || len(verdicts) != 0 {
		t.Fatalf("empty round: verdicts=%v err=%v", verdicts, err)
	}
	if err := led.Admit(Request{Service: 0, CRUs: 2, RRBs: 3}); err != nil {
		t.Fatalf("admit: %v", err)
	}
	led.Reset([]int{5}, 7)
	if remCRU, remRRBs := led.Residual(0); remCRU != 5 || remRRBs != 7 {
		t.Fatalf("after Reset: remCRU=%d remRRBs=%d, want 5 and 7", remCRU, remRRBs)
	}
}

// TestSelectKeyMatchesPrefers pins the arena's integer BS-preference key
// to prefers under every ablation combination: ordering by (selectKey,
// UE) must equal prefers over the CSR's non-negative int32 domain, on
// random requests and at the field boundaries where a packed key would
// overflow into its neighbour.
func TestSelectKeyMatchesPrefers(t *testing.T) {
	const maxI = math.MaxInt32
	edges := []int{0, 1, 2, maxI/2 - 1, maxI / 2, maxI - 1, maxI}
	src := rng.New(5).SplitLabeled("select-key-test")
	field := func() int {
		if src.Intn(2) == 0 {
			return edges[src.Intn(len(edges))]
		}
		return src.Intn(4)
	}
	draw := func() Request {
		return Request{
			UE:     mec.UEID(src.Intn(6)),
			SameSP: src.Intn(2) == 0,
			Fu:     field(),
			RRBs:   field(),
			CRUs:   field(),
		}
	}
	boundary := [][2]Request{
		// Footprints near 2·MaxInt32, one apart.
		{{UE: 1, RRBs: maxI, CRUs: maxI}, {UE: 2, RRBs: maxI, CRUs: maxI - 1}},
		{{UE: 1, RRBs: maxI, CRUs: maxI}, {UE: 2, RRBs: maxI - 1, CRUs: maxI}},
		// The largest footprint against the next f_u up, and f_u at
		// MaxInt32 against the next same-SP flag.
		{{UE: 1, Fu: 0, RRBs: maxI, CRUs: maxI}, {UE: 2, Fu: 1}},
		{{UE: 1, Fu: maxI, RRBs: maxI, CRUs: maxI, SameSP: true}, {UE: 2, Fu: 0}},
		{{UE: 1, Fu: maxI}, {UE: 2, Fu: maxI - 1}},
		// Equal footprints from different splits: the UE decides.
		{{UE: 7, RRBs: 5, CRUs: 9}, {UE: 3, RRBs: 9, CRUs: 5}},
		{{UE: 7, RRBs: maxI, CRUs: 0}, {UE: 3, RRBs: 0, CRUs: maxI}},
		// Equal in everything but the UE ID.
		{{UE: 4, Fu: maxI, RRBs: maxI, CRUs: maxI, SameSP: true}, {UE: 5, Fu: maxI, RRBs: maxI, CRUs: maxI, SameSP: true}},
		{{UE: 4, Fu: 3, RRBs: 2, CRUs: 1}, {UE: 5, Fu: 3, RRBs: 2, CRUs: 1}},
	}
	for _, cfg := range []Config{
		{SPPriority: true, FuTieBreak: true},
		{SPPriority: true, FuTieBreak: false},
		{SPPriority: false, FuTieBreak: true},
		{SPPriority: false, FuTieBreak: false},
	} {
		less := func(a, b Request) bool {
			ka := cfg.selectKey(a.SameSP, int32(a.Fu), int32(a.RRBs), int32(a.CRUs))
			kb := cfg.selectKey(b.SameSP, int32(b.Fu), int32(b.RRBs), int32(b.CRUs))
			return ka < kb || (ka == kb && a.UE < b.UE)
		}
		check := func(a, b Request) {
			t.Helper()
			if got, want := less(a, b), cfg.prefers(a, b); got != want {
				t.Fatalf("cfg %+v: key order says %+v before %+v is %v, prefers says %v", cfg, a, b, got, want)
			}
		}
		for trial := 0; trial < 20000; trial++ {
			a, b := draw(), draw()
			check(a, b)
			check(b, a)
		}
		for _, p := range boundary {
			for _, same := range [][2]bool{{false, false}, {true, false}, {false, true}, {true, true}} {
				a, b := p[0], p[1]
				a.SameSP, b.SameSP = same[0], same[1]
				check(a, b)
				check(b, a)
			}
		}
	}
}
