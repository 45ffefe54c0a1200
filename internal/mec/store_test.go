package mec_test

import (
	"fmt"
	"math"
	"runtime"
	"slices"
	"strings"
	"testing"

	"dmra/internal/mec"
	"dmra/internal/radio"
	"dmra/internal/workload"
)

// literalLink prices one link with the radio chain written out in the
// standard library's math.Pow and math.Log2 — Eq. 18 path loss, linear
// SINR, Eq. 2 rate, Eq. 3 RRB count — rather than through the radio
// package's kernel, so a kernel that drifts from the literal chain by
// one bit fails the comparison. ok is false for a rate-unreachable link.
func literalLink(rc radio.Config, d, rateBps, shadowDB float64) (sinr float64, rrbs int, ok bool) {
	dc := max(d, rc.MinDistanceM)
	noise := rc.NoiseDBm
	if rc.NoisePerHz {
		noise = rc.NoiseDBm + 10*math.Log10(rc.RRBBandwidthHz)
	}
	pl := 140.7 + 36.7*math.Log10(dc/1000)
	sinr = math.Pow(10, (rc.TxPowerDBm-pl-shadowDB-noise-rc.InterferenceMarginDB)/10)
	e := rc.RRBBandwidthHz * math.Log2(1+sinr)
	if e <= 0 {
		return sinr, 0, false
	}
	return sinr, int(math.Ceil(rateBps / e)), true
}

// bruteLinks recomputes UE u's candidate list with the all-pairs scan the
// grid-indexed build replaced, pricing each link through literalLink.
// The store must match it exactly.
func bruteLinks(n *mec.Network, u int) []mec.Link {
	ue := &n.UEs[u]
	var out []mec.Link
	for b := range n.BSs {
		bs := &n.BSs[b]
		if !bs.Hosts(ue.Service) {
			continue
		}
		d := ue.Pos.DistanceTo(bs.Pos)
		if !n.Radio.Covers(d) {
			continue
		}
		sinr, rrbs, ok := literalLink(n.Radio, d, ue.RateBps, n.Radio.ShadowDB(u, b))
		if !ok || rrbs > bs.MaxRRBs {
			continue
		}
		out = append(out, mec.Link{
			UE:          mec.UEID(u),
			BS:          mec.BSID(b),
			DistanceM:   d,
			RRBs:        rrbs,
			PricePerCRU: n.PricePerCRU(ue.SP == bs.SP, d),
			SameSP:      ue.SP == bs.SP,
			SINR:        sinr,
		})
	}
	return out
}

// checkStore compares every column of net's candidate store, the per-UE
// and per-BS rows included, against the brute-force scan.
func checkStore(t *testing.T, net *mec.Network) {
	t.Helper()
	c := net.Dense()
	off := []int32{0}
	for u := range net.UEs {
		want := bruteLinks(net, u)
		lo, hi := net.CandRange(mec.UEID(u))
		if int(hi-lo) != len(want) || c.Fu[u] != int32(len(want)) {
			t.Fatalf("UE %d: %d candidates, f_u %d; brute force found %d", u, hi-lo, c.Fu[u], len(want))
		}
		for i, l := range want {
			if got := net.LinkAt(mec.UEID(u), lo+int32(i)); got != l {
				t.Fatalf("UE %d candidate %d differs:\n got %+v\nwant %+v", u, i, got, l)
			}
		}
		if c.Service[u] != int32(net.UEs[u].Service) || c.CRU[u] != int32(net.UEs[u].CRUDemand) {
			t.Fatalf("UE %d: service/demand row %d/%d, want %d/%d",
				u, c.Service[u], c.CRU[u], net.UEs[u].Service, net.UEs[u].CRUDemand)
		}
		off = append(off, off[u]+int32(len(want)))
	}
	if !slices.Equal(c.Off, off) {
		t.Fatalf("offsets %v, want %v", c.Off, off)
	}
	links := int(off[len(off)-1])
	for name, n := range map[string]int{"BS": len(c.BS), "RRBs": len(c.RRBs), "Price": len(c.Price),
		"SameSP": len(c.SameSP), "DistanceM": len(c.DistanceM), "SINR": len(c.SINR)} {
		if n != links {
			t.Fatalf("column %s holds %d candidates, want %d", name, n, links)
		}
	}
	if c.Services != net.Services || c.BSs() != len(net.BSs) {
		t.Fatalf("store shape %d services x %d BSs, want %d x %d", c.Services, c.BSs(), net.Services, len(net.BSs))
	}
	for b := range net.BSs {
		for j, cap := range net.BSs[b].CRUCapacity {
			if c.CRURow(mec.BSID(b))[j] != int32(cap) {
				t.Fatalf("BS %d service %d: capacity row %d, want %d", b, j, c.CRURow(mec.BSID(b))[j], cap)
			}
		}
		if c.MaxRRB[b] != int32(net.BSs[b].MaxRRBs) {
			t.Fatalf("BS %d: RRB row %d, want %d", b, c.MaxRRB[b], net.BSs[b].MaxRRBs)
		}
	}
}

// atProcs runs fn once at GOMAXPROCS 1 and once at 2, restoring the
// setting afterwards.
func atProcs(t *testing.T, fn func(t *testing.T)) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, p := range []int{1, 2} {
		runtime.GOMAXPROCS(p)
		t.Run(fmt.Sprintf("procs%d", p), fn)
	}
}

// TestBuildLinksMatchesBruteForce pins the grid-indexed, chunk-parallel
// store build to the all-pairs reference, column by column, at
// GOMAXPROCS 1 and 2: over random scenarios (the chunks case spans
// several build chunks and two workers) and over the generator shapes
// of the parity harness's fuzz corpus seeds.
func TestBuildLinksMatchesBruteForce(t *testing.T) {
	cases := []struct {
		name     string
		seed     uint64
		nUE, nBS int
		shadow   bool
	}{
		{"tiny", 1, 3, 2, false},
		{"small", 2, 40, 9, false},
		{"shadowed", 3, 60, 12, true},
		{"parallel", 4, 700, 30, true},
		{"chunks", 6, 3000, 30, true},
		{"no-ues", 5, 0, 8, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			atProcs(t, func(t *testing.T) {
				net := mec.RandomScenarioForTest(t, tc.seed, tc.nUE, tc.nBS, tc.shadow)
				checkStore(t, net)
				if tc.nUE >= 40 && net.Dense().Links() == 0 {
					t.Fatal("scenario degenerate: no UE has any candidate")
				}
			})
		})
	}
	for _, seed := range []uint64{0, 1, 7, 11, 42, 99, 137, 1234, 5000} {
		t.Run(fmt.Sprintf("shape%d", seed), func(t *testing.T) {
			atProcs(t, func(t *testing.T) {
				net, err := workload.RandomShape(seed).Build(seed)
				if err != nil {
					t.Fatalf("build: %v", err)
				}
				checkStore(t, net)
			})
		})
	}
}

// TestBuildReturnsLowestIndexError prices far cross-SP links past the SP
// margin (Eq. 16) in a scenario big enough to build on two workers, with
// violations spread across the population, and requires the error of the
// lowest-index violating UE at GOMAXPROCS 1 and 2 alike.
func TestBuildReturnsLowestIndexError(t *testing.T) {
	const price = 4.78 // violated by cross-SP links beyond ~445 m
	cfg := workload.Default()
	cfg.UEs = 6000
	cfg.SPCRUPrice = price
	var got string
	atProcs(t, func(t *testing.T) {
		_, err := cfg.Build(3)
		if err == nil || !strings.Contains(err.Error(), "Eq. 16") {
			t.Fatalf("build error %v, want an Eq. 16 violation", err)
		}
		if got == "" {
			got = err.Error()
		} else if err.Error() != got {
			t.Fatalf("build error %q, want %q", err, got)
		}
	})
	// The brute-force scan's violations, in UE then BS order.
	cfg.SPCRUPrice = 100
	net, err := cfg.Build(3)
	if err != nil {
		t.Fatalf("build at a safe price: %v", err)
	}
	var first string
	last := -1
	for u := range net.UEs {
		for _, l := range bruteLinks(net, u) {
			if price <= l.PricePerCRU+cfg.SPOtherCost {
				if first == "" {
					first = fmt.Sprintf("p_{%d,%d}", l.BS, u)
				}
				last = u
			}
		}
	}
	if last < len(net.UEs)/2 {
		t.Fatalf("last violation at UE %d: too few for a parallel build to race past the first", last)
	}
	if !strings.Contains(got, first) {
		t.Fatalf("build error %q, want the first violation %s", got, first)
	}
}
