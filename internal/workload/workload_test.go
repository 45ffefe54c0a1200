package workload

import (
	"math"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
	"testing/quick"
	"time"

	"dmra/internal/geo"
	"dmra/internal/mec"
)

func TestDefaultValid(t *testing.T) {
	if err := Default().Validate(); err != nil {
		t.Fatalf("default config invalid: %v", err)
	}
}

func TestValidateRejectsBadConfigs(t *testing.T) {
	tests := []struct {
		name    string
		mutate  func(*Config)
		wantSub string
	}{
		{"no SPs", func(c *Config) { c.SPs = 0 }, "SPs"},
		{"no BSs", func(c *Config) { c.BSsPerSP = 0 }, "BSsPerSP"},
		{"no services", func(c *Config) { c.Services = 0 }, "Services"},
		{"too many per BS", func(c *Config) { c.ServicesPerBS = 99 }, "ServicesPerBS"},
		{"negative UEs", func(c *Config) { c.UEs = -1 }, "UEs"},
		{"bad area", func(c *Config) { c.AreaWidthM = 0 }, "area"},
		{"bad placement", func(c *Config) { c.Placement = "hexagonal" }, "placement"},
		{"bad inter-site", func(c *Config) { c.InterSiteM = 0 }, "inter-site"},
		{"bad CRU cap", func(c *Config) { c.CRUCapMax = c.CRUCapMin - 1 }, "capacity range"},
		{"bad CRU demand", func(c *Config) { c.CRUDemandMin = 0 }, "demand range"},
		{"bad rate", func(c *Config) { c.RateMinBps = 0 }, "rate range"},
		{"bad service dist", func(c *Config) { c.ServiceDist = "pareto" }, "service distribution"},
		{"bad zipf", func(c *Config) { c.ServiceDist = ServiceZipf; c.ZipfS = 0 }, "Zipf"},
		{"bad UE dist", func(c *Config) { c.UEDist = "ring" }, "UE distribution"},
		{"bad hotspot count", func(c *Config) { c.HotspotCount = 0 }, "hotspot count"},
		{"bad hotspot sigma", func(c *Config) { c.HotspotSigmaM = -5 }, "hotspot sigma"},
		{"bad hotspot fraction", func(c *Config) { c.HotspotFraction = 1.5 }, "hotspot fraction"},
		{"bad SP price", func(c *Config) { c.SPCRUPrice = 0 }, "CRU price"},
		{"bad SP cost", func(c *Config) { c.SPOtherCost = -1 }, "other cost"},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			c := Default()
			tt.mutate(&c)
			err := c.Validate()
			if err == nil {
				t.Fatal("expected validation error")
			}
			if !strings.Contains(err.Error(), tt.wantSub) {
				t.Fatalf("error %q does not mention %q", err, tt.wantSub)
			}
		})
	}
}

func TestBuildDefaultScenario(t *testing.T) {
	cfg := Default()
	cfg.UEs = 300
	net, err := cfg.Build(1)
	if err != nil {
		t.Fatal(err)
	}
	if got := len(net.SPs); got != 5 {
		t.Errorf("SPs = %d, want 5", got)
	}
	if got := len(net.BSs); got != 25 {
		t.Errorf("BSs = %d, want 25", got)
	}
	if got := len(net.UEs); got != 300 {
		t.Errorf("UEs = %d, want 300", got)
	}
	if got := net.Services; got != 6 {
		t.Errorf("services = %d, want 6", got)
	}
	// Each SP deploys exactly BSsPerSP BSs.
	perSP := make(map[mec.SPID]int)
	for _, bs := range net.BSs {
		perSP[bs.SP]++
	}
	for sp, n := range perSP {
		if n != 5 {
			t.Errorf("SP %d deploys %d BSs, want 5", sp, n)
		}
	}
	// Paper setup: every BS hosts all six services with c in [100,150].
	for _, bs := range net.BSs {
		for j, c := range bs.CRUCapacity {
			if c < 100 || c > 150 {
				t.Errorf("BS %d service %d capacity %d outside [100,150]", bs.ID, j, c)
			}
		}
		if bs.MaxRRBs != 55 {
			t.Errorf("BS %d has %d RRBs, want 55", bs.ID, bs.MaxRRBs)
		}
	}
	area := geo.NewArea(1200, 1200)
	for _, ue := range net.UEs {
		if ue.CRUDemand < 3 || ue.CRUDemand > 5 {
			t.Errorf("UE %d CRU demand %d outside [3,5]", ue.ID, ue.CRUDemand)
		}
		if ue.RateBps < 2e6 || ue.RateBps >= 6e6 {
			t.Errorf("UE %d rate %g outside [2,6) Mbps", ue.ID, ue.RateBps)
		}
		if !area.Contains(ue.Pos) {
			t.Errorf("UE %d at %v outside the area", ue.ID, ue.Pos)
		}
		if int(ue.Service) < 0 || int(ue.Service) >= 6 {
			t.Errorf("UE %d requests service %d", ue.ID, ue.Service)
		}
	}
}

func TestBuildDeterministic(t *testing.T) {
	cfg := Default()
	cfg.UEs = 100
	a, err := cfg.Build(42)
	if err != nil {
		t.Fatal(err)
	}
	b, err := cfg.Build(42)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.UEs {
		if a.UEs[i] != b.UEs[i] {
			t.Fatalf("UE %d differs across identical builds", i)
		}
	}
	for i := range a.BSs {
		if a.BSs[i].Pos != b.BSs[i].Pos || a.BSs[i].SP != b.BSs[i].SP {
			t.Fatalf("BS %d differs across identical builds", i)
		}
	}
}

func TestBuildSeedsDiffer(t *testing.T) {
	cfg := Default()
	cfg.UEs = 100
	a, _ := cfg.Build(1)
	b, _ := cfg.Build(2)
	same := 0
	for i := range a.UEs {
		if a.UEs[i].Pos == b.UEs[i].Pos {
			same++
		}
	}
	if same > 5 {
		t.Errorf("%d/100 identical UE positions across seeds", same)
	}
}

func TestUECountChangeKeepsBSLayout(t *testing.T) {
	// Labeled RNG streams: growing the UE population must not perturb the
	// BS deployment for the same seed.
	cfg := Default()
	cfg.Placement = PlacementRandom
	cfg.UEs = 100
	a, _ := cfg.Build(9)
	cfg.UEs = 500
	b, _ := cfg.Build(9)
	for i := range a.BSs {
		if a.BSs[i].Pos != b.BSs[i].Pos {
			t.Fatalf("BS %d moved when UE count changed", i)
		}
		for j := range a.BSs[i].CRUCapacity {
			if a.BSs[i].CRUCapacity[j] != b.BSs[i].CRUCapacity[j] {
				t.Fatalf("BS %d capacity changed when UE count changed", i)
			}
		}
	}
	// The first 100 UEs should also be identical.
	for i := 0; i < 100; i++ {
		if a.UEs[i] != b.UEs[i] {
			t.Fatalf("UE %d changed when population grew", i)
		}
	}
}

func TestRegularPlacementGrid(t *testing.T) {
	cfg := Default()
	cfg.UEs = 1
	net, err := cfg.Build(1)
	if err != nil {
		t.Fatal(err)
	}
	var pts []geo.Point
	for _, bs := range net.BSs {
		pts = append(pts, bs.Pos)
	}
	if d := geo.MinPairwiseDistance(pts); math.Abs(d-300) > 1e-9 {
		t.Errorf("regular grid min spacing %v, want 300", d)
	}
}

func TestRegularOwnershipDispersed(t *testing.T) {
	// Latin-square ownership: no two same-SP BSs may be grid neighbours.
	cfg := Default()
	cfg.UEs = 1
	net, _ := cfg.Build(1)
	for i := range net.BSs {
		for j := i + 1; j < len(net.BSs); j++ {
			if net.BSs[i].SP != net.BSs[j].SP {
				continue
			}
			d := net.BSs[i].Pos.DistanceTo(net.BSs[j].Pos)
			if d < 301 {
				t.Fatalf("same-SP BSs %d and %d only %.0f m apart", i, j, d)
			}
		}
	}
}

func TestRandomPlacementInsideArea(t *testing.T) {
	cfg := Default()
	cfg.Placement = PlacementRandom
	cfg.UEs = 10
	net, err := cfg.Build(4)
	if err != nil {
		t.Fatal(err)
	}
	area := geo.NewArea(1200, 1200)
	for _, bs := range net.BSs {
		if !area.Contains(bs.Pos) {
			t.Errorf("BS %d at %v outside area", bs.ID, bs.Pos)
		}
	}
}

func TestHotspotPlacementClusters(t *testing.T) {
	// Hotspot UEs must be substantially more concentrated than uniform:
	// compare mean nearest-neighbour distances.
	cfgH := Default()
	cfgH.UEs = 400
	netH, err := cfgH.Build(3)
	if err != nil {
		t.Fatal(err)
	}
	cfgU := Default()
	cfgU.UEs = 400
	cfgU.UEDist = UEUniform
	netU, err := cfgU.Build(3)
	if err != nil {
		t.Fatal(err)
	}
	dh, du := dispersionIndex(netH.UEs), dispersionIndex(netU.UEs)
	if dh < 2*du {
		t.Errorf("hotspot dispersion index %v not clearly above uniform %v", dh, du)
	}
	if du > 3 {
		t.Errorf("uniform dispersion index %v, want ~1 (Poisson)", du)
	}
}

// dispersionIndex returns the variance-to-mean ratio of UE counts over an
// 8x8 grid of the 1200x1200 area: ~1 for a Poisson (uniform) pattern and
// substantially larger for clustered patterns.
func dispersionIndex(ues []mec.UE) float64 {
	const cells = 8
	counts := make([]int, cells*cells)
	for _, ue := range ues {
		cx := int(ue.Pos.X / (1200.0 / cells))
		cy := int(ue.Pos.Y / (1200.0 / cells))
		if cx >= cells {
			cx = cells - 1
		}
		if cy >= cells {
			cy = cells - 1
		}
		counts[cy*cells+cx]++
	}
	mean := float64(len(ues)) / float64(len(counts))
	variance := 0.0
	for _, c := range counts {
		variance += (float64(c) - mean) * (float64(c) - mean)
	}
	variance /= float64(len(counts))
	return variance / mean
}

func TestZipfSkewsServices(t *testing.T) {
	cfg := Default()
	cfg.UEs = 2000
	cfg.ServiceDist = ServiceZipf
	cfg.ZipfS = 1.2
	net, err := cfg.Build(5)
	if err != nil {
		t.Fatal(err)
	}
	counts := make([]int, cfg.Services)
	for _, ue := range net.UEs {
		counts[ue.Service]++
	}
	if counts[0] <= counts[cfg.Services-1] {
		t.Errorf("Zipf did not skew: service 0 has %d requests, last has %d",
			counts[0], counts[cfg.Services-1])
	}
	if counts[0] < 2*counts[cfg.Services-1] {
		t.Errorf("Zipf skew too weak: %v", counts)
	}
}

func TestUniformServicesBalanced(t *testing.T) {
	cfg := Default()
	cfg.UEs = 3000
	net, err := cfg.Build(5)
	if err != nil {
		t.Fatal(err)
	}
	counts := make([]int, cfg.Services)
	for _, ue := range net.UEs {
		counts[ue.Service]++
	}
	want := float64(cfg.UEs) / float64(cfg.Services)
	for j, c := range counts {
		if math.Abs(float64(c)-want) > 5*math.Sqrt(want) {
			t.Errorf("service %d requested %d times, want ~%.0f", j, c, want)
		}
	}
}

func TestSparseServiceHosting(t *testing.T) {
	cfg := Default()
	cfg.Services = 12
	cfg.ServicesPerBS = 4
	cfg.UEs = 10
	net, err := cfg.Build(6)
	if err != nil {
		t.Fatal(err)
	}
	for _, bs := range net.BSs {
		hosted := 0
		for j := 0; j < net.Services; j++ {
			if bs.Hosts(mec.ServiceID(j)) {
				hosted++
			}
		}
		if hosted != 4 {
			t.Errorf("BS %d hosts %d services, want 4", bs.ID, hosted)
		}
	}
}

func TestSaveLoadRoundTrip(t *testing.T) {
	cfg := Default()
	cfg.UEs = 123
	cfg.Placement = PlacementRandom
	path := filepath.Join(t.TempDir(), "scenario.json")
	if err := Save(cfg, path); err != nil {
		t.Fatal(err)
	}
	got, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if got != cfg {
		t.Fatalf("round trip mismatch:\n got %+v\nwant %+v", got, cfg)
	}
}

func TestLoadErrors(t *testing.T) {
	if _, err := Load(filepath.Join(t.TempDir(), "missing.json")); err == nil {
		t.Error("missing file accepted")
	}
	bad := filepath.Join(t.TempDir(), "bad.json")
	if err := Save(Default(), bad); err != nil {
		t.Fatal(err)
	}
	// Corrupt it.
	if err := Save(Config{}, bad); err != nil {
		t.Fatal(err)
	}
	if _, err := Load(bad); err == nil {
		t.Error("invalid config accepted on load")
	}
}

func TestQuickBuildAlwaysValid(t *testing.T) {
	f := func(seed uint64, uesRaw uint8, regular bool) bool {
		cfg := Default()
		cfg.UEs = int(uesRaw)
		if !regular {
			cfg.Placement = PlacementRandom
		}
		net, err := cfg.Build(seed)
		if err != nil {
			return false
		}
		return len(net.UEs) == int(uesRaw) && len(net.BSs) == 25
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestShadowingSeedDerivedFromBuildSeed(t *testing.T) {
	cfg := Default()
	cfg.UEs = 50
	cfg.Radio.ShadowingStdDB = 8
	a, err := cfg.Build(1)
	if err != nil {
		t.Fatal(err)
	}
	b, err := cfg.Build(2)
	if err != nil {
		t.Fatal(err)
	}
	if a.Radio.ShadowingSeed == b.Radio.ShadowingSeed {
		t.Fatal("shadowing seed did not follow the build seed")
	}
	// Same build seed reproduces the identical channel.
	a2, err := cfg.Build(1)
	if err != nil {
		t.Fatal(err)
	}
	if a.Dense().Links() != a2.Dense().Links() {
		t.Fatal("shadowed build not deterministic")
	}
	// An explicit seed is honoured.
	cfg.Radio.ShadowingSeed = 77
	c1, err := cfg.Build(1)
	if err != nil {
		t.Fatal(err)
	}
	if c1.Radio.ShadowingSeed != 77 {
		t.Fatalf("explicit shadowing seed overridden: %d", c1.Radio.ShadowingSeed)
	}
}

func TestShadowingChangesLinkSet(t *testing.T) {
	cfg := Default()
	cfg.UEs = 200
	plain, err := cfg.Build(3)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Radio.ShadowingStdDB = 8
	shadowed, err := cfg.Build(3)
	if err != nil {
		t.Fatal(err)
	}
	// Same link counts are possible, but the RRB demands must differ
	// somewhere.
	p, q := plain.Dense(), shadowed.Dense()
	if slices.Equal(p.Off, q.Off) && slices.Equal(p.RRBs, q.RRBs) {
		t.Fatal("8 dB shadowing left every link untouched")
	}
}

func TestHexPlacementScenario(t *testing.T) {
	cfg := Default()
	cfg.Placement = PlacementHex
	cfg.UEs = 200
	net, err := cfg.Build(1)
	if err != nil {
		t.Fatal(err)
	}
	var pts []geo.Point
	for _, bs := range net.BSs {
		pts = append(pts, bs.Pos)
	}
	if d := geo.MinPairwiseDistance(pts); math.Abs(d-300) > 1e-9 {
		t.Errorf("hex min spacing %v, want 300", d)
	}
	// Ownership stays dispersed under the hex layout too.
	perSP := make(map[mec.SPID]int)
	for _, bs := range net.BSs {
		perSP[bs.SP]++
	}
	for sp, n := range perSP {
		if n != 5 {
			t.Errorf("SP %d owns %d sites, want 5", sp, n)
		}
	}
}

// TestLoadRejectsUnknownFields is the strict-decoding regression test:
// a typo'd key must fail the load, not silently leave the default in
// place (Load previously used plain json.Unmarshal, which ignores
// unknown keys).
func TestLoadRejectsUnknownFields(t *testing.T) {
	path := filepath.Join(t.TempDir(), "scenario.json")
	if err := Save(Default(), path); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Misspell "bssPerSP" the way a hand-edit plausibly would.
	bad := strings.Replace(string(data), `"bssPerSP"`, `"bsPerSP"`, 1)
	if bad == string(data) {
		t.Fatal("fixture key not found")
	}
	if err := os.WriteFile(path, []byte(bad), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Load(path); err == nil {
		t.Fatal(`Load accepted misspelled key "bsPerSP"`)
	} else if !strings.Contains(err.Error(), "bsPerSP") {
		t.Errorf("error %q does not name the offending key", err)
	}
}

func TestBuildWithDemandOverrides(t *testing.T) {
	cfg := Default()
	cfg.UEs = 100
	ranges := []DemandRange{
		{Start: 20, Count: 30, CRUDemandMin: 9, CRUDemandMax: 9},
		{Start: 70, Count: 10, RateMinBps: 5e6, RateMaxBps: 5e6},
	}
	base, err := cfg.Build(1)
	if err != nil {
		t.Fatal(err)
	}
	net, err := cfg.BuildWithDemand(1, ranges)
	if err != nil {
		t.Fatal(err)
	}
	for u, ue := range net.UEs {
		switch {
		case u >= 20 && u < 50:
			if ue.CRUDemand != 9 {
				t.Errorf("UE %d CRUDemand = %d, want overridden 9", u, ue.CRUDemand)
			}
			// Rate bounds untouched by a CRU-only override.
			if ue.RateBps != base.UEs[u].RateBps {
				t.Errorf("UE %d rate changed under a CRU-only override", u)
			}
		case u >= 70 && u < 80:
			if ue.RateBps != 5e6 {
				t.Errorf("UE %d RateBps = %g, want overridden 5e6", u, ue.RateBps)
			}
			if ue.CRUDemand != base.UEs[u].CRUDemand {
				t.Errorf("UE %d CRU demand changed under a rate-only override", u)
			}
		default:
			// Uncovered UEs must be byte-identical to the plain build:
			// overrides consume the same randomness as the defaults.
			if ue != base.UEs[u] {
				t.Errorf("UE %d outside every override differs from Build:\n got %+v\nwant %+v", u, ue, base.UEs[u])
			}
		}
		// Overrides never perturb position or service draws.
		if ue.Pos != base.UEs[u].Pos || ue.Service != base.UEs[u].Service || ue.SP != base.UEs[u].SP {
			t.Errorf("UE %d placement/service drifted under overrides", u)
		}
	}
}

func TestBuildWithDemandRejections(t *testing.T) {
	cfg := Default()
	cfg.UEs = 100
	for name, ranges := range map[string][]DemandRange{
		"out of bounds": {{Start: 90, Count: 20, CRUDemandMin: 1, CRUDemandMax: 2}},
		"overlapping": {
			{Start: 0, Count: 50, CRUDemandMin: 1, CRUDemandMax: 2},
			{Start: 40, Count: 20, CRUDemandMin: 1, CRUDemandMax: 2}},
		"unsorted": {
			{Start: 50, Count: 10, CRUDemandMin: 1, CRUDemandMax: 2},
			{Start: 0, Count: 10, CRUDemandMin: 1, CRUDemandMax: 2}},
		"empty":         {{Start: 0, Count: 0, CRUDemandMin: 1, CRUDemandMax: 2}},
		"inverted CRU":  {{Start: 0, Count: 10, CRUDemandMin: 5, CRUDemandMax: 2}},
		"half-set CRU":  {{Start: 0, Count: 10, CRUDemandMax: 5}},
		"half-set rate": {{Start: 0, Count: 10, RateMinBps: 1e6}},
	} {
		if _, err := cfg.BuildWithDemand(1, ranges); err == nil {
			t.Errorf("%s ranges accepted", name)
		}
	}
}

// TestBuildRejectsNonFinite is the regression for non-finite scenario
// values. A NaN area width hung Build in the BS grid's coarsening loop,
// a NaN coverage radius panicked in geo, and a NaN shadowing std or min
// distance built every link with a NaN SINR and zero RRBs, no error.
// Each must now fail validation, and promptly.
func TestBuildRejectsNonFinite(t *testing.T) {
	nan, inf := math.NaN(), math.Inf(1)
	cases := map[string]func(*Config){
		"area-width-nan":       func(c *Config) { c.AreaWidthM = nan },
		"area-height-inf":      func(c *Config) { c.AreaHeightM = inf },
		"inter-site-nan":       func(c *Config) { c.InterSiteM = nan },
		"coverage-nan":         func(c *Config) { c.Radio.CoverageRadiusM = nan },
		"shadowing-nan":        func(c *Config) { c.Radio.ShadowingStdDB = nan },
		"min-distance-nan":     func(c *Config) { c.Radio.MinDistanceM = nan },
		"tx-power-inf":         func(c *Config) { c.Radio.TxPowerDBm = inf },
		"rate-max-inf":         func(c *Config) { c.RateMaxBps = inf },
		"hotspot-sigma-nan":    func(c *Config) { c.HotspotSigmaM = nan },
		"hotspot-fraction-nan": func(c *Config) { c.HotspotFraction = nan },
		"sp-price-nan":         func(c *Config) { c.SPCRUPrice = nan },
		"base-price-nan":       func(c *Config) { c.Pricing.BasePrice = nan },
		"sigma-inf":            func(c *Config) { c.Pricing.DistanceSigma = inf },
	}
	for name, mutate := range cases {
		t.Run(name, func(t *testing.T) {
			c := Default()
			mutate(&c)
			done := make(chan error, 1)
			go func() {
				_, err := c.Build(1)
				done <- err
			}()
			select {
			case err := <-done:
				if err == nil {
					t.Fatal("Build accepted the non-finite value")
				}
			case <-time.After(5 * time.Second):
				t.Fatal("Build did not return within 5 s")
			}
		})
	}
}
