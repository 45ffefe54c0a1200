// Package workload builds experiment scenarios: base-station deployments,
// UE populations, and their service demands, parameterized exactly as the
// paper's §VI simulation setup and generated deterministically from a
// 64-bit seed.
package workload

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"

	"dmra/internal/geo"
	"dmra/internal/mec"
	"dmra/internal/radio"
	"dmra/internal/rng"
)

// Placement selects the BS deployment strategy of §VI-A.
type Placement string

// Supported placements.
const (
	// PlacementRegular lays BSs on a square lattice with InterSiteM
	// spacing ("BSs are placed regularly, with the inter-site distance
	// being 300 meters").
	PlacementRegular Placement = "regular"
	// PlacementRandom scatters BSs uniformly in the area ("BSs are placed
	// randomly in a 1200m x 1200m rectangle").
	PlacementRandom Placement = "random"
	// PlacementHex lays BSs on a hexagonal lattice, the canonical cellular
	// deployment (an extension beyond the paper's two placements).
	PlacementHex Placement = "hex"
)

// UEDist selects how UE positions are drawn.
type UEDist string

// Supported UE placement distributions.
const (
	// UEUniform scatters UEs uniformly over the area.
	UEUniform UEDist = "uniform"
	// UEHotspot places HotspotFraction of the UEs in Gaussian clusters
	// around HotspotCount uniformly-drawn centres (std HotspotSigmaM) and
	// the rest uniformly. This models the dense-urban load imbalance the
	// paper's §VI narrative implies ("the resources in nearby BSs are not
	// enough" while other BSs have spare capacity); see DESIGN.md.
	UEHotspot UEDist = "hotspot"
)

// ServiceDist selects how UEs pick which service they request.
type ServiceDist string

// Supported service-request distributions.
const (
	// ServiceUniform requests every service with equal probability (the
	// paper's "UEs with a variety of different service requests").
	ServiceUniform ServiceDist = "uniform"
	// ServiceZipf skews requests towards low-numbered services with
	// exponent ZipfS, modelling a popularity-skewed service catalogue.
	ServiceZipf ServiceDist = "zipf"
)

// Config is a full scenario description. It is JSON-serializable so
// scenarios can be stored beside their results.
type Config struct {
	// SPs is |ς| and BSsPerSP how many BSs each SP deploys.
	SPs      int `json:"sps"`
	BSsPerSP int `json:"bssPerSP"`
	// Services is |S|; ServicesPerBS how many of them each BS hosts
	// (chosen uniformly at random per BS when smaller than Services).
	Services      int `json:"services"`
	ServicesPerBS int `json:"servicesPerBS"`
	// UEs is |U|.
	UEs int `json:"ues"`

	AreaWidthM  float64   `json:"areaWidthM"`
	AreaHeightM float64   `json:"areaHeightM"`
	Placement   Placement `json:"placement"`
	// InterSiteM is the lattice spacing for PlacementRegular.
	InterSiteM float64 `json:"interSiteM"`

	// CRUCapMin..Max bound c_{i,j} (paper: 100-150).
	CRUCapMin int `json:"cruCapMin"`
	CRUCapMax int `json:"cruCapMax"`
	// CRUDemandMin..Max bound c_j^u (paper: 3-5).
	CRUDemandMin int `json:"cruDemandMin"`
	CRUDemandMax int `json:"cruDemandMax"`
	// RateMinBps..Max bound w_u (paper: 2-6 Mbps).
	RateMinBps float64 `json:"rateMinBps"`
	RateMaxBps float64 `json:"rateMaxBps"`

	ServiceDist ServiceDist `json:"serviceDist"`
	// ZipfS is the Zipf exponent for ServiceZipf.
	ZipfS float64 `json:"zipfS"`

	// UEDist selects the UE placement distribution.
	UEDist UEDist `json:"ueDist"`
	// HotspotCount, HotspotSigmaM and HotspotFraction parameterize
	// UEHotspot placement.
	HotspotCount    int     `json:"hotspotCount"`
	HotspotSigmaM   float64 `json:"hotspotSigmaM"`
	HotspotFraction float64 `json:"hotspotFraction"`

	// SPCRUPrice is m_k and SPOtherCost m_k^o (identical across SPs, as
	// the paper treats them as constants).
	SPCRUPrice  float64 `json:"spCRUPrice"`
	SPOtherCost float64 `json:"spOtherCost"`

	Radio   radio.Config `json:"radio"`
	Pricing mec.Pricing  `json:"pricing"`
}

// Default returns the paper's §VI parameterization: 5 SPs x 5 BSs, 6
// services all hosted by every BS, 1200 m x 1200 m area, 300 m grid,
// c_{i,j} in [100,150], c_j^u in [3,5], w_u in [2,6] Mbps, sigma = 0.01,
// iota = 2 (the Fig. 2 default), and the radio defaults of
// radio.DefaultConfig.
func Default() Config {
	return Config{
		SPs:             5,
		BSsPerSP:        5,
		Services:        6,
		ServicesPerBS:   6,
		UEs:             600,
		AreaWidthM:      1200,
		AreaHeightM:     1200,
		Placement:       PlacementRegular,
		InterSiteM:      300,
		CRUCapMin:       100,
		CRUCapMax:       150,
		CRUDemandMin:    3,
		CRUDemandMax:    5,
		RateMinBps:      2e6,
		RateMaxBps:      6e6,
		ServiceDist:     ServiceUniform,
		ZipfS:           1.0,
		UEDist:          UEHotspot,
		HotspotCount:    5,
		HotspotSigmaM:   120,
		HotspotFraction: 0.75,
		SPCRUPrice:      6,
		SPOtherCost:     1,
		Radio:           defaultRadio(),
		Pricing: mec.Pricing{
			BasePrice:     1,
			CrossSPFactor: 2,
			DistanceSigma: 0.004,
			Law:           mec.DistanceLinear,
		},
	}
}

// DenseCity returns the rush-hour dense-city scenario shared by the
// hot-path benchmarks and examples/densecity: hotspot-clustered demand
// (three tight 100 m-sigma hotspots holding 90% of the UEs) and Zipf
// service popularity over the default 5-SP grid. Scale it for the 100k
// and million-UE benchmark rungs.
func DenseCity() Config {
	c := Default()
	c.UEs = 1100
	c.UEDist = UEHotspot
	c.HotspotCount = 3
	c.HotspotSigmaM = 100
	c.HotspotFraction = 0.9
	c.ServiceDist = ServiceZipf
	c.ZipfS = 1.1
	return c
}

// Scale returns a copy of the config grown by an integer edge factor s
// at constant density: SP count, BSs per SP, and both area edges scale
// by s, so the BS grid keeps its inter-site spacing; UEs and hotspot
// count scale by s² so per-cell load and per-hotspot population stay
// what the base scenario calibrated. A scale-k city is therefore k²
// copies of the base city's local matching problem, which is exactly
// what the million-UE benchmarks need: bigger, not qualitatively
// different.
func (c Config) Scale(s int) Config {
	if s <= 1 {
		return c
	}
	c.SPs *= s
	c.BSsPerSP *= s
	c.AreaWidthM *= float64(s)
	c.AreaHeightM *= float64(s)
	c.UEs *= s * s
	c.HotspotCount *= s * s
	return c
}

// RandomShape derives a random but valid scenario shape from a seed,
// exercising corners the figure scenarios never touch: tiny SP counts,
// sparse services, Zipf skew, uniform and hotspot placement, narrow
// coverage, both pricing laws, shadowing, and CRU capacities tight
// enough to bind. The differential parity harness, the engine tests and
// the store's build test all draw their scenarios from it; build the
// shape with the same seed.
func RandomShape(seed uint64) Config {
	src := rng.New(seed).SplitLabeled("fuzz-shape")
	cfg := Default()
	cfg.SPs = src.IntBetween(1, 5)
	cfg.BSsPerSP = src.IntBetween(1, 6)
	cfg.Services = src.IntBetween(1, 8)
	cfg.ServicesPerBS = src.IntBetween(1, cfg.Services)
	cfg.UEs = src.IntBetween(0, 120)
	cfg.Radio.CoverageRadiusM = src.FloatBetween(150, 500)
	if src.Float64() < 0.3 {
		cfg.Placement = PlacementRandom
	} else if src.Float64() < 0.3 {
		cfg.Placement = PlacementHex
	}
	if src.Float64() < 0.5 {
		cfg.UEDist = UEUniform
	}
	if src.Float64() < 0.3 {
		cfg.ServiceDist = ServiceZipf
		cfg.ZipfS = src.FloatBetween(0.5, 2)
	}
	if src.Float64() < 0.3 {
		cfg.Pricing.Law = mec.DistancePower
		cfg.Pricing.DistanceSigma = 0.01
	}
	if src.Float64() < 0.3 {
		cfg.Radio.ShadowingStdDB = src.FloatBetween(2, 10)
	}
	// Half the shapes get tight CRU capacities so Eq. 12 binds as well
	// as Eq. 14; drawn last, so every earlier parameter keeps its value.
	if src.Float64() < 0.5 {
		cfg.CRUCapMin = src.IntBetween(5, 20)
		cfg.CRUCapMax = cfg.CRUCapMin + src.IntBetween(0, 20)
	}
	// Keep Eq. 16 satisfiable under the worst-case candidate price.
	cfg.SPCRUPrice = 12
	return cfg
}

// defaultRadio is radio.DefaultConfig plus the 20 dB inter-cell
// interference margin DESIGN.md calibrates for the dense deployment.
func defaultRadio() radio.Config {
	rc := radio.DefaultConfig()
	rc.InterferenceMarginDB = 20
	return rc
}

// Validate reports the first invalid configuration field. Every float
// field must be finite: a NaN passes the ordered comparisons below
// unnoticed, and a NaN area extent once spun the BS grid build forever.
func (c Config) Validate() error {
	for _, f := range []struct {
		name string
		v    float64
	}{
		{"area width", c.AreaWidthM}, {"area height", c.AreaHeightM}, {"inter-site distance", c.InterSiteM},
		{"min rate", c.RateMinBps}, {"max rate", c.RateMaxBps}, {"Zipf exponent", c.ZipfS},
		{"hotspot sigma", c.HotspotSigmaM}, {"hotspot fraction", c.HotspotFraction},
		{"SP CRU price", c.SPCRUPrice}, {"SP other cost", c.SPOtherCost},
	} {
		if math.IsNaN(f.v) || math.IsInf(f.v, 0) {
			return fmt.Errorf("workload: %s %g, want finite", f.name, f.v)
		}
	}
	switch {
	case c.SPs <= 0:
		return fmt.Errorf("workload: SPs = %d, want > 0", c.SPs)
	case c.BSsPerSP <= 0:
		return fmt.Errorf("workload: BSsPerSP = %d, want > 0", c.BSsPerSP)
	case c.Services <= 0:
		return fmt.Errorf("workload: Services = %d, want > 0", c.Services)
	case c.ServicesPerBS <= 0 || c.ServicesPerBS > c.Services:
		return fmt.Errorf("workload: ServicesPerBS = %d, want in [1,%d]", c.ServicesPerBS, c.Services)
	case c.UEs < 0:
		return fmt.Errorf("workload: UEs = %d, want >= 0", c.UEs)
	case c.AreaWidthM <= 0 || c.AreaHeightM <= 0:
		return fmt.Errorf("workload: area %gx%g, want positive", c.AreaWidthM, c.AreaHeightM)
	case c.Placement != PlacementRegular && c.Placement != PlacementRandom && c.Placement != PlacementHex:
		return fmt.Errorf("workload: unknown placement %q", c.Placement)
	case (c.Placement == PlacementRegular || c.Placement == PlacementHex) && c.InterSiteM <= 0:
		return fmt.Errorf("workload: inter-site distance %g, want positive", c.InterSiteM)
	case c.CRUCapMin <= 0 || c.CRUCapMax < c.CRUCapMin:
		return fmt.Errorf("workload: CRU capacity range [%d,%d] invalid", c.CRUCapMin, c.CRUCapMax)
	case c.CRUDemandMin <= 0 || c.CRUDemandMax < c.CRUDemandMin:
		return fmt.Errorf("workload: CRU demand range [%d,%d] invalid", c.CRUDemandMin, c.CRUDemandMax)
	case c.RateMinBps <= 0 || c.RateMaxBps < c.RateMinBps:
		return fmt.Errorf("workload: rate range [%g,%g] invalid", c.RateMinBps, c.RateMaxBps)
	case c.ServiceDist != ServiceUniform && c.ServiceDist != ServiceZipf:
		return fmt.Errorf("workload: unknown service distribution %q", c.ServiceDist)
	case c.ServiceDist == ServiceZipf && c.ZipfS <= 0:
		return fmt.Errorf("workload: Zipf exponent %g, want positive", c.ZipfS)
	case c.UEDist != UEUniform && c.UEDist != UEHotspot:
		return fmt.Errorf("workload: unknown UE distribution %q", c.UEDist)
	case c.UEDist == UEHotspot && c.HotspotCount <= 0:
		return fmt.Errorf("workload: hotspot count %d, want positive", c.HotspotCount)
	case c.UEDist == UEHotspot && c.HotspotSigmaM <= 0:
		return fmt.Errorf("workload: hotspot sigma %g, want positive", c.HotspotSigmaM)
	case c.UEDist == UEHotspot && (c.HotspotFraction < 0 || c.HotspotFraction > 1):
		return fmt.Errorf("workload: hotspot fraction %g, want in [0,1]", c.HotspotFraction)
	case c.SPCRUPrice <= 0:
		return fmt.Errorf("workload: SP CRU price %g, want positive", c.SPCRUPrice)
	case c.SPOtherCost < 0:
		return fmt.Errorf("workload: SP other cost %g, want non-negative", c.SPOtherCost)
	}
	if err := c.Radio.Validate(); err != nil {
		return err
	}
	return c.Pricing.Validate()
}

// DemandRange overrides the demand-draw ranges for one contiguous slice
// of the UE profile population — the per-cohort demand distributions of
// a dynamic workload. Zero-valued bounds keep the scenario's own range,
// so a cohort can override CRU demand, rate demand, both, or neither.
type DemandRange struct {
	// Start and Count delimit the UE IDs [Start, Start+Count) covered.
	Start, Count int
	// CRUDemandMin/Max, when non-zero, replace Config.CRUDemandMin/Max.
	CRUDemandMin, CRUDemandMax int
	// RateMinBps/Max, when non-zero, replace Config.RateMinBps/Max.
	RateMinBps, RateMaxBps float64
}

// validateDemandRanges rejects overlapping, out-of-bounds, or inverted
// override ranges.
func (c Config) validateDemandRanges(ranges []DemandRange) error {
	next := 0
	for i, r := range ranges {
		switch {
		case r.Start < next || r.Count <= 0 || r.Start+r.Count > c.UEs:
			return fmt.Errorf("workload: demand range %d [%d,%d) invalid over %d UEs (ranges must be sorted and disjoint)",
				i, r.Start, r.Start+r.Count, c.UEs)
		case (r.CRUDemandMin == 0) != (r.CRUDemandMax == 0) || r.CRUDemandMin < 0 || (r.CRUDemandMax != 0 && r.CRUDemandMax < r.CRUDemandMin):
			return fmt.Errorf("workload: demand range %d CRU bounds [%d,%d] invalid", i, r.CRUDemandMin, r.CRUDemandMax)
		case (r.RateMinBps == 0) != (r.RateMaxBps == 0) || r.RateMinBps < 0 || (r.RateMaxBps != 0 && r.RateMaxBps < r.RateMinBps):
			return fmt.Errorf("workload: demand range %d rate bounds [%g,%g] invalid", i, r.RateMinBps, r.RateMaxBps)
		}
		next = r.Start + r.Count
	}
	return nil
}

// Build generates the scenario deterministically from seed. Independent
// labeled RNG streams drive placement, capacities, and UE demands, so e.g.
// changing the UE count leaves BS placement untouched for the same seed.
func (c Config) Build(seed uint64) (*mec.Network, error) {
	return c.BuildWithDemand(seed, nil)
}

// BuildWithDemand is Build with per-range demand overrides: UEs inside
// an override range draw their CRU/rate demands from the range's bounds
// instead of the scenario's. Every draw consumes exactly as much
// randomness as the unoverridden build, so positions, services, and the
// demands of uncovered UEs are identical to Build under the same seed.
// Ranges must be sorted by Start and disjoint.
func (c Config) BuildWithDemand(seed uint64, ranges []DemandRange) (*mec.Network, error) {
	if err := c.Validate(); err != nil {
		return nil, err
	}
	if err := c.validateDemandRanges(ranges); err != nil {
		return nil, err
	}
	root := rng.New(seed)
	area, err := geo.NewArea(c.AreaWidthM, c.AreaHeightM)
	if err != nil {
		return nil, fmt.Errorf("workload: %w", err)
	}
	if c.Radio.ShadowingStdDB > 0 && c.Radio.ShadowingSeed == 0 {
		// Tie the shadowing field to the scenario seed so replications
		// draw independent channels; an explicit seed in the config wins.
		c.Radio.ShadowingSeed = seed
	}

	sps := make([]mec.SP, c.SPs)
	for k := range sps {
		sps[k] = mec.SP{
			ID:              mec.SPID(k),
			Name:            fmt.Sprintf("SP-%d", k),
			CRUPrice:        c.SPCRUPrice,
			OtherCostPerCRU: c.SPOtherCost,
		}
	}

	bss, err := c.buildBSs(root, area)
	if err != nil {
		return nil, err
	}
	ues := c.buildUEs(root, area, ranges)

	return mec.NewNetwork(sps, bss, ues, c.Services, c.Radio, c.Pricing)
}

func (c Config) buildBSs(root *rng.Source, area geo.Rect) ([]mec.BS, error) {
	nBS := c.SPs * c.BSsPerSP
	var positions []geo.Point
	var err error
	switch c.Placement {
	case PlacementRegular:
		positions, err = geo.GridPlacement(area, nBS, c.InterSiteM)
	case PlacementHex:
		positions, err = geo.HexPlacement(area, nBS, c.InterSiteM)
	case PlacementRandom:
		positions = geo.RandomPlacement(area, nBS, root.SplitLabeled("bs-placement"))
	default:
		return nil, fmt.Errorf("workload: unknown placement %q", c.Placement)
	}
	if err != nil {
		return nil, fmt.Errorf("workload: %w", err)
	}

	capSrc := root.SplitLabeled("bs-capacity")
	svcSrc := root.SplitLabeled("bs-services")
	maxRRBs := c.Radio.MaxRRBs()
	bss := make([]mec.BS, nBS)
	for i := range bss {
		caps := make([]int, c.Services)
		for _, j := range chooseServices(svcSrc, c.Services, c.ServicesPerBS) {
			caps[j] = capSrc.IntBetween(c.CRUCapMin, c.CRUCapMax)
		}
		bss[i] = mec.BS{
			ID:          mec.BSID(i),
			SP:          c.ownerOf(i),
			Pos:         positions[i],
			CRUCapacity: caps,
			MaxRRBs:     maxRRBs,
		}
	}
	return bss, nil
}

// ownerOf maps BS index to owning SP. For the regular grid the diagonal
// pattern (col + 2*row) mod SPs spreads each SP's sites across the area
// (a Latin square for 5 SPs), realizing the paper's premise that every
// neighbourhood is covered by BSs of *different* providers; plain
// round-robin would hand each SP a contiguous column. Random placement
// keeps round-robin since positions are already scattered.
func (c Config) ownerOf(i int) mec.SPID {
	if c.Placement == PlacementRegular || c.Placement == PlacementHex {
		nBS := c.SPs * c.BSsPerSP
		cols := int(math.Ceil(math.Sqrt(float64(nBS))))
		row, col := i/cols, i%cols
		return mec.SPID((col + 2*row) % c.SPs)
	}
	return mec.SPID(i % c.SPs)
}

// buildUEs fills the UE profiles in two passes: positions from the
// ue-placement stream, then demands from the ue-demand stream. The
// streams are independent, so each is consumed in UE order exactly as
// one interleaved loop would consume it.
func (c Config) buildUEs(root *rng.Source, area geo.Rect, ranges []DemandRange) []mec.UE {
	posSrc := root.SplitLabeled("ue-placement")
	demSrc := root.SplitLabeled("ue-demand")
	var centres []geo.Point
	if c.UEDist == UEHotspot {
		centres = area.RandomPoints(posSrc, c.HotspotCount)
	}
	ues := make([]mec.UE, c.UEs)
	for u := range ues {
		ues[u].Pos = c.uePosition(posSrc, area, centres)
	}
	zipf := newZipf(c.Services, c.ZipfS)
	ri := 0 // next candidate override range (sorted, disjoint)
	for u := range ues {
		cruMin, cruMax := c.CRUDemandMin, c.CRUDemandMax
		rateMin, rateMax := c.RateMinBps, c.RateMaxBps
		for ri < len(ranges) && u >= ranges[ri].Start+ranges[ri].Count {
			ri++
		}
		if ri < len(ranges) && u >= ranges[ri].Start {
			if r := ranges[ri]; r.CRUDemandMax != 0 {
				cruMin, cruMax = r.CRUDemandMin, r.CRUDemandMax
			}
			if r := ranges[ri]; r.RateMaxBps != 0 {
				rateMin, rateMax = r.RateMinBps, r.RateMaxBps
			}
		}
		var svc int
		switch c.ServiceDist {
		case ServiceZipf:
			svc = zipf.sample(demSrc)
		default:
			svc = demSrc.Intn(c.Services)
		}
		ue := &ues[u]
		ue.ID = mec.UEID(u)
		ue.SP = mec.SPID(demSrc.Intn(c.SPs))
		ue.Service = mec.ServiceID(svc)
		ue.CRUDemand = demSrc.IntBetween(cruMin, cruMax)
		ue.RateBps = demSrc.FloatBetween(rateMin, rateMax)
	}
	return ues
}

// uePosition draws one UE position according to UEDist. Hotspot draws are
// clamped to the area boundary so every UE stays inside the deployment.
func (c Config) uePosition(src *rng.Source, area geo.Rect, centres []geo.Point) geo.Point {
	if c.UEDist != UEHotspot || src.Float64() >= c.HotspotFraction {
		return area.RandomPoint(src)
	}
	centre := centres[src.Intn(len(centres))]
	p := geo.Point{
		X: centre.X + src.NormFloat64()*c.HotspotSigmaM,
		Y: centre.Y + src.NormFloat64()*c.HotspotSigmaM,
	}
	p.X = clamp(p.X, area.Min.X, area.Max.X)
	p.Y = clamp(p.Y, area.Min.Y, area.Max.Y)
	return p
}

func clamp(v, lo, hi float64) float64 {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

// chooseServices picks k distinct services out of n, or all of them when
// k == n (the §VI default: every BS provides all six services).
func chooseServices(src *rng.Source, n, k int) []int {
	if k >= n {
		all := make([]int, n)
		for i := range all {
			all[i] = i
		}
		return all
	}
	return src.Perm(n)[:k]
}

// zipf samples ranks 0..n-1 with P(r) proportional to 1/(r+1)^s by inverse
// CDF over the precomputed normalized weights.
type zipf struct {
	cdf []float64
}

func newZipf(n int, s float64) *zipf {
	z := &zipf{cdf: make([]float64, n)}
	total := 0.0
	for r := 0; r < n; r++ {
		total += 1 / math.Pow(float64(r+1), s)
		z.cdf[r] = total
	}
	for r := range z.cdf {
		z.cdf[r] /= total
	}
	return z
}

func (z *zipf) sample(src *rng.Source) int {
	u := src.Float64()
	for r, c := range z.cdf {
		if u < c {
			return r
		}
	}
	return len(z.cdf) - 1
}

// Save writes the configuration as indented JSON to path.
func Save(c Config, path string) error {
	data, err := json.MarshalIndent(c, "", "  ")
	if err != nil {
		return fmt.Errorf("workload: marshal config: %w", err)
	}
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		return fmt.Errorf("workload: write config: %w", err)
	}
	return nil
}

// Load reads a configuration written by Save and validates it. Unknown
// fields are rejected: a typo'd key (e.g. "bsPerSP" for "bssPerSP")
// fails loudly instead of being silently ignored while the zero value
// or default wins.
func Load(path string) (Config, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return Config{}, fmt.Errorf("workload: read config: %w", err)
	}
	c, err := Parse(data)
	if err != nil {
		return Config{}, fmt.Errorf("workload: parse config %s: %w", path, err)
	}
	return c, nil
}

// Parse decodes and validates a configuration from raw JSON — the same
// format Save writes, also embedded in trace manifests (obs.Manifest's
// Scenario field) so tools can rebuild the exact network a trace ran
// over. Unknown fields are rejected like Load.
func Parse(data []byte) (Config, error) {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var c Config
	if err := dec.Decode(&c); err != nil {
		return Config{}, err
	}
	if err := c.Validate(); err != nil {
		return Config{}, err
	}
	return c, nil
}
