package radio

import (
	"errors"
	"math"
	"testing"
)

// sameFloat reports whether a and b are the same float64 bit pattern, or
// both NaN.
func sameFloat(a, b float64) bool {
	return math.Float64bits(a) == math.Float64bits(b) || (math.IsNaN(a) && math.IsNaN(b))
}

// kernelSeeds are the special values and range edges both fuzzers start
// from: signed zeros, ±0.5, ±1, NaN, ±Inf, |y| at and past 2^63,
// subnormals, the largest finite value, and the exponents where 10^y
// leaves the normal range.
var kernelSeeds = []float64{
	0, math.Copysign(0, -1), 0.5, -0.5, 1, -1, 2, 10, math.NaN(), math.Inf(1), math.Inf(-1),
	1 << 63, -(1 << 63), math.Nextafter(1<<63, 0), 1e300, -1e300,
	math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64, 0x1p-1030, math.MaxFloat64,
	-3.7, 1.23, 0.75, -0.75, 12.5, 307.9, 308.3, 309, -307.5, -323.5, -324, -330, 4096.5,
	math.Nextafter(1, 2), math.Nextafter(1, 0),
}

func FuzzPow10(f *testing.F) {
	for _, y := range kernelSeeds {
		f.Add(math.Float64bits(y))
	}
	f.Fuzz(func(t *testing.T, bits uint64) {
		y := math.Float64frombits(bits)
		if got, want := pow10(y), math.Pow(10, y); !sameFloat(got, want) {
			t.Fatalf("pow10(%v) = %v (%#x), math.Pow(10, y) = %v (%#x)",
				y, got, math.Float64bits(got), want, math.Float64bits(want))
		}
	})
}

func FuzzLog2(f *testing.F) {
	for _, x := range kernelSeeds {
		f.Add(math.Float64bits(x))
	}
	f.Fuzz(func(t *testing.T, bits uint64) {
		x := math.Float64frombits(bits)
		if got, want := log2(x), math.Log2(x); !sameFloat(got, want) {
			t.Fatalf("log2(%v) = %v (%#x), math.Log2 = %v (%#x)",
				x, got, math.Float64bits(got), want, math.Float64bits(want))
		}
	})
}

// literalChain is the per-link radio chain written out with the standard
// library's math.Pow and math.Log2: Eq. 18 path loss, linear SINR, Eq. 2
// rate and Eq. 3 RRB count.
func literalChain(c Config, distanceM, rateBps, extraLossDB float64) (sinr float64, rrbs int, err error) {
	if distanceM < c.MinDistanceM {
		distanceM = c.MinDistanceM
	}
	noise := c.NoiseDBm
	if c.NoisePerHz {
		noise = c.NoiseDBm + 10*math.Log10(c.RRBBandwidthHz)
	}
	pl := 140.7 + 36.7*math.Log10(distanceM/1000)
	sinr = math.Pow(10, (c.TxPowerDBm-pl-extraLossDB-noise-c.InterferenceMarginDB)/10)
	if rateBps <= 0 {
		return sinr, 0, nil
	}
	e := c.RRBBandwidthHz * math.Log2(1+sinr)
	if e <= 0 {
		return sinr, 0, ErrRateUnreachable
	}
	return sinr, int(math.Ceil(rateBps / e)), nil
}

// TestKernelMatchesLiteralChain holds every kernel entry point to the
// literal chain bit for bit, across the config variants (noise as a
// density, an interference margin, shadowing draws) and the edges
// (distances below MinDistanceM, non-positive required rates, a per-RRB
// rate that underflows to zero).
func TestKernelMatchesLiteralChain(t *testing.T) {
	margin := DefaultConfig()
	margin.InterferenceMarginDB = 20
	perHz := DefaultConfig()
	perHz.NoisePerHz = true
	perHz.InterferenceMarginDB = 3.5
	shadowed := margin
	shadowed.ShadowingStdDB = 8
	shadowed.ShadowingSeed = 7
	configs := map[string]Config{"default": DefaultConfig(), "margin": margin, "per-hz": perHz, "shadowed": shadowed}
	distances := []float64{0, 0.25, 1, 1.5, 17, 100, 299.9, 300, 449.99, 450, 1000, 2500, 1e7, 1e30}
	rates := []float64{-1, 0, 1, 2e6, 3.3e6, 6e6, 5e7}
	for name, c := range configs {
		k := c.LinkKernel()
		for i, d := range distances {
			for j, rate := range rates {
				extra := c.ShadowDB(i, j)
				wantSINR, wantRRBs, wantErr := literalChain(c, d, rate, extra)
				sinr, rrbs, err := k.Budget(d, rate, extra)
				if !sameFloat(sinr, wantSINR) || rrbs != wantRRBs || !errors.Is(err, wantErr) {
					t.Fatalf("%s d=%g rate=%g extra=%g: Budget = (%v, %d, %v), literal chain (%v, %d, %v)",
						name, d, rate, extra, sinr, rrbs, err, wantSINR, wantRRBs, wantErr)
				}
				if got := c.SINRWith(d, extra); !sameFloat(got, wantSINR) {
					t.Fatalf("%s d=%g: SINRWith = %v, want %v", name, d, got, wantSINR)
				}
				if got, err := c.RRBsNeededWith(d, rate, extra); got != wantRRBs || !errors.Is(err, wantErr) {
					t.Fatalf("%s d=%g rate=%g: RRBsNeededWith = (%d, %v), want (%d, %v)", name, d, rate, got, err, wantRRBs, wantErr)
				}
				wantRate := c.RRBBandwidthHz * math.Log2(1+wantSINR)
				if got := c.RatePerRRBWith(d, extra); !sameFloat(got, wantRate) {
					t.Fatalf("%s d=%g: RatePerRRBWith = %v, want %v", name, d, got, wantRate)
				}
			}
		}
	}
	// A per-RRB rate of zero must surface as unreachable, as in the
	// literal chain.
	if _, _, err := DefaultConfig().LinkKernel().Budget(1e30, 1, 0); !errors.Is(err, ErrRateUnreachable) {
		t.Fatalf("Budget at 1e30 m: err %v, want ErrRateUnreachable", err)
	}
}

// TestKernelSweep holds pow10 and log2 to the standard library over a
// dense sweep of the ranges the link chain feeds them: SINR exponents
// from deep underflow to overflow, and 1+SINR from 1 up to 10^12.
func TestKernelSweep(t *testing.T) {
	for i := 0; i <= 200000; i++ {
		y := -340 + float64(i)*0.00325
		if got, want := pow10(y), math.Pow(10, y); !sameFloat(got, want) {
			t.Fatalf("pow10(%v) = %v, math.Pow(10, y) = %v", y, got, want)
		}
		x := 1 + math.Pow(10, float64(i)*6e-5)
		if got, want := log2(x), math.Log2(x); !sameFloat(got, want) {
			t.Fatalf("log2(%v) = %v, math.Log2 = %v", x, got, want)
		}
	}
}
