package radio

import "math"

// The link kernel's two transcendental steps, math.Pow(10, y) and
// math.Log2(x), are the standard library's own algorithms (math/pow.go
// and math/log10.go) specialised to their one argument range here:
// every finite step is repeated in the same order on the same values, so
// the results are bit-identical, and every special value falls through
// to the library call itself. FuzzPow10 and FuzzLog2 pin both.
//
// This holds wherever math.Pow is the portable Go code, which is every
// GOARCH but s390x, whose assembly Pow pow10 does not mirror; math.Log2
// is portable Go everywhere.

// ln10 is math.Log(10), the Log(x) factor of pow's fractional step.
var ln10 = math.Log(10)

// pow10 returns math.Pow(10, y). math.Pow splits |y| into an integer
// part yi and a fraction yf, evaluates 10^yf as Exp(yf*Log(10)) and
// 10^yi by repeated squaring of Frexp(10) = 0.625 * 2^4, then scales by
// the accumulated power of two with Ldexp. Pow's special cases (y = 0,
// 1, ±0.5, NaN, ±Inf, |y| >= 2^63) go to math.Pow.
func pow10(y float64) float64 {
	if !(math.Abs(y) < 1<<63) || y == 0 || y == 1 || y == 0.5 || y == -0.5 {
		return math.Pow(10, y)
	}
	yi, yf := math.Modf(math.Abs(y))
	a1, ae := 1.0, 0
	if yf != 0 {
		if yf > 0.5 {
			yf--
			yi++
		}
		a1 = math.Exp(yf * ln10)
	}
	x1, xe := 0.625, 4
	for i := int64(yi); i != 0; i >>= 1 {
		if xe < -1<<12 || 1<<12 < xe {
			// Pow's overflow guard: the remaining bits push ae past
			// any float64 exponent, and Ldexp saturates.
			ae += xe
			break
		}
		if i&1 == 1 {
			a1 *= x1
			ae += xe
		}
		x1 *= x1
		xe <<= 1
		if x1 < .5 {
			x1 += x1
			xe--
		}
	}
	if y < 0 {
		a1 = 1 / a1
		ae = -ae
	}
	// a1 is normal and within 2^±13 of 1 here, so for a moderate ae the
	// product with 2^ae is exact and normal: Ldexp's result, without its
	// normalisation. Anything near the float64 range limits takes Ldexp.
	if ae < -960 || ae > 960 {
		return math.Ldexp(a1, ae)
	}
	return a1 * math.Float64frombits(uint64(ae+1023)<<52)
}

// log2 returns math.Log2(x): Log(frac)*(1/Ln2) + exp over x's Frexp
// split, exactly exp-1 for a power of two. The split of a positive normal
// x is read from its bits; zero, subnormals, negatives, NaN and ±Inf go
// to math.Log2.
func log2(x float64) float64 {
	b := math.Float64bits(x)
	e := int(b >> 52) // sign and biased exponent
	if e == 0 || e >= 0x7ff {
		return math.Log2(x)
	}
	frac := math.Float64frombits(b&(1<<52-1) | 1022<<52)
	exp := e - 1022
	if frac == 0.5 {
		return float64(exp - 1)
	}
	return math.Log(frac)*(1/math.Ln2) + float64(exp)
}
