// Package radio models the OFDMA uplink between UEs and base stations:
// the distance-dependent path-loss law of the paper (Eq. 18), SINR,
// per-resource-block achievable rate (Eq. 2), and the number of radio
// resource blocks a UE needs to reach its required data rate (Eq. 3).
//
// All powers are handled in dBm at the API boundary and converted to
// milliwatts internally. The noise figure in the paper ("-170 dBm") is
// interpreted as a noise power spectral density of -170 dBm/Hz integrated
// over one RRB; see DESIGN.md for why the alternative reading (total
// in-band power) contradicts the paper's own distance-sensitivity claims.
package radio

import (
	"errors"
	"fmt"
	"math"

	"dmra/internal/rng"
)

// Config holds the radio parameters of a deployment. The zero value is not
// usable; start from DefaultConfig.
type Config struct {
	// TxPowerDBm is the UE uplink transmit power (paper: 10 dBm).
	TxPowerDBm float64 `json:"txPowerDBm"`
	// NoiseDBm is the uplink noise level (paper: -170 dBm). By default it
	// is the total in-band noise power seen by one RRB — the literal
	// reading of §VI-A. Set NoisePerHz to treat it as a power spectral
	// density in dBm/Hz instead (integrated over the RRB bandwidth), which
	// is the physically conventional reading; DESIGN.md discusses why the
	// literal reading reproduces the paper's capacity regime.
	NoiseDBm float64 `json:"noiseDBm"`
	// NoisePerHz switches NoiseDBm to a dBm/Hz spectral density.
	NoisePerHz bool `json:"noisePerHz,omitempty"`
	// RRBBandwidthHz is W_sub, the bandwidth of one radio resource block
	// (paper: 180 kHz).
	RRBBandwidthHz float64 `json:"rrbBandwidthHz"`
	// UplinkBandwidthHz is W_i, a BS's total uplink bandwidth
	// (paper: 10 MHz).
	UplinkBandwidthHz float64 `json:"uplinkBandwidthHz"`
	// InterferenceMarginDB degrades the SINR by a fixed margin to stand in
	// for inter-cell interference. 0 disables it (pure SNR), which is the
	// default since the paper never parameterizes its interference term.
	InterferenceMarginDB float64 `json:"interferenceMarginDB"`
	// CoverageRadiusM is the maximum UE-BS distance at which a BS is
	// considered reachable. The paper leaves this unstated; DESIGN.md
	// motivates the 450 m default (every point of the 300 m grid is then
	// covered by BSs of several SPs, the dense-deployment premise).
	CoverageRadiusM float64 `json:"coverageRadiusM"`
	// MinDistanceM clamps very small UE-BS distances so that the log-based
	// path-loss law stays finite when a UE sits on top of a BS.
	MinDistanceM float64 `json:"minDistanceM"`
	// ShadowingStdDB enables log-normal shadowing: each UE-BS link gets a
	// zero-mean Gaussian loss with this standard deviation (dB), drawn
	// deterministically from (ShadowingSeed, UE, BS). 0 disables it (the
	// paper's evaluation states only the distance-dependent law).
	ShadowingStdDB float64 `json:"shadowingStdDB,omitempty"`
	// ShadowingSeed decorrelates shadowing across scenario replications.
	ShadowingSeed uint64 `json:"shadowingSeed,omitempty"`
}

// DefaultConfig returns the paper's §VI radio parameterization.
func DefaultConfig() Config {
	return Config{
		TxPowerDBm:        10,
		NoiseDBm:          -170,
		RRBBandwidthHz:    180e3,
		UplinkBandwidthHz: 10e6,
		CoverageRadiusM:   450,
		MinDistanceM:      1,
	}
}

// Validate reports the first invalid field of c. Every float field must
// be finite: a NaN passes each ordered comparison below unnoticed and
// poisons every link priced from it.
func (c Config) Validate() error {
	for _, f := range []struct {
		name string
		v    float64
	}{
		{"transmit power", c.TxPowerDBm},
		{"noise level", c.NoiseDBm},
		{"RRB bandwidth", c.RRBBandwidthHz},
		{"uplink bandwidth", c.UplinkBandwidthHz},
		{"interference margin", c.InterferenceMarginDB},
		{"coverage radius", c.CoverageRadiusM},
		{"min distance", c.MinDistanceM},
		{"shadowing std", c.ShadowingStdDB},
	} {
		if math.IsNaN(f.v) || math.IsInf(f.v, 0) {
			return fmt.Errorf("radio: %s must be finite, got %g", f.name, f.v)
		}
	}
	switch {
	case c.RRBBandwidthHz <= 0:
		return fmt.Errorf("radio: RRB bandwidth must be positive, got %g", c.RRBBandwidthHz)
	case c.UplinkBandwidthHz < c.RRBBandwidthHz:
		return fmt.Errorf("radio: uplink bandwidth %g below one RRB %g", c.UplinkBandwidthHz, c.RRBBandwidthHz)
	case c.CoverageRadiusM <= 0:
		return fmt.Errorf("radio: coverage radius must be positive, got %g", c.CoverageRadiusM)
	case c.MinDistanceM <= 0:
		return fmt.Errorf("radio: min distance must be positive, got %g", c.MinDistanceM)
	case c.InterferenceMarginDB < 0:
		return fmt.Errorf("radio: interference margin must be non-negative, got %g", c.InterferenceMarginDB)
	case c.ShadowingStdDB < 0:
		return fmt.Errorf("radio: shadowing std must be non-negative, got %g", c.ShadowingStdDB)
	}
	return nil
}

// MaxRRBs returns N_i, the number of RRBs a BS can allocate:
// floor(W_i / W_sub). With the defaults this is 55.
func (c Config) MaxRRBs() int {
	return int(c.UplinkBandwidthHz / c.RRBBandwidthHz)
}

// PathLossDB evaluates the paper's distance-dependent path-loss model
// (Eq. 18): 140.7 + 36.7*log10(d_km), with d clamped to MinDistanceM.
func (c Config) PathLossDB(distanceM float64) float64 {
	return pathLossDB(distanceM, c.MinDistanceM)
}

func pathLossDB(distanceM, minDistanceM float64) float64 {
	if distanceM < minDistanceM {
		distanceM = minDistanceM
	}
	return 140.7 + 36.7*math.Log10(distanceM/1000)
}

// NoiseFloorDBm returns the total in-band noise power per RRB.
func (c Config) NoiseFloorDBm() float64 {
	if c.NoisePerHz {
		return c.NoiseDBm + 10*math.Log10(c.RRBBandwidthHz)
	}
	return c.NoiseDBm
}

// LinkKernel is a Config's per-link radio chain — path loss (Eq. 18),
// linear SINR, per-RRB rate (Eq. 2) and RRB count (Eq. 3) — with the
// config's constant terms (noise floor, interference margin, RRB
// bandwidth) evaluated once. Scenario construction prices every
// candidate link through one kernel; the Config methods below build one
// per call. Its results are bit-identical to the literal
// math.Pow(10, ·)/math.Log2 chain: pow10 and log2 repeat the standard
// library's own steps for base 10 and fall back to it on special values.
type LinkKernel struct {
	txDBm, noiseFloorDBm, marginDB, minDistanceM, rrbBandwidthHz float64
}

// LinkKernel returns c's link kernel.
func (c Config) LinkKernel() LinkKernel {
	return LinkKernel{
		txDBm:          c.TxPowerDBm,
		noiseFloorDBm:  c.NoiseFloorDBm(),
		marginDB:       c.InterferenceMarginDB,
		minDistanceM:   c.MinDistanceM,
		rrbBandwidthHz: c.RRBBandwidthHz,
	}
}

// sinr returns the linear SINR at the given distance with an additional
// loss term in dB (e.g. a per-link shadowing draw from Config.ShadowDB).
func (k LinkKernel) sinr(distanceM, extraLossDB float64) float64 {
	rxDBm := k.txDBm - pathLossDB(distanceM, k.minDistanceM) - extraLossDB
	sinrDB := rxDBm - k.noiseFloorDBm - k.marginDB
	return pow10(sinrDB / 10)
}

// ratePerRRB returns e_{u,i} (Eq. 2) for a link of linear SINR sinr:
// W_sub * log2(1 + sinr).
func (k LinkKernel) ratePerRRB(sinr float64) float64 {
	return k.rrbBandwidthHz * log2(1+sinr)
}

// Budget evaluates the whole chain for one link: its linear SINR and the
// Eq. 3 RRB count ceil(w_u/e_{u,i}) for requiredRateBps. A non-positive
// required rate needs zero RRBs; a non-positive per-RRB rate returns
// ErrRateUnreachable.
func (k LinkKernel) Budget(distanceM, requiredRateBps, extraLossDB float64) (sinr float64, rrbs int, err error) {
	sinr = k.sinr(distanceM, extraLossDB)
	if requiredRateBps <= 0 {
		return sinr, 0, nil
	}
	e := k.ratePerRRB(sinr)
	if e <= 0 {
		return sinr, 0, ErrRateUnreachable
	}
	return sinr, int(math.Ceil(requiredRateBps / e)), nil
}

// SINR returns the linear signal-to-interference-plus-noise ratio lambda_{u,i}
// for a UE at the given distance from the BS, without shadowing.
func (c Config) SINR(distanceM float64) float64 {
	return c.SINRWith(distanceM, 0)
}

// SINRWith returns the linear SINR with an additional loss term in dB
// (e.g. a per-link shadowing draw from ShadowDB).
func (c Config) SINRWith(distanceM, extraLossDB float64) float64 {
	return c.LinkKernel().sinr(distanceM, extraLossDB)
}

// ShadowDB returns the link's deterministic log-normal shadowing loss in
// dB: a zero-mean Gaussian with ShadowingStdDB drawn from
// (ShadowingSeed, ue, bs). It is 0 when shadowing is disabled.
func (c Config) ShadowDB(ue, bs int) float64 {
	if c.ShadowingStdDB == 0 {
		return 0
	}
	h := c.ShadowingSeed
	h = (h ^ uint64(ue)) * 0x100000001b3
	h = (h ^ uint64(bs)<<20) * 0x100000001b3
	return rng.New(h).NormFloat64() * c.ShadowingStdDB
}

// SINRdB returns the SINR at the given distance in decibels.
func (c Config) SINRdB(distanceM float64) float64 {
	return 10 * math.Log10(c.SINR(distanceM))
}

// RatePerRRB returns e_{u,i} (Eq. 2): the achievable uplink rate in bit/s of
// one RRB at the given UE-BS distance, W_sub * log2(1 + lambda).
func (c Config) RatePerRRB(distanceM float64) float64 {
	return c.RatePerRRBWith(distanceM, 0)
}

// RatePerRRBWith is RatePerRRB with an additional dB loss (shadowing).
func (c Config) RatePerRRBWith(distanceM, extraLossDB float64) float64 {
	k := c.LinkKernel()
	return k.ratePerRRB(k.sinr(distanceM, extraLossDB))
}

// ErrRateUnreachable is returned by RRBsNeeded when the per-RRB rate at the
// given distance is zero, i.e. no finite number of RRBs can carry the flow.
var ErrRateUnreachable = errors.New("radio: required rate unreachable at this distance")

// RRBsNeeded returns n_{u,i} (Eq. 3): the number of RRBs BS must allocate so
// that a UE at the given distance reaches requiredRateBps, ceil(w_u/e_{u,i}).
// A non-positive required rate needs zero RRBs.
func (c Config) RRBsNeeded(distanceM, requiredRateBps float64) (int, error) {
	return c.RRBsNeededWith(distanceM, requiredRateBps, 0)
}

// RRBsNeededWith is RRBsNeeded with an additional dB loss (shadowing).
func (c Config) RRBsNeededWith(distanceM, requiredRateBps, extraLossDB float64) (int, error) {
	_, n, err := c.LinkKernel().Budget(distanceM, requiredRateBps, extraLossDB)
	return n, err
}

// Covers reports whether a BS at the given distance is reachable: within
// the coverage radius. Resource feasibility (enough RRBs) is checked by
// allocators, not here.
func (c Config) Covers(distanceM float64) bool {
	return distanceM <= c.CoverageRadiusM
}

// DBmToMilliwatts converts a power level from dBm to mW.
func DBmToMilliwatts(dbm float64) float64 {
	return pow10(dbm / 10)
}

// MilliwattsToDBm converts a power level from mW to dBm. It returns -Inf
// for non-positive inputs.
func MilliwattsToDBm(mw float64) float64 {
	if mw <= 0 {
		return math.Inf(-1)
	}
	return 10 * math.Log10(mw)
}
