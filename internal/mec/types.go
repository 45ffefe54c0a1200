// Package mec models the multi-SP mobile-edge-computing system of the
// paper's §III: service providers (SPs), base stations with co-located MEC
// servers (BSs), user equipments (UEs), services, the pricing scheme
// (Eq. 9-10), the SP utility decomposition (Eq. 5-8), and the allocation
// state with the capacity constraints of the TPM problem (Eq. 12-16).
//
// The package separates the immutable scenario (Network: who is where,
// what they demand, what links cost) from the mutable allocation
// (State/Assignment). All allocation algorithms in internal/alloc operate
// on these two, so every algorithm sees identical inputs and is charged by
// identical accounting.
package mec

import (
	"fmt"
	"math"

	"dmra/internal/geo"
)

// Identifier types index the dense entity slices of a Network. They are
// plain ints so allocators can use them as array indices directly.
type (
	// SPID identifies a service provider.
	SPID int
	// BSID identifies a base station / MEC server.
	BSID int
	// UEID identifies a user equipment.
	UEID int
	// ServiceID identifies one of the globally numbered services.
	ServiceID int
)

// CloudBS is the sentinel assignment target for tasks forwarded to the
// remote cloud (no reachable BS could serve them).
const CloudBS BSID = -1

// SP is a service provider. UEs subscribe to exactly one SP; BSs are
// deployed by exactly one SP.
type SP struct {
	ID SPID `json:"id"`
	// Name is a human-readable label used in reports.
	Name string `json:"name"`
	// CRUPrice is m_k, the price per CRU the SP charges its subscribers.
	CRUPrice float64 `json:"cruPrice"`
	// OtherCostPerCRU is m_k^o, the SP's non-BS cost per CRU served.
	OtherCostPerCRU float64 `json:"otherCostPerCRU"`
}

// BS is a base station with a co-located MEC server. The paper uses the
// two terms interchangeably and so does this package.
type BS struct {
	ID  BSID      `json:"id"`
	SP  SPID      `json:"sp"`
	Pos geo.Point `json:"pos"`
	// CRUCapacity[j] is c_{i,j}: CRUs this BS dedicates to service j.
	// A zero entry means the BS does not host service j (z_{i,j} = 0).
	// The slice is indexed by ServiceID and must have one entry per
	// service in the Network.
	CRUCapacity []int `json:"cruCapacity"`
	// MaxRRBs is N_i, the radio resource block budget of the BS.
	MaxRRBs int `json:"maxRRBs"`
}

// Hosts reports whether the BS hosts service j (z_{i,j} = 1).
func (b *BS) Hosts(j ServiceID) bool {
	return int(j) < len(b.CRUCapacity) && b.CRUCapacity[j] > 0
}

// UE is a user equipment with one offloaded computing task. Each UE
// subscribes to one SP, requests one service, and is served by at most one
// BS (or the remote cloud).
type UE struct {
	ID  UEID      `json:"id"`
	SP  SPID      `json:"sp"`
	Pos geo.Point `json:"pos"`
	// Service is the single service the UE requests (J_{u,j} = 1).
	Service ServiceID `json:"service"`
	// CRUDemand is c_j^u, the CRUs needed to process the UE's task.
	CRUDemand int `json:"cruDemand"`
	// RateBps is w_u, the required uplink data rate in bit/s.
	RateBps float64 `json:"rateBps"`
}

// DistanceLaw selects how the transmission-cost term of Eq. 9-10 grows
// with UE-BS distance.
type DistanceLaw string

// Supported distance laws.
const (
	// DistancePower prices transmission as d^sigma*b, the literal reading
	// of the d^sigma superscript in Eq. 9-10 and the default. With the
	// paper's sigma = 0.01 the term grows gently and monotonically with
	// distance (~1.05 at 100 m, ~1.06 at 450 m), so price breaks ties
	// towards nearer BSs while the own-vs-other-SP markup iota*b remains
	// the dominant cost component — the premise of the whole scheme.
	DistancePower DistanceLaw = "power"
	// DistanceLinear prices transmission as sigma*d*b, an alternative
	// reading of §III-D's remark that transmission cost grows with
	// distance "in a linear fashion". With sigma = 0.01 per metre the
	// term spans ~1-4.5 over realistic distances, making price strongly
	// distance-sensitive; kept as an ablation knob.
	DistanceLinear DistanceLaw = "linear"
)

// Pricing parameterizes the per-CRU price a BS charges an SP (Eq. 9-10):
//
//	p_{i,u} = b + dist(d) * b        (UE and BS from the same SP)
//	p_{i,u} = iota*b + dist(d) * b   (different SPs)
//
// with d the UE-BS distance in metres and dist(d) = d^sigma (power law,
// default) or sigma*d (linear law).
type Pricing struct {
	// BasePrice is b.
	BasePrice float64 `json:"basePrice"`
	// CrossSPFactor is iota (> 1): markup for using another SP's BS.
	CrossSPFactor float64 `json:"crossSPFactor"`
	// DistanceSigma is sigma, the distance-cost weight.
	DistanceSigma float64 `json:"distanceSigma"`
	// Law selects the distance-cost form; empty means DistancePower.
	Law DistanceLaw `json:"law,omitempty"`
}

// Validate reports the first invalid pricing field.
func (p Pricing) Validate() error {
	switch {
	case !finite(p.BasePrice) || !finite(p.CrossSPFactor) || !finite(p.DistanceSigma):
		return fmt.Errorf("mec: pricing (b %g, iota %g, sigma %g) must be finite",
			p.BasePrice, p.CrossSPFactor, p.DistanceSigma)
	case p.BasePrice <= 0:
		return fmt.Errorf("mec: base price must be positive, got %g", p.BasePrice)
	case p.CrossSPFactor <= 1:
		return fmt.Errorf("mec: cross-SP factor iota must exceed 1, got %g", p.CrossSPFactor)
	case p.DistanceSigma < 0:
		return fmt.Errorf("mec: distance weight sigma must be non-negative, got %g", p.DistanceSigma)
	case p.Law != "" && p.Law != DistanceLinear && p.Law != DistancePower:
		return fmt.Errorf("mec: unknown distance law %q", p.Law)
	}
	return nil
}

// finite reports whether x is neither NaN nor infinite.
func finite(x float64) bool { return !math.IsNaN(x) && !math.IsInf(x, 0) }
