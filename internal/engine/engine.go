// Package engine is the canonical DMRA round state machine (Alg. 1),
// shared by every runtime. It owns the four decisions the paper's rounds
// are made of:
//
//   - the Eq. 17 preference ordering a UE proposes by (Config.Preference,
//     swept with eager drops of infeasible candidates by Arena over its
//     ledger and by Proposer over broadcast-fed views);
//   - the BS-side per-service selection with the full tie-break chain
//     (same-SP, smallest f_u, smallest footprint, lowest UE ID);
//   - the strict Alg. 1 lines 22-25 prefix trim against the radio budget
//     (Config.SelectRound over a Ledger);
//   - the broadcast-driven view bookkeeping that keeps UE-local resource
//     pictures current (Proposer.ApplyBroadcast).
//
// The runtimes are thin drivers over these pieces and differ only in how
// messages move: internal/alloc runs the rounds synchronously in the
// Arena, whose flat per-BS ledger every UE reads directly,
// internal/protocol delivers them as discrete-event messages between
// agents, and internal/wire frames them over TCP to per-BS server
// processes. Because every decision routes through this one package, the
// three produce bit-identical matchings — an equivalence the parity and
// fuzz tests in internal/wire assert.
package engine

import (
	"math"

	"dmra/internal/mec"
)

// Config parameterizes the DMRA scheme. The ablation switches exist to
// measure what each Alg. 1 design choice contributes; the paper's
// algorithm is the default configuration. internal/alloc re-exports it as
// DMRAConfig, the name the experiment layers use.
type Config struct {
	// Rho is the weight of the remaining-resource term in the UE
	// preference v_{u,i} (Eq. 17). Larger values push UEs towards BSs with
	// more spare capacity; the paper sweeps it in Figs. 6-7.
	Rho float64
	// SPPriority enables the same-SP-first selection of Alg. 1 lines
	// 13-16. Disabling it is ablation A1.
	SPPriority bool
	// FuTieBreak enables the smallest-f_u tie-break (prefer UEs with few
	// alternative BSs). Disabling it is ablation A3.
	FuTieBreak bool
}

// DefaultConfig returns the paper's algorithm with a mid-sweep rho
// (the Fig. 6 sweep peaks between rho = 250 and 1000 under the default
// scenario; 250 performs well at both iota settings).
func DefaultConfig() Config {
	return Config{Rho: 250, SPPriority: true, FuTieBreak: true}
}

// Preference evaluates v_{u,i} (Eq. 17) from a UE's local view of BS
// resources: price plus rho over the BS's remaining CRUs for the requested
// service plus its remaining RRBs. An exhausted BS (denominator <= 0) is
// infinitely unattractive. Every runtime routes its decisions through this
// one function, which is what makes their outputs identical.
func (c Config) Preference(l mec.Link, remCRU, remRRBs int) float64 {
	return c.preference(l.PricePerCRU, remCRU+remRRBs)
}

// preference is Preference over pre-flattened fields: the link price and
// the already-summed residual denominator. The SoA engine calls it with
// raw CSR values; keeping one body guarantees bit-identical floats on
// both paths.
func (c Config) preference(price float64, rem int) float64 {
	denom := float64(rem)
	if denom <= 0 {
		return math.Inf(1)
	}
	return price + c.Rho/denom
}
