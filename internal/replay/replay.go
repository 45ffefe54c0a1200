// Package replay reconstructs the full DMRA matching state at any round
// from a JSONL convergence trace (internal/obs), without re-running the
// algorithm: per-BS ledger occupancy and residuals, per-UE status
// (pending/matched/trimmed/cloud) and preference-order position. The
// reconstruction is proven against the live engine — the replay-parity
// test drives all three runtimes with an engine.RoundHook and asserts
// the rebuilt engine.Snapshot is identical at every round barrier.
//
// Replay targets one-shot convergence traces (dmra-sim over alloc,
// protocol or wire) and assumes a loss-free run: with message loss the
// trace still decodes, but accepts that never reached their UE leak
// reservations the event stream cannot see. Interleaved multi-run
// traces (dmra-figures replications, online epoch streams that restart
// round numbering) are detected by their non-monotone round numbers and
// rejected with an error rather than silently mis-reconstructed.
package replay

import (
	"fmt"

	"dmra/internal/engine"
	"dmra/internal/mec"
	"dmra/internal/obs"
)

// Phase is a UE's reconstructed protocol status.
type Phase uint8

const (
	// PhasePending: the UE is unserved and still has candidates to try.
	PhasePending Phase = iota
	// PhaseMatched: a BS accepted the UE's request.
	PhaseMatched
	// PhaseTrimmed: the UE's last request lost the radio-budget trim
	// (Alg. 1 lines 22-25) and will retry next round.
	PhaseTrimmed
	// PhaseCloud: the UE exhausted its candidate set and fell back to
	// the remote cloud.
	PhaseCloud
)

var phaseNames = [...]string{
	PhasePending: "pending",
	PhaseMatched: "matched",
	PhaseTrimmed: "trimmed",
	PhaseCloud:   "cloud",
}

// String returns the phase's display name.
func (p Phase) String() string {
	if int(p) < len(phaseNames) {
		return phaseNames[p]
	}
	return fmt.Sprintf("phase(%d)", uint8(p))
}

// UEStatus is one UE's reconstructed view of the run so far.
type UEStatus struct {
	Phase Phase
	// ServingBS is the admitting BS, or mec.CloudBS.
	ServingBS mec.BSID
	// Proposals counts the UE's requests observed so far.
	Proposals int
	// LastBS is the most recently proposed-to BS (mec.CloudBS if none).
	LastBS mec.BSID
	// PrefPos is LastBS's index in the UE's candidate list B_u (its
	// preference-order position over the static candidate set), or -1.
	PrefPos int
	// Pruned counts permanently rejected (pruned) candidates.
	Pruned int
}

// Machine folds a convergence-event stream into matching state. Apply
// is bounds-checked everywhere and returns errors instead of panicking,
// so arbitrary (fuzzed, truncated, corrupted) traces are safe to feed.
type Machine struct {
	net   *mec.Network
	snap  *engine.Snapshot
	ues   []UEStatus
	round int
	count int64
}

// New returns a machine at round 0 over net: full capacities, every UE
// pending.
func New(net *mec.Network) *Machine {
	m := &Machine{
		net:  net,
		snap: engine.NewSnapshot(net),
		ues:  make([]UEStatus, len(net.UEs)),
	}
	for u := range m.ues {
		m.ues[u].ServingBS = mec.CloudBS
		m.ues[u].LastBS = mec.CloudBS
		m.ues[u].PrefPos = -1
	}
	return m
}

// Round returns the round of the last applied round barrier.
func (m *Machine) Round() int { return m.round }

// Events returns the number of events applied.
func (m *Machine) Events() int64 { return m.count }

// Snapshot returns the machine's live state in the engine's snapshot
// shape. It is the machine's internal state: read it, or Clone to
// retain across further Apply calls.
func (m *Machine) Snapshot() *engine.Snapshot { return m.snap }

// UE returns UE u's reconstructed status (zero value when out of range).
func (m *Machine) UE(u int) UEStatus {
	if u < 0 || u >= len(m.ues) {
		return UEStatus{ServingBS: mec.CloudBS, LastBS: mec.CloudBS, PrefPos: -1}
	}
	return m.ues[u]
}

// checkUE validates a UE id carried by an event.
func (m *Machine) checkUE(e obs.Event) error {
	if e.UE < 0 || e.UE >= len(m.ues) {
		return fmt.Errorf("replay: event %d: UE %d outside [0, %d)", e.Seq, e.UE, len(m.ues))
	}
	return nil
}

// checkBS validates a BS id carried by an event.
func (m *Machine) checkBS(e obs.Event) error {
	if e.BS < 0 || e.BS >= len(m.snap.RemRRB) {
		return fmt.Errorf("replay: event %d: BS %d outside [0, %d)", e.Seq, e.BS, len(m.snap.RemRRB))
	}
	return nil
}

// prefPos returns bs's index in u's candidate list, or -1.
func (m *Machine) prefPos(u mec.UEID, bs mec.BSID) int {
	k := m.net.Dense().FindCand(u, bs)
	if k < 0 {
		return -1
	}
	lo, _ := m.net.CandRange(u)
	return int(k - lo)
}

// Apply folds one event into the state. Errors leave the machine in a
// well-defined (best-effort) state; callers may stop or continue.
func (m *Machine) Apply(e obs.Event) error {
	m.count++
	switch e.Kind {
	case obs.KindRound:
		if e.Round != m.round+1 {
			return fmt.Errorf("replay: event %d: round barrier %d after round %d (interleaved multi-run or out-of-order trace?)",
				e.Seq, e.Round, m.round)
		}
		m.round = e.Round
		m.snap.Round = e.Round
		return nil
	case obs.KindPropose:
		if err := m.eventRound(e); err != nil {
			return err
		}
		if err := m.checkUE(e); err != nil {
			return err
		}
		if err := m.checkBS(e); err != nil {
			return err
		}
		st := &m.ues[e.UE]
		st.Proposals++
		st.LastBS = mec.BSID(e.BS)
		st.PrefPos = m.prefPos(mec.UEID(e.UE), mec.BSID(e.BS))
		if st.Phase == PhaseTrimmed {
			st.Phase = PhasePending
		}
		return nil
	case obs.KindAccept:
		if err := m.eventRound(e); err != nil {
			return err
		}
		if err := m.checkUE(e); err != nil {
			return err
		}
		if err := m.checkBS(e); err != nil {
			return err
		}
		return m.accept(e)
	case obs.KindRejectPermanent:
		if err := m.eventRound(e); err != nil {
			return err
		}
		if err := m.checkUE(e); err != nil {
			return err
		}
		if err := m.checkBS(e); err != nil {
			return err
		}
		m.ues[e.UE].Pruned++
		return nil
	case obs.KindRejectTrim:
		if err := m.eventRound(e); err != nil {
			return err
		}
		if err := m.checkUE(e); err != nil {
			return err
		}
		if err := m.checkBS(e); err != nil {
			return err
		}
		if m.ues[e.UE].Phase == PhasePending {
			m.ues[e.UE].Phase = PhaseTrimmed
		}
		return nil
	case obs.KindCloudFallback:
		if err := m.eventRound(e); err != nil {
			return err
		}
		if err := m.checkUE(e); err != nil {
			return err
		}
		if m.ues[e.UE].Phase == PhaseMatched {
			return fmt.Errorf("replay: event %d: UE %d fell back to cloud after being matched to BS %d",
				e.Seq, e.UE, m.ues[e.UE].ServingBS)
		}
		m.ues[e.UE].Phase = PhaseCloud
		return nil
	case obs.KindBroadcast:
		if err := m.eventRound(e); err != nil {
			return err
		}
		return m.checkBS(e)
	default:
		return fmt.Errorf("replay: event %d: unknown kind %d", e.Seq, uint8(e.Kind))
	}
}

// eventRound checks that a non-barrier event belongs to the open round.
func (m *Machine) eventRound(e obs.Event) error {
	if m.round == 0 {
		return fmt.Errorf("replay: event %d: %s before the first round barrier", e.Seq, e.Kind)
	}
	if e.Round != m.round {
		return fmt.Errorf("replay: event %d: %s carries round %d inside round %d", e.Seq, e.Kind, e.Round, m.round)
	}
	return nil
}

// accept debits the admitting BS's ledger and records the assignment.
// A re-sent accept for an existing (UE, BS) match is idempotent — lossy
// protocol runs re-send accepts — but a second accept on a different BS
// is a corrupt trace.
func (m *Machine) accept(e obs.Event) error {
	st := &m.ues[e.UE]
	bs := mec.BSID(e.BS)
	if st.Phase == PhaseMatched {
		if st.ServingBS == bs {
			return nil // idempotent accept re-send
		}
		return fmt.Errorf("replay: event %d: UE %d accepted by BS %d while matched to BS %d",
			e.Seq, e.UE, e.BS, st.ServingBS)
	}
	link, ok := m.net.Link(mec.UEID(e.UE), bs)
	if !ok {
		return fmt.Errorf("replay: event %d: UE %d accepted by non-candidate BS %d", e.Seq, e.UE, e.BS)
	}
	ue := &m.net.UEs[e.UE]
	svc := int(ue.Service)
	if svc < 0 || svc >= m.snap.Services {
		return fmt.Errorf("replay: event %d: UE %d requests service %d outside BS %d's %d services",
			e.Seq, e.UE, svc, e.BS, m.snap.Services)
	}
	if m.snap.CRU(e.BS, svc) < ue.CRUDemand || m.snap.RemRRB[e.BS] < link.RRBs {
		return fmt.Errorf("replay: event %d: accept of UE %d overdraws BS %d (need %d CRUs/%d RRBs, have %d/%d)",
			e.Seq, e.UE, e.BS, ue.CRUDemand, link.RRBs, m.snap.CRU(e.BS, svc), m.snap.RemRRB[e.BS])
	}
	m.snap.RemCRU[e.BS*m.snap.Services+svc] -= ue.CRUDemand
	m.snap.RemRRB[e.BS] -= link.RRBs
	m.snap.ServingBS[e.UE] = bs
	st.Phase = PhaseMatched
	st.ServingBS = bs
	return nil
}

// Run replays events over net up to the end of round uptoRound
// (inclusive; <= 0 means the whole trace) and returns the machine. It
// stops cleanly at the next round barrier past uptoRound; an apply
// error is returned alongside the machine reconstructed so far.
func Run(net *mec.Network, events []obs.Event, uptoRound int) (*Machine, error) {
	m := New(net)
	for _, e := range events {
		if uptoRound > 0 && e.Kind == obs.KindRound && e.Round > uptoRound {
			break
		}
		if err := m.Apply(e); err != nil {
			return m, err
		}
	}
	return m, nil
}
