package alloc

import (
	"fmt"
	"math"

	"dmra/internal/engine"
	"dmra/internal/mec"
	"dmra/internal/obs"
)

// NaiveDMRA is the reference Alg. 1 implementation the parity harness
// pins the arena engine, Incremental, the protocol and the region
// cluster against. It shares its DMRA's configuration, observer and
// round hook; only the solve differs.
type NaiveDMRA struct{ *DMRA }

// ForceNaive returns the reference implementation (full Eq. 17 sweep per
// proposal, fresh buffers per round) over d's configuration, observer
// and round hook.
func (d *DMRA) ForceNaive() *NaiveDMRA { return &NaiveDMRA{d} }

// Allocate runs the reference to quiescence.
func (d *NaiveDMRA) Allocate(net *mec.Network) (Result, error) {
	var res Result
	if err := d.AllocateInto(net, &res); err != nil {
		return Result{}, err
	}
	return res, nil
}

// Preference evaluates v_{u,i} (Eq. 17) under the current ledger.
func (d *DMRA) Preference(s *mec.State, l mec.Link) float64 {
	remCRU, remRRBs := s.Book().Residual(l.BS, s.Network().UEs[l.UE].Service)
	return d.cfg.Preference(l, remCRU, remRRBs)
}

// applyVerdicts folds one BS's round verdicts into the run statistics and
// the observability stream. The synchronous solver does not distinguish
// permanent from trim rejects in its event stream: every rejected request
// retries next iteration, where the propose-time feasibility check makes
// exactly that distinction one round later (mirroring the message-passing
// runtimes' permanent/trim split).
func (d *DMRA) applyVerdicts(b mec.BSID, verdicts []engine.Verdict, stats *Stats) {
	for _, v := range verdicts {
		if v.Accepted {
			stats.Accepts++
			if d.obs != nil {
				d.obs.Event(obs.KindAccept, stats.Iterations, int(v.Req.UE), int(b))
			}
		} else {
			stats.Rejects++
			if d.obs != nil {
				d.obs.Event(obs.KindRejectTrim, stats.Iterations, int(v.Req.UE), int(b))
			}
		}
	}
}

// AllocateInto runs the reference Alg. 1 implementation to quiescence,
// writing into res: a full Eq. 17 sweep per proposal over a shrinking
// candidate set, with fresh buffers every round. The parity harness
// asserts the engine matches it bit for bit. Both paths share the
// engine's select phase — the engine/naive split is about how proposals
// are scored, which is the part the engine's propose paths accelerate —
// but the reference runs it on a scratch copy of the BS's row and then
// grants each admission through mec.State.Assign, which checks the
// capacities once more on its own.
func (d *NaiveDMRA) AllocateInto(net *mec.Network, res *Result) error {
	state := mec.NewState(net)
	cands := newCandidateSet(net)
	var stats Stats
	var sel engine.SelectScratch
	var row mec.Book

	// inbox[b] collects the service requests BS b received this iteration.
	inbox := make([][]engine.Request, len(net.BSs))

	var snap *engine.Snapshot
	if d.hook != nil {
		snap = engine.NewSnapshot(net)
	}
	maxRounds := engine.RoundBound(net)
	for {
		stats.Iterations++
		if d.obs != nil {
			d.obs.Event(obs.KindRound, stats.Iterations, -1, -1)
		}

		// --- Propose phase (Alg. 1 lines 3-10) ---
		anyRequest := false
		for u := range net.UEs {
			uid := mec.UEID(u)
			if state.Assigned(uid) {
				continue
			}
			proposed := false
			for !cands.empty(uid) {
				pos, link, ok := d.bestCandidate(state, cands, uid)
				if !ok {
					break
				}
				if state.CanServe(uid, link.BS) {
					ue := &net.UEs[uid]
					inbox[link.BS] = append(inbox[link.BS], engine.Request{
						UE:          uid,
						Service:     ue.Service,
						CRUs:        ue.CRUDemand,
						RRBs:        link.RRBs,
						SameSP:      link.SameSP,
						Fu:          net.CoverCount(uid),
						PricePerCRU: link.PricePerCRU,
					})
					stats.Proposals++
					anyRequest = true
					proposed = true
					if d.obs != nil {
						d.obs.Event(obs.KindPropose, stats.Iterations, u, int(link.BS))
					}
					break
				}
				cands.dropIdx(uid, pos)
			}
			if !proposed && d.obs != nil {
				d.obs.Event(obs.KindCloudFallback, stats.Iterations, u, int(mec.CloudBS))
			}
		}
		if !anyRequest {
			if d.hook != nil {
				engine.Capture(snap, stats.Iterations, state.Book(), state.Snapshot().ServingBS)
				d.hook(snap)
			}
			break
		}

		// --- Select phase (Alg. 1 lines 11-26) ---
		for b := range net.BSs {
			reqs := inbox[b]
			if len(reqs) == 0 {
				continue
			}
			inbox[b] = nil
			book := state.Book()
			row.Reset(book.Services, book.Row(mec.BSID(b)), book.RRB[b:b+1])
			verdicts := d.cfg.SelectRound(&row, 0, reqs, &sel)
			for _, v := range verdicts {
				if !v.Accepted {
					continue
				}
				if err := state.Assign(v.Req.UE, mec.BSID(b)); err != nil {
					return fmt.Errorf("alloc: DMRA admit: %w", err)
				}
			}
			d.applyVerdicts(mec.BSID(b), verdicts, &stats)
		}
		if d.hook != nil {
			engine.Capture(snap, stats.Iterations, state.Book(), state.Snapshot().ServingBS)
			d.hook(snap)
		}
		if d.obs != nil {
			d.observeRound(net, state)
		}

		if stats.Iterations > maxRounds {
			return fmt.Errorf("alloc: DMRA exceeded %d iterations", maxRounds)
		}
	}

	if err := state.CheckInvariants(); err != nil {
		return fmt.Errorf("alloc: DMRA produced invalid state: %w", err)
	}
	res.Assignment = state.SnapshotInto(res.Assignment)
	res.Stats = stats
	return nil
}

// bestCandidate returns the position and link of u's minimum-v candidate.
func (d *DMRA) bestCandidate(s *mec.State, cands *candidateSet, u mec.UEID) (int, mec.Link, bool) {
	bestPos := -1
	var bestLink mec.Link
	bestV := math.Inf(1)
	cands.forEach(s.Network(), u, func(pos int, l mec.Link) {
		if v := d.Preference(s, l); v < bestV {
			bestV, bestPos, bestLink = v, pos, l
		}
	})
	if bestPos < 0 {
		return 0, mec.Link{}, false
	}
	return bestPos, bestLink, true
}

// observeRound publishes the per-round gauges: residual capacity per BS
// (CRUs summed over services, RRBs) and the unmatched-UE count. Called
// once per select phase, only when an observer is attached.
func (d *DMRA) observeRound(net *mec.Network, state *mec.State) {
	book := state.Book()
	for b, rrbs := range book.RRB {
		crus := 0
		for _, c := range book.Row(mec.BSID(b)) {
			crus += int(c)
		}
		d.obs.Residual(b, crus, int(rrbs))
	}
	unmatched := 0
	for u := range net.UEs {
		if !state.Assigned(mec.UEID(u)) {
			unmatched++
		}
	}
	d.obs.Unmatched(unmatched)
}
