package engine

import "dmra/internal/mec"

// RoundBound returns the deferred-acceptance progress bound on Alg. 1
// rounds for net: the total number of candidate links plus one.
//
// Every round that carries at least one request makes at least one unit
// of irreversible progress at some BS: either a request is admitted (its
// link is settled and the UE never proposes again) or a candidate link is
// permanently removed (a view-infeasible drop at propose time, or a
// permanent reject at select time). A trimmed request makes no progress
// itself — the UE keeps the BS and re-proposes — but a trim can only
// happen behind an admission at the same BS in the same round, so the
// round still progresses. Each link is settled or removed at most once,
// so the number of rounds with requests is at most Σ_u |B_u|, plus one
// final empty round to observe quiescence.
//
// This bound holds for any interleaving of admissions, permanent rejects,
// and trim-retries, including runs where UE-local views have diverged
// from BS ledgers (message loss, restarted servers). The tighter-looking
// |UE|+1 bound the runtimes used historically is only valid when views
// are exact, which trim-retry under divergence does not guarantee — see
// the adversarial test in internal/wire.
func RoundBound(net *mec.Network) int {
	total := 0
	for u := range net.UEs {
		lo, hi := net.CandRange(mec.UEID(u))
		total += int(hi - lo)
	}
	return total + 1
}
