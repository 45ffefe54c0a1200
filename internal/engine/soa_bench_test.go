package engine

import (
	"testing"

	"dmra/internal/workload"
)

// BenchmarkArenaReset times the arena's between-run reset alone at the
// 100k dense-city rung. Before the lazy dirty-region scheme this walked
// every candidate link to refill heap keys and sentinel scores (~44% of
// an observed-run profile); now it is O(UEs + BSs*Services) stamp and
// ledger work, and the steady state must not allocate.
func BenchmarkArenaReset(b *testing.B) {
	net, err := workload.DenseCity().Scale(10).Build(1)
	if err != nil {
		b.Fatal(err)
	}
	cfg := DefaultConfig()
	var a Arena
	// One full run sizes every arena array; the timed loop measures only
	// the reuse-path reset.
	if _, err := a.Run(net, cfg, 0, nil); err != nil {
		b.Fatal(err)
	}
	csr := net.Dense()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a.reset(csr, cfg)
	}
}
