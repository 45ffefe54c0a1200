package wire

import (
	"fmt"
	"testing"

	"dmra/internal/alloc"
	"dmra/internal/workload"
)

// BenchmarkCluster times a full TCP-cluster run — server startup, every
// framed exchange, shutdown — on the 17,600-UE dense city, at one and two
// region coordinators. The parity tests guarantee both produce identical
// results; this measures only the wall-clock effect of the partition.
//
// The network is the dense city's 25 BSs under 16 times its UEs and
// hotspots, the shape the cluster-dense18k workload runs: few BSs keep
// the connections per run few; many UEs keep each run long enough that
// coordinator work, not socket setup, dominates.
func BenchmarkCluster(b *testing.B) {
	cfg := workload.DenseCity()
	cfg.UEs *= 16
	cfg.HotspotCount *= 16
	net_, err := cfg.Build(1)
	if err != nil {
		b.Fatal(err)
	}
	for _, regions := range []int{1, 2} {
		b.Run(fmt.Sprintf("densecity-17600ue/regions-%d", regions), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				res, err := RunRegionCluster(net_, RegionConfig{DMRA: alloc.DefaultDMRAConfig(), Regions: regions})
				if err != nil {
					b.Fatal(err)
				}
				if res.Rounds < 1 {
					b.Fatal("no rounds")
				}
			}
		})
	}
}
