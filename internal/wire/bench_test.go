package wire

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"testing"
	"time"

	"dmra/internal/alloc"
	"dmra/internal/mec"
	"dmra/internal/workload"
)

// benchClusterNet builds the dense city's 25 BSs under 16 times its UEs
// and hotspots: 17,600 UEs, the shape the cluster-dense18k workload runs.
// Few BSs keep the connections per run few; many UEs keep each run long
// enough that coordinator work, not socket setup, dominates.
func benchClusterNet(b testing.TB) *mec.Network {
	cfg := workload.DenseCity()
	cfg.UEs *= 16
	cfg.HotspotCount *= 16
	net_, err := cfg.Build(1)
	if err != nil {
		b.Fatal(err)
	}
	return net_
}

// benchRegions are the coordinator widths BenchmarkCluster compares: the
// single coordinator and the two-region partition.
var benchRegions = []int{1, 2}

func benchCluster(b *testing.B, net_ *mec.Network, regions int) {
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
}

// BenchmarkCluster times a full TCP-cluster run — server startup, every
// framed exchange, shutdown — on the 17,600-UE dense city, at one and two
// region coordinators. The parity tests guarantee both produce identical
// results; this measures only the wall-clock effect of the partition.
func BenchmarkCluster(b *testing.B) {
	net_ := benchClusterNet(b)
	for _, regions := range benchRegions {
		b.Run(fmt.Sprintf("densecity-17600ue/regions-%d", regions), func(b *testing.B) { benchCluster(b, net_, regions) })
	}
}

// clusterRunNs times one full cluster run in nanoseconds.
func clusterRunNs(t *testing.T, net_ *mec.Network, regions int) int64 {
	t.Helper()
	start := time.Now()
	if _, err := RunRegionCluster(net_, RegionConfig{DMRA: alloc.DefaultDMRAConfig(), Regions: regions}); err != nil {
		t.Fatal(err)
	}
	return time.Since(start).Nanoseconds()
}

// TestWriteClusterBenchBaseline appends one JSON line to the file named
// by BENCH_BASELINE (skipped when unset): the minimum ns/op of each
// region count's cluster run over a fixed number of samples. Minimum
// rather than testing.Benchmark's mean: every run opens |BS| loopback
// connections, and the TIME_WAIT sockets earlier runs leave behind slow
// later ones, so a mean drifts with the preceding socket churn while the
// minimum tracks the unpolluted cost. Region counts interleave so every
// case faces the same socket-table state. Run via `make bench`;
// scripts/benchdiff.sh gates ns/op regressions.
func TestWriteClusterBenchBaseline(t *testing.T) {
	path := os.Getenv("BENCH_BASELINE")
	if path == "" {
		t.Skip("BENCH_BASELINE not set")
	}
	net_ := benchClusterNet(t)
	const samples = 5
	best := make([]int64, len(benchRegions))
	for i := 0; i < samples; i++ {
		for k, regions := range benchRegions {
			if d := clusterRunNs(t, net_, regions); i == 0 || d < best[k] {
				best[k] = d
			}
		}
	}
	cases := map[string]any{}
	for k, regions := range benchRegions {
		cases[fmt.Sprintf("densecity-17600ue-regions-%d", regions)] = map[string]any{"ns_op": best[k]}
	}
	baseline := map[string]any{
		"time":       time.Now().UTC().Format(time.RFC3339),
		"benchmark":  "BenchmarkCluster",
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"regions":    benchRegions,
		"samples":    samples,
		"cases":      cases,
	}
	data, err := json.Marshal(baseline)
	if err != nil {
		t.Fatal(err)
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if _, err := f.Write(append(data, '\n')); err != nil {
		t.Fatal(err)
	}
	t.Logf("appended BenchmarkCluster baseline to %s", path)
}
