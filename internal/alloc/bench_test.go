package alloc

import (
	"encoding/json"
	"os"
	"runtime"
	"testing"
	"time"

	"dmra/internal/mec"
	"dmra/internal/workload"
)

// benchScenarios are the three densities BenchmarkAllocate pins: a sparse
// suburb, the paper's default §VI population, and the rush-hour dense-city
// scenario of examples/densecity (hotspot-clustered demand, Zipf services).
func benchScenarios() []struct {
	name string
	cfg  workload.Config
} {
	sparse := workload.Default()
	sparse.UEs = 300
	def := workload.Default()
	def.UEs = 900
	return []struct {
		name string
		cfg  workload.Config
	}{
		{"sparse-300ue", sparse},
		{"default-900ue", def},
		{"densecity-1100ue", workload.DenseCity()},
	}
}

// benchScaledScenarios are the constant-density dense-city rungs for
// the SoA arena engine: the 100k mid-rung and the million-UE headline
// case. Scale factors are edge multipliers (UE count grows with the
// square): ×10 is 110,000 UEs over 2,500 BSs, ×31 is 1,057,100 UEs over
// 24,025 BSs, both at the base scenario's local density. The 1M rung is
// skipped under -short so check.sh's bench smoke stays fast; run it via
// `make bench-1m`.
func benchScaledScenarios() []struct {
	name  string
	scale int
	short bool
} {
	return []struct {
		name  string
		scale int
		short bool
	}{
		{"densecity-100k", 10, false},
		{"densecity-1M", 31, true},
	}
}

func benchNet(b testing.TB, cfg workload.Config) *mec.Network {
	net, err := cfg.Build(1)
	if err != nil {
		b.Fatal(err)
	}
	return net
}

func benchAllocate(b *testing.B, d *DMRA, net *mec.Network) {
	var res Result
	// Warm the arena pool and res's backing so the timed loop measures
	// steady state.
	if err := d.AllocateInto(net, &res); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := d.AllocateInto(net, &res); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAllocate times the cached DMRA engine at three scenario
// densities. With a nil observer the steady-state hot path must not
// allocate (allocs/op = 0).
func BenchmarkAllocate(b *testing.B) {
	for _, sc := range benchScenarios() {
		net := benchNet(b, sc.cfg)
		b.Run(sc.name, func(b *testing.B) {
			benchAllocate(b, NewDMRA(DefaultDMRAConfig()), net)
		})
	}
	for _, sc := range benchScaledScenarios() {
		b.Run(sc.name, func(b *testing.B) {
			if sc.short && testing.Short() {
				b.Skipf("%s skipped under -short (run via make bench-1m)", sc.name)
			}
			// Built inside the sub-benchmark (untimed: benchAllocate resets
			// the timer) so filtered and -short runs never pay for it.
			net := benchNet(b, workload.DenseCity().Scale(sc.scale))
			benchAllocate(b, NewDMRA(DefaultDMRAConfig()), net)
		})
	}
}

// BenchmarkAllocateNaive times the reference implementation on the same
// scenarios; the ratio to BenchmarkAllocate is the hot-path win.
func BenchmarkAllocateNaive(b *testing.B) {
	for _, sc := range benchScenarios() {
		net := benchNet(b, sc.cfg)
		b.Run(sc.name, func(b *testing.B) {
			benchAllocate(b, NewDMRA(DefaultDMRAConfig()).ForceNaive(), net)
		})
	}
}

// TestWriteAllocBenchBaseline appends one JSON line per scenario density
// to the file named by BENCH_BASELINE (skipped when unset): cached and
// naive ns/op, the speedup, and cached allocs/op. Run via `make bench`.
func TestWriteAllocBenchBaseline(t *testing.T) {
	path := os.Getenv("BENCH_BASELINE")
	if path == "" {
		t.Skip("BENCH_BASELINE not set")
	}
	cases := map[string]any{}
	record := func(name string, net *mec.Network) {
		cached := testing.Benchmark(func(b *testing.B) {
			benchAllocate(b, NewDMRA(DefaultDMRAConfig()), net)
		})
		naive := testing.Benchmark(func(b *testing.B) {
			benchAllocate(b, NewDMRA(DefaultDMRAConfig()).ForceNaive(), net)
		})
		cases[name] = map[string]any{
			"ns_op":       cached.NsPerOp(),
			"naive_ns_op": naive.NsPerOp(),
			"speedup":     float64(naive.NsPerOp()) / float64(cached.NsPerOp()),
			"allocs_op":   cached.AllocsPerOp(),
		}
	}
	for _, sc := range benchScenarios() {
		record(sc.name, benchNet(t, sc.cfg))
	}
	record("densecity-100k", benchNet(t, workload.DenseCity().Scale(10)))
	baseline := map[string]any{
		"time":       time.Now().UTC().Format(time.RFC3339),
		"benchmark":  "BenchmarkAllocate",
		"gomaxprocs": runtime.GOMAXPROCS(0),
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
	t.Logf("appended BenchmarkAllocate baseline to %s", path)
}

// TestWriteAlloc1MBenchBaseline appends the million-UE record — full
// scenario construction and the steady-state match, ns/op and allocs/op
// — as a "BenchmarkAllocate1M" line to the file named by BENCH_BASELINE
// (skipped when unset). It is deliberately not part of `make bench`:
// one build-plus-match cycle costs several seconds, so it has its own
// target, `make bench-1m`, and its own benchdiff series.
func TestWriteAlloc1MBenchBaseline(t *testing.T) {
	path := os.Getenv("BENCH_BASELINE")
	if path == "" {
		t.Skip("BENCH_BASELINE not set")
	}
	cfg := workload.DenseCity().Scale(31)
	build := testing.Benchmark(func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := cfg.Build(1); err != nil {
				b.Fatal(err)
			}
		}
	})
	net := benchNet(t, cfg)
	soa := testing.Benchmark(func(b *testing.B) {
		benchAllocate(b, NewDMRA(DefaultDMRAConfig()), net)
	})
	baseline := map[string]any{
		"time":       time.Now().UTC().Format(time.RFC3339),
		"benchmark":  "BenchmarkAllocate1M",
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"cases": map[string]any{
			"densecity-1M": map[string]any{
				"ns_op":       soa.NsPerOp(),
				"build_ns_op": build.NsPerOp(),
				"allocs_op":   soa.AllocsPerOp(),
				"ues":         cfg.UEs,
				"bss":         cfg.SPs * cfg.BSsPerSP,
			},
		},
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
	t.Logf("appended BenchmarkAllocate1M baseline to %s", path)
}
