package replay

import (
	"testing"

	"dmra/internal/alloc"
	"dmra/internal/obs"
	"dmra/internal/workload"
)

// BenchmarkReplay times full-trace state reconstruction of the dense
// convergence trace of one observed solver run over a contended 800-UE
// scenario, and reports the events/sec replay throughput — the figure
// that bounds how fast dmra-debug can seek through a long run.
func BenchmarkReplay(b *testing.B) {
	cfg := workload.Default()
	cfg.UEs = 800
	net, err := cfg.Build(1)
	if err != nil {
		b.Fatal(err)
	}
	sink := obs.NewSink(nil, 1<<20)
	d := alloc.NewDMRA(alloc.DefaultDMRAConfig()).WithObserver(obs.NewRecorder(nil, sink))
	if _, err := d.Allocate(net); err != nil {
		b.Fatal(err)
	}
	events := sink.Events()
	if int64(len(events)) != sink.Total() {
		b.Fatalf("ring dropped events: %d of %d", len(events), sink.Total())
	}
	var applied int64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m := New(net)
		for _, e := range events {
			if err := m.Apply(e); err != nil {
				b.Fatal(err)
			}
		}
		applied += m.Events()
	}
	b.ReportMetric(float64(applied)/b.Elapsed().Seconds(), "events/sec")
}
