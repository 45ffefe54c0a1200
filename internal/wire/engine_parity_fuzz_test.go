package wire

import (
	"testing"

	"dmra/internal/alloc"
	"dmra/internal/mec"
	"dmra/internal/obs"
	"dmra/internal/protocol"
	"dmra/internal/workload"
)

// fuzzShape derives a randomized-but-buildable scenario from one seed,
// compact enough that spinning one TCP server per BS stays cheap.
func fuzzShape(seed uint64) workload.Config {
	cfg := workload.Default()
	cfg.SPs = int(seed%4) + 1
	cfg.BSsPerSP = int(seed/4%4) + 1
	cfg.Services = int(seed/16%6) + 1
	cfg.ServicesPerBS = cfg.Services
	cfg.UEs = int(seed % 80)
	cfg.Radio.CoverageRadiusM = 200 + float64(seed%7)*40
	if seed%5 == 0 {
		cfg.Placement = workload.PlacementRandom
	}
	cfg.SPCRUPrice = 12
	return cfg
}

// FuzzEngineParity is the three-runtime engine gate: for randomized
// scenario shapes, the in-process solver (internal/alloc), the
// discrete-event message protocol (internal/protocol), and the TCP
// cluster (this package) at a seed-derived region count — all thin
// drivers over internal/engine — must produce the identical assignment,
// and the two message-passing runtimes must emit the identical ordered
// typed event stream. The same seed also drives a lossy protocol run,
// which may diverge from the loss-free matching but must stay feasible
// and quiesce.
func FuzzEngineParity(f *testing.F) {
	for _, seed := range []uint64{0, 1, 7, 42, 137, 5000} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, seed uint64) {
		net_, err := fuzzShape(seed).Build(seed)
		if err != nil {
			t.Skip("unbuildable shape")
		}

		// The solver side runs the SoA arena engine at a seed-derived
		// propose-worker count, so this fuzz also pins the parallel propose
		// phase against both message-passing runtimes.
		sync, err := alloc.NewDMRA(alloc.DefaultDMRAConfig()).
			WithProposeWorkers(1 + int(seed/7%8)).Allocate(net_)
		if err != nil {
			t.Fatalf("seed %d: solver: %v", seed, err)
		}

		protoSink := obs.NewSink(nil, 1<<17)
		protoCfg := protocol.DefaultConfig()
		protoCfg.Obs = obs.NewRecorder(nil, protoSink)
		proto, err := protocol.Run(net_, protoCfg)
		if err != nil {
			t.Fatalf("seed %d: protocol: %v", seed, err)
		}

		// The region count is seed-derived so the fuzzer also explores the
		// multi-coordinator partition: event parity against the protocol
		// runtime below is exactly the region determinism guarantee (only
		// the region attribution in Event.Shard differs).
		wireSink := obs.NewSink(nil, 1<<17)
		cluster, err := RunRegionCluster(net_, RegionConfig{
			DMRA:    alloc.DefaultDMRAConfig(),
			Regions: 1 + int(seed/3%8),
			Obs:     obs.NewRecorder(nil, wireSink),
		})
		if err != nil {
			t.Fatalf("seed %d: cluster: %v", seed, err)
		}

		for u := range sync.Assignment.ServingBS {
			if s, p, w := sync.Assignment.ServingBS[u], proto.Assignment.ServingBS[u],
				cluster.Assignment.ServingBS[u]; s != p || s != w {
				t.Fatalf("seed %d: UE %d assignment diverges: solver %d, protocol %d, wire %d",
					seed, u, s, p, w)
			}
		}

		pe, we := protoSink.Events(), wireSink.Events()
		if int64(len(pe)) != protoSink.Total() || int64(len(we)) != wireSink.Total() {
			t.Fatalf("seed %d: event ring dropped events", seed)
		}
		if len(pe) != len(we) {
			t.Fatalf("seed %d: protocol emitted %d events, wire %d", seed, len(pe), len(we))
		}
		for i := range pe {
			if pe[i].Key() != we[i].Key() || pe[i].Kind != we[i].Kind {
				t.Fatalf("seed %d event %d: protocol %+v vs wire %+v", seed, i, pe[i], we[i])
			}
		}

		// Lossy run: the matching may differ, but Run's internal
		// ValidateAssignment must pass and the protocol must quiesce.
		lossy := protocol.DefaultConfig()
		lossy.DropRate = 0.15
		lossy.LossSeed = seed
		if _, err := protocol.Run(net_, lossy); err != nil {
			t.Fatalf("seed %d: lossy protocol: %v", seed, err)
		}

		// The engine contract behind the parity: every admitted UE's BS is
		// one of its candidates (cloud otherwise).
		for u, b := range cluster.Assignment.ServingBS {
			if b == mec.CloudBS {
				continue
			}
			if _, ok := net_.Link(mec.UEID(u), b); !ok {
				t.Fatalf("seed %d: UE %d admitted by non-candidate BS %d", seed, u, b)
			}
		}
	})
}
