package wire

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"dmra/internal/alloc"
	"dmra/internal/engine"
	"dmra/internal/mec"
	"dmra/internal/obs"
	"dmra/internal/workload"
)

// testRegionCount returns the region count chaos-style tests run under.
// scripts/check.sh sweeps DMRA_TEST_REGIONS so the recovery tests double
// as multi-coordinator tests; unset, they use def.
func testRegionCount(def int) int {
	if v := os.Getenv("DMRA_TEST_REGIONS"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil {
			panic("DMRA_TEST_REGIONS must be an integer, got " + v)
		}
		return n
	}
	return def
}

// setAfterRoundHook installs a round-barrier hook for one test and removes
// it on cleanup. Tests using it must not run in parallel (package global).
func setAfterRoundHook(t *testing.T, hook func(round int) error) {
	t.Helper()
	testHookAfterRound = hook
	t.Cleanup(func() { testHookAfterRound = nil })
}

// TestRegionHomeBalance pins the home rule on the benchmark's cluster
// city (the dense city with UEs and hotspots ×16): at two regions no
// region homes more than 60% of the UEs, so neither half of the parallel
// propose phase carries the run. Homing by lowest candidate BS ID put
// 78-81% of them in region 0 on these seeds. Every UE is homed exactly
// once, in ascending order, in the region of a nearest candidate BS.
func TestRegionHomeBalance(t *testing.T) {
	for seed := uint64(1); seed <= 4; seed++ {
		cfg := workload.DenseCity()
		cfg.UEs *= 16
		cfg.HotspotCount *= 16
		net_, err := cfg.Build(seed)
		if err != nil {
			t.Fatalf("seed %d: build: %v", seed, err)
		}
		regionOf, regionUEs, _, err := partition(net_, 2)
		if err != nil {
			t.Fatalf("seed %d: partition: %v", seed, err)
		}
		homed := 0
		for r, ues := range regionUEs {
			if share := float64(len(ues)) / float64(len(net_.UEs)); share > 0.6 {
				t.Errorf("seed %d: region %d homes %d of %d UEs (%.0f%%), want at most 60%%",
					seed, r, len(ues), len(net_.UEs), 100*share)
			}
			for i, u := range ues {
				if i > 0 && ues[i-1] >= u {
					t.Fatalf("seed %d: region %d's UEs not ascending at %d", seed, r, i)
				}
				lo, hi := net_.CandRange(mec.UEID(u))
				if hi == lo {
					continue
				}
				nearest := net_.LinkAt(mec.UEID(u), lo).DistanceM
				for k := lo + 1; k < hi; k++ {
					nearest = min(nearest, net_.LinkAt(mec.UEID(u), k).DistanceM)
				}
				home := false
				for k := lo; k < hi; k++ {
					if l := net_.LinkAt(mec.UEID(u), k); l.DistanceM == nearest && regionOf[l.BS] == r {
						home = true
					}
				}
				if !home {
					t.Fatalf("seed %d: UE %d homed in region %d, which holds none of its nearest BSs", seed, u, r)
				}
			}
			homed += len(ues)
		}
		if homed != len(net_.UEs) {
			t.Fatalf("seed %d: %d UEs homed, want %d", seed, homed, len(net_.UEs))
		}
	}
}

// TestRegionClusterTopology checks the geographic partition and its
// accounting: every region owns base stations, boundary UEs exist once the
// map is split, region counts clamp to the BS count, and each region
// records its exchange latency histogram.
func TestRegionClusterTopology(t *testing.T) {
	net_ := buildNet(t, 200, 7)
	reg := obs.NewRegistry()
	res, err := RunRegionCluster(net_, RegionConfig{
		DMRA:    alloc.DefaultDMRAConfig(),
		Regions: 4,
		Obs:     obs.NewRecorder(reg, nil),
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.BSRegions) != len(net_.BSs) {
		t.Fatalf("BSRegions has %d entries for %d BSs", len(res.BSRegions), len(net_.BSs))
	}
	owned := make([]int, res.Regions)
	for b, r := range res.BSRegions {
		if r < 0 || r >= res.Regions {
			t.Fatalf("BS %d in region %d, outside [0, %d)", b, r, res.Regions)
		}
		owned[r]++
	}
	for r, n := range owned {
		if n == 0 {
			t.Errorf("region %d owns no base stations", r)
		}
	}
	// With full-coverage radii and the map split four ways, some UEs must
	// see base stations of more than one region.
	if res.BoundaryUEs == 0 {
		t.Error("no boundary UEs on a four-way split of a full-coverage lattice")
	}
	for r := 0; r < res.Regions; r++ {
		name := obs.Label("wire_region_round_seconds", "region", strconv.Itoa(r))
		if reg.Histogram(name, obs.DefaultLatencyBuckets()).Count() == 0 {
			t.Errorf("region %d recorded no round latencies", r)
		}
	}

	// Region counts beyond the BS count clamp down to one coordinator per
	// BS instead of spinning empty regions.
	clamped, err := RunRegionCluster(net_, RegionConfig{DMRA: alloc.DefaultDMRAConfig(), Regions: 10_000})
	if err != nil {
		t.Fatal(err)
	}
	if clamped.Regions != len(net_.BSs) {
		t.Fatalf("Regions=10000 ran %d coordinators, want clamp to %d BSs", clamped.Regions, len(net_.BSs))
	}
}

// TestRegionClusterCheckpointResume is the durability gate: a run killed
// at a round barrier must resume from its checkpoint file to the identical
// result — assignment, rounds, frames, and per-BS byte totals.
func TestRegionClusterCheckpointResume(t *testing.T) {
	net_ := buildNet(t, 180, 5)
	cfg := RegionConfig{DMRA: alloc.DefaultDMRAConfig(), Regions: testRegionCount(3)}

	base, err := RunRegionCluster(net_, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if base.Rounds < 2 {
		t.Fatalf("scenario quiesced in %d rounds; the mid-run kill needs at least 2", base.Rounds)
	}

	// Kill the coordinator at the first round barrier, after the
	// checkpoint for round 1 is on disk.
	path := filepath.Join(t.TempDir(), "run.ckpt")
	killed := cfg
	killed.CheckpointPath = path
	setAfterRoundHook(t, func(round int) error {
		if round == 1 {
			return errKilled
		}
		return nil
	})
	if _, err := RunRegionCluster(net_, killed); !errors.Is(err, errKilled) {
		t.Fatalf("killed run returned %v, want errKilled", err)
	}
	testHookAfterRound = nil

	cp, err := LoadCheckpoint(path)
	if err != nil {
		t.Fatal(err)
	}
	if cp.Round != 1 {
		t.Fatalf("checkpoint at round %d, want 1", cp.Round)
	}

	resumed := cfg
	resumed.CheckpointPath = path
	resumed.Resume = cp
	res, err := RunRegionCluster(net_, resumed)
	if err != nil {
		t.Fatal(err)
	}
	if res.Rounds != base.Rounds || res.Frames != base.Frames {
		t.Fatalf("resumed rounds/frames %d/%d, uninterrupted %d/%d",
			res.Rounds, res.Frames, base.Rounds, base.Frames)
	}
	for u := range base.Assignment.ServingBS {
		if res.Assignment.ServingBS[u] != base.Assignment.ServingBS[u] {
			t.Fatalf("resumed UE %d assigned %d, uninterrupted %d",
				u, res.Assignment.ServingBS[u], base.Assignment.ServingBS[u])
		}
	}
	if res.BytesSent != base.BytesSent || res.BytesReceived != base.BytesReceived {
		t.Fatalf("resumed bytes %d/%d, uninterrupted %d/%d",
			res.BytesSent, res.BytesReceived, base.BytesSent, base.BytesReceived)
	}
	for b := range base.PerBS {
		if res.PerBS[b] != base.PerBS[b] {
			t.Fatalf("resumed BS %d traffic %+v, uninterrupted %+v", b, res.PerBS[b], base.PerBS[b])
		}
	}

	// A checkpoint from another scenario shape must be refused, not
	// resumed into nonsense ledgers.
	bad := *cp
	bad.Services++
	mismatch := cfg
	mismatch.Resume = &bad
	if _, err := RunRegionCluster(net_, mismatch); err == nil ||
		!strings.Contains(err.Error(), "does not match") {
		t.Fatalf("mismatched checkpoint: got %v, want a shape error", err)
	}
}

// TestRegionClusterChaosCrashRecovery is the recovery gate, run under
// -race by the region-parity check gate: the busiest BS server is killed
// at the first round barrier mid-run. The coordinator must detect the
// crash through the deadline machinery, re-admit every UE the dead BS was
// serving (they re-match elsewhere or fall back to the cloud), restart the
// server after its grace period, and still converge to a valid matching.
func TestRegionClusterChaosCrashRecovery(t *testing.T) {
	for _, seed := range []uint64{3, 9} {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			net_ := buildNet(t, 150, seed)

			var mu sync.Mutex
			servers := map[mec.BSID]*BSServer{}
			setStartHook(t, func(s *BSServer) {
				mu.Lock()
				servers[s.id] = s
				mu.Unlock()
			})

			// Pick the BS serving the most UEs after round 1 as the victim
			// (seen through the round hook), then kill its server at the
			// round barrier.
			victim := mec.CloudBS
			cfg := RegionConfig{
				DMRA:               alloc.DefaultDMRAConfig(),
				Regions:            testRegionCount(2),
				ExchangeTimeout:    2 * time.Second,
				Recover:            true,
				RestartAfterRounds: 1,
				RoundHook: func(snap *engine.Snapshot) {
					if snap.Round != 1 || victim != mec.CloudBS {
						return
					}
					counts := make([]int, len(snap.RemRRB))
					best, bestN := -1, 0
					for _, b := range snap.ServingBS {
						if b == mec.CloudBS {
							continue
						}
						counts[b]++
						if counts[b] > bestN {
							best, bestN = int(b), counts[b]
						}
					}
					if best >= 0 {
						victim = mec.BSID(best)
					}
				},
			}
			setAfterRoundHook(t, func(round int) error {
				if round == 1 && victim != mec.CloudBS {
					mu.Lock()
					s := servers[victim]
					mu.Unlock()
					s.Close()
				}
				return nil
			})

			res, err := RunRegionCluster(net_, cfg)
			if err != nil {
				t.Fatalf("recovery run failed: %v", err)
			}
			if victim == mec.CloudBS {
				t.Fatal("round 1 admitted no UEs; the chaos scenario is vacuous")
			}
			if res.CrashedBSs < 1 {
				t.Fatalf("killed BS %d was never detected as crashed: %+v", victim, res)
			}
			if res.ReadmittedUEs < 1 {
				t.Fatalf("dead BS %d was serving UEs but none were re-admitted: %+v", victim, res)
			}
			// Every re-admitted UE ends up cloud-served or matched to a
			// live candidate; the run's own ValidateAssignment covers
			// candidate feasibility, and the victim can only serve again
			// after a restart.
			if res.RestartedBSs == 0 {
				for u, b := range res.Assignment.ServingBS {
					if b == victim {
						t.Fatalf("UE %d still assigned to dead, never-restarted BS %d", u, victim)
					}
				}
			}
		})
	}
}

// TestRegionClusterNoGoroutineLeakOnFailure mirrors
// TestClusterNoGoroutineLeakOnFailure at another region count: after a
// region run fails mid-round, every region worker and BS server goroutine
// must exit.
func TestRegionClusterNoGoroutineLeakOnFailure(t *testing.T) {
	setStartHook(t, func(s *BSServer) {
		drainLedger(s, -1) // invalid ledger: select fails on every BS
	})
	before := runtime.NumGoroutine()
	net_ := buildNet(t, 60, 2)
	if _, err := RunRegionCluster(net_, RegionConfig{DMRA: alloc.DefaultDMRAConfig(), Regions: 3}); err == nil {
		t.Fatal("expected the run to fail")
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		if g := runtime.NumGoroutine(); g <= before+2 {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutines: %d before failed run, %d after", before, runtime.NumGoroutine())
		}
		time.Sleep(5 * time.Millisecond)
	}
}
