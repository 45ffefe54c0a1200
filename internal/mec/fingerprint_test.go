package mec_test

import (
	"encoding/binary"
	"fmt"
	"hash"
	"hash/fnv"
	"math"
	"testing"

	"dmra/internal/mec"
	"dmra/internal/workload"
)

// storeFingerprint hashes every per-UE and per-candidate column a
// NewNetwork build writes: Off, Fu, BS, RRBs, the bits of Price,
// DistanceM and SINR, and SameSP. Two stores share a fingerprint only if
// they agree bit for bit (up to a 64-bit collision).
func storeFingerprint(h hash.Hash64, net *mec.Network) {
	c := net.Dense()
	var buf [8]byte
	put32 := func(xs []int32) {
		for _, x := range xs {
			binary.LittleEndian.PutUint32(buf[:4], uint32(x))
			h.Write(buf[:4])
		}
	}
	putF := func(xs []float64) {
		for _, x := range xs {
			binary.LittleEndian.PutUint64(buf[:], math.Float64bits(x))
			h.Write(buf[:])
		}
	}
	put32(c.Off)
	put32(c.Fu)
	put32(c.BS)
	put32(c.RRBs)
	putF(c.Price)
	putF(c.DistanceM)
	putF(c.SINR)
	for _, s := range c.SameSP {
		buf[0] = 0
		if s {
			buf[0] = 1
		}
		h.Write(buf[:1])
	}
}

// TestStoreFingerprints pins the candidate store of the four benchmark
// cities and of 3,000 generator shapes to fingerprints recorded before
// the link kernel replaced the math.Pow/math.Log2 chain, at GOMAXPROCS 1
// and 2. A changed rounding anywhere in the per-link radio math, a
// reordered candidate or a dropped link changes a fingerprint.
func TestStoreFingerprints(t *testing.T) {
	spread := workload.DenseCity().Scale(5)
	spread.HotspotCount *= 4
	cluster := workload.DenseCity()
	cluster.UEs *= 16
	cluster.HotspotCount *= 16
	cities := []struct {
		name string
		cfg  workload.Config
		seed uint64
		want uint64
	}{
		{"city100k-seed1", workload.DenseCity().Scale(10), 1, 0x15d768e16740a4ff},
		{"city100k-seed2", workload.DenseCity().Scale(10), 2, 0x58cb66155f7b3e89},
		{"spread28k", spread, 1, 0x937568647719c6ac},
		{"cluster18k", cluster, 1, 0xff0c705b02522ef1},
	}
	atProcs(t, func(t *testing.T) {
		for _, tc := range cities {
			net, err := tc.cfg.Build(tc.seed)
			if err != nil {
				t.Fatalf("%s: build: %v", tc.name, err)
			}
			h := fnv.New64a()
			storeFingerprint(h, net)
			if got := h.Sum64(); got != tc.want {
				t.Errorf("%s: store fingerprint %#x, want %#x", tc.name, got, tc.want)
			}
		}
		// One running hash over every shape, its build error included,
		// and a count of the shadowed ones so the corpus keeps covering
		// the shadowing path.
		h := fnv.New64a()
		shadowed := 0
		for seed := uint64(0); seed < 3000; seed++ {
			cfg := workload.RandomShape(seed)
			if cfg.Radio.ShadowingStdDB > 0 {
				shadowed++
			}
			net, err := cfg.Build(seed)
			if err != nil {
				fmt.Fprintf(h, "shape %d: %v\n", seed, err)
				continue
			}
			storeFingerprint(h, net)
		}
		if got, want := h.Sum64(), uint64(0x7528936ca01609d9); got != want {
			t.Errorf("RandomShape 0-2999: store fingerprint %#x, want %#x", got, want)
		}
		if shadowed != 865 {
			t.Errorf("RandomShape 0-2999: %d shadowed shapes, want 865", shadowed)
		}
	})
}
