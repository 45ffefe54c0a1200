package protocol

import (
	"encoding/binary"
	"hash/fnv"
	"testing"

	"dmra/internal/mec"
)

// assignmentHash is an FNV-64a digest of the serving BS of every UE.
func assignmentHash(a mec.Assignment) uint64 {
	h := fnv.New64a()
	var buf [4]byte
	for _, b := range a.ServingBS {
		binary.LittleEndian.PutUint32(buf[:], uint32(b))
		h.Write(buf[:])
	}
	return h.Sum64()
}

// TestLossyGolden pins lossy runs end to end: the assignment hash, rounds,
// messages, drops and leaked reservations of protocol.Run at two drop
// rates over three scenario and loss seeds. A UE that misses a broadcast
// keeps its older view; any change to how those stale views are kept
// moves these recorded values.
func TestLossyGolden(t *testing.T) {
	golden := []struct {
		drop                             float64
		seed                             uint64
		hash                             uint64
		rounds, messages, dropped, leaks int
	}{
		{drop: 0.15, seed: 1, hash: 0x4e28445cfcfbf4d5, rounds: 13, messages: 3181, dropped: 4676, leaks: 12},
		{drop: 0.15, seed: 2, hash: 0x17c4a3aa50da07e7, rounds: 13, messages: 3409, dropped: 5218, leaks: 10},
		{drop: 0.15, seed: 3, hash: 0xcd96d0ed5d6b8b34, rounds: 13, messages: 3317, dropped: 4968, leaks: 10},
		{drop: 0.3, seed: 1, hash: 0x22421eeead9b7208, rounds: 17, messages: 3736, dropped: 10767, leaks: 38},
		{drop: 0.3, seed: 2, hash: 0x9e986ec1f740500c, rounds: 14, messages: 3926, dropped: 12139, leaks: 46},
		{drop: 0.3, seed: 3, hash: 0x3f07803206aa0881, rounds: 19, messages: 3695, dropped: 10877, leaks: 45},
	}
	for _, g := range golden {
		net := buildNet(t, 600, g.seed)
		cfg := DefaultConfig()
		cfg.DropRate = g.drop
		cfg.LossSeed = g.seed + 100
		res, err := Run(net, cfg)
		if err != nil {
			t.Fatalf("drop=%g seed=%d: %v", g.drop, g.seed, err)
		}
		if h := assignmentHash(res.Assignment); h != g.hash || res.Rounds != g.rounds || res.Messages != g.messages ||
			res.Dropped != g.dropped || res.LeakedReservations != g.leaks {
			t.Errorf("drop=%g seed=%d: hash %#x, %d rounds, %d messages, %d dropped, %d leaked; want %#x, %d, %d, %d, %d",
				g.drop, g.seed, h, res.Rounds, res.Messages, res.Dropped, res.LeakedReservations,
				g.hash, g.rounds, g.messages, g.dropped, g.leaks)
		}
	}
}
