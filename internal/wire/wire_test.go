package wire

import (
	"bytes"
	"encoding/binary"
	"io"
	"testing"
	"time"

	"dmra/internal/alloc"
	"dmra/internal/mec"
	"dmra/internal/workload"
)

func TestFrameRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	in := RoundRequest{
		Round: 3,
		Requests: []Request{
			{UE: 7, Service: 2, CRUs: 4, RRBs: 2, SameSP: true, Fu: 5, PricePerCRU: 2.4},
		},
	}
	if err := WriteFrame(&buf, &in); err != nil {
		t.Fatal(err)
	}
	var out RoundRequest
	if err := ReadFrame(&buf, &out); err != nil {
		t.Fatal(err)
	}
	if out.Round != 3 || len(out.Requests) != 1 || out.Requests[0] != in.Requests[0] {
		t.Fatalf("round trip mismatch: %+v", out)
	}
}

func TestFrameMultipleMessages(t *testing.T) {
	var buf bytes.Buffer
	for i := 1; i <= 5; i++ {
		if err := WriteFrame(&buf, &RoundRequest{Round: i}); err != nil {
			t.Fatal(err)
		}
	}
	for i := 1; i <= 5; i++ {
		var out RoundRequest
		if err := ReadFrame(&buf, &out); err != nil {
			t.Fatal(err)
		}
		if out.Round != i {
			t.Fatalf("message %d: round %d", i, out.Round)
		}
	}
	var out RoundRequest
	if err := ReadFrame(&buf, &out); err != io.EOF {
		t.Fatalf("expected EOF after drain, got %v", err)
	}
}

func TestReadFrameRejectsOversize(t *testing.T) {
	var buf bytes.Buffer
	var hdr [4]byte
	binary.BigEndian.PutUint32(hdr[:], maxFrame+1)
	buf.Write(hdr[:])
	var out RoundRequest
	if err := ReadFrame(&buf, &out); err == nil {
		t.Fatal("oversize frame accepted")
	}
}

func TestReadFrameTruncatedPayload(t *testing.T) {
	var buf bytes.Buffer
	var hdr [4]byte
	binary.BigEndian.PutUint32(hdr[:], 100)
	buf.Write(hdr[:])
	buf.WriteString("short")
	var out RoundRequest
	if err := ReadFrame(&buf, &out); err == nil {
		t.Fatal("truncated frame accepted")
	}
}

func TestReadFrameBadPayload(t *testing.T) {
	var buf bytes.Buffer
	payload := []byte("{not json")
	var hdr [4]byte
	binary.BigEndian.PutUint32(hdr[:], uint32(len(payload)))
	buf.Write(hdr[:])
	buf.Write(payload)
	var out RoundRequest
	if err := ReadFrame(&buf, &out); err == nil {
		t.Fatal("garbage payload accepted")
	}
}

func buildNet(t testing.TB, ues int, seed uint64) *mec.Network {
	t.Helper()
	cfg := workload.Default()
	cfg.UEs = ues
	net, err := cfg.Build(seed)
	if err != nil {
		t.Fatal(err)
	}
	return net
}

// TestClusterParityWithSolver is the package's core check: DMRA over real
// TCP sockets produces the identical matching to the in-memory solver.
func TestClusterParityWithSolver(t *testing.T) {
	for _, n := range []int{0, 40, 250} {
		for seed := uint64(1); seed <= 2; seed++ {
			net := buildNet(t, n, seed)
			sync, err := alloc.NewDMRA(alloc.DefaultDMRAConfig()).Allocate(net)
			if err != nil {
				t.Fatal(err)
			}
			dist, err := RunRegionCluster(net, testRegionConfig(alloc.DefaultDMRAConfig()))
			if err != nil {
				t.Fatal(err)
			}
			for u := range sync.Assignment.ServingBS {
				if sync.Assignment.ServingBS[u] != dist.Assignment.ServingBS[u] {
					t.Fatalf("n=%d seed=%d UE %d: solver %d vs cluster %d",
						n, seed, u, sync.Assignment.ServingBS[u], dist.Assignment.ServingBS[u])
				}
			}
		}
	}
}

func TestClusterParityAcrossConfigs(t *testing.T) {
	net := buildNet(t, 150, 5)
	for _, cfg := range []alloc.DMRAConfig{
		{Rho: 0, SPPriority: true, FuTieBreak: true},
		{Rho: 800, SPPriority: false, FuTieBreak: false},
	} {
		sync, err := alloc.NewDMRA(cfg).Allocate(net)
		if err != nil {
			t.Fatal(err)
		}
		dist, err := RunRegionCluster(net, testRegionConfig(cfg))
		if err != nil {
			t.Fatal(err)
		}
		for u := range sync.Assignment.ServingBS {
			if sync.Assignment.ServingBS[u] != dist.Assignment.ServingBS[u] {
				t.Fatalf("cfg %+v UE %d differs", cfg, u)
			}
		}
	}
}

func TestClusterAccounting(t *testing.T) {
	net := buildNet(t, 120, 3)
	res, err := RunRegionCluster(net, testRegionConfig(alloc.DefaultDMRAConfig()))
	if err != nil {
		t.Fatal(err)
	}
	if res.Rounds < 1 {
		t.Errorf("rounds = %d", res.Rounds)
	}
	if res.Frames == 0 {
		t.Error("no frames counted")
	}
	if res.BytesSent == 0 || res.BytesReceived == 0 {
		t.Errorf("byte counters: sent=%d received=%d", res.BytesSent, res.BytesReceived)
	}
	if err := mec.ValidateAssignment(net, res.Assignment); err != nil {
		t.Fatal(err)
	}
}

func TestBSServerLifecycle(t *testing.T) {
	s, err := StartBS(0, []int{100}, 55, alloc.DefaultDMRAConfig(), time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if s.Addr() == "" {
		t.Error("no address")
	}
	// Close without any connection must not hang or error.
	if err := s.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	// Double close is safe.
	if err := s.Close(); err != nil {
		t.Fatalf("double close: %v", err)
	}
}

func TestClusterRepeatable(t *testing.T) {
	net := buildNet(t, 100, 9)
	a, err := RunRegionCluster(net, testRegionConfig(alloc.DefaultDMRAConfig()))
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunRegionCluster(net, testRegionConfig(alloc.DefaultDMRAConfig()))
	if err != nil {
		t.Fatal(err)
	}
	if a.Rounds != b.Rounds || a.Frames != b.Frames {
		t.Fatalf("cluster runs differ: %+v vs %+v", a, b)
	}
	for u := range a.Assignment.ServingBS {
		if a.Assignment.ServingBS[u] != b.Assignment.ServingBS[u] {
			t.Fatalf("UE %d differs across identical cluster runs", u)
		}
	}
}
