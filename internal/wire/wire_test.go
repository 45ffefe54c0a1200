package wire

import (
	"bytes"
	"encoding/binary"
	"io"
	"net"
	"strings"
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

// TestBSServerRejectsBadRequests sends a one-service BS requests its
// select round cannot take: a service it does not serve (which used to
// panic indexing its book, taking the process down) and negative
// demands. Each gets an in-band error frame naming the problem, the
// book stays untouched, the server keeps answering, and Close reports
// the first failure. Demands past int32 are valid requests no BS can
// fit: they get a permanent reject, and the book is untouched too.
func TestBSServerRejectsBadRequests(t *testing.T) {
	s, err := StartBS(0, []int{10}, 10, alloc.DefaultDMRAConfig(), time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	conn, err := net.Dial("tcp", s.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	bad := []struct {
		req  Request
		want string
	}{
		{Request{UE: 3, Service: 5, CRUs: 1, RRBs: 1}, "service 5"},
		{Request{UE: 3, Service: -1, CRUs: 1, RRBs: 1}, "service -1"},
		{Request{UE: 4, Service: 0, CRUs: -3, RRBs: 1}, "-3 CRUs"},
		{Request{UE: 4, Service: 0, CRUs: 1, RRBs: -2}, "-2 RRBs"},
		{Request{UE: 6, Service: 0, CRUs: 1 << 40, RRBs: 1}, ""},
		{Request{UE: 6, Service: 0, CRUs: 1, RRBs: 1 << 40}, ""},
	}
	for i, c := range bad {
		var resp RoundResponse
		if err := exchange(conn, time.Second, &RoundRequest{Round: i + 1, Requests: []Request{c.req}}, &resp); err != nil {
			t.Fatalf("%+v: exchange: %v", c.req, err)
		}
		if c.want == "" {
			if resp.Error != "" || len(resp.Verdicts) != 1 || resp.Verdicts[0].Accepted || !resp.Verdicts[0].Permanent ||
				resp.RemainingCRU[0] != 10 || resp.RemainingRRBs != 10 {
				t.Fatalf("%+v: response %+v, want a permanent reject and the book untouched", c.req, resp)
			}
			continue
		}
		if !strings.Contains(resp.Error, c.want) || len(resp.Verdicts) != 0 {
			t.Fatalf("%+v: response %+v, want an error naming %q", c.req, resp, c.want)
		}
	}
	var resp RoundResponse
	ok := RoundRequest{Round: 9, Requests: []Request{{UE: 5, Service: 0, CRUs: 4, RRBs: 3}}}
	if err := exchange(conn, time.Second, &ok, &resp); err != nil {
		t.Fatalf("valid request after the bad ones: %v", err)
	}
	if resp.Error != "" || len(resp.Verdicts) != 1 || !resp.Verdicts[0].Accepted ||
		resp.RemainingCRU[0] != 6 || resp.RemainingRRBs != 7 {
		t.Fatalf("valid request after the bad ones: %+v, want UE 5 admitted against the full book", resp)
	}
	conn.Close()
	if err := s.Close(); err == nil || !strings.Contains(err.Error(), "service 5") {
		t.Fatalf("close: %v, want the first bad request's error", err)
	}
}

// TestStartBSRejectsCapacityPastInt32 requires StartBS to refuse a
// capacity its int32 book cannot hold, instead of letting it wrap.
func TestStartBSRejectsCapacityPastInt32(t *testing.T) {
	for _, c := range []struct {
		cru  []int
		rrbs int
		want string
	}{
		{[]int{10, -1}, 10, "service 1 capacity -1"},
		{[]int{1 << 31}, 10, "service 0 capacity 2147483648"},
		{[]int{10}, -5, "RRB capacity -5"},
		{[]int{10}, 1 << 40, "RRB capacity 1099511627776"},
	} {
		s, err := StartBS(3, c.cru, c.rrbs, alloc.DefaultDMRAConfig(), time.Second)
		if err == nil {
			s.Close()
			t.Fatalf("StartBS(%v, %d) accepted", c.cru, c.rrbs)
		}
		if !strings.Contains(err.Error(), c.want) || !strings.Contains(err.Error(), "BS 3") {
			t.Fatalf("StartBS(%v, %d): %v, want an error naming BS 3 and %q", c.cru, c.rrbs, err, c.want)
		}
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
