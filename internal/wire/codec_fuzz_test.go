package wire

import (
	"bytes"
	"encoding/binary"
	"io"
	"net"
	"runtime"
	"testing"
	"time"

	"dmra/internal/alloc"
	"dmra/internal/engine"
	"dmra/internal/mec"
)

// frame prefixes payload with its 4-byte big-endian length.
func frame(payload []byte) []byte {
	return append(binary.BigEndian.AppendUint32(nil, uint32(len(payload))), payload...)
}

// FuzzReadFrame feeds arbitrary bytes to ReadFrame as both message types
// and checks the decoder's contract on untrusted input: it never panics,
// it allocates at most a bounded multiple of the bytes it was given, and
// every frame it accepts re-encodes to exactly the bytes it consumed (the
// encoding is canonical).
func FuzzReadFrame(f *testing.F) {
	f.Add(frame([]byte("{not json")))
	f.Add([]byte{0, 0})
	// A request whose element count promises far more than the payload.
	huge := []byte{tagRequest, 2, 0}
	huge = binary.AppendUvarint(huge, 1<<40)
	f.Add(frame(huge))
	for _, fr := range clusterRoundFrames(f) {
		f.Add(fr)
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		for _, v := range []any{new(RoundRequest), new(RoundResponse)} {
			r := bytes.NewReader(data)
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			err := ReadFrame(r, v)
			runtime.ReadMemStats(&after)
			// Decoded elements take at most 8 bytes per payload byte, and
			// the payload buffer grows at most to twice what arrived.
			if got, limit := after.TotalAlloc-before.TotalAlloc, uint64(12*len(data)+4*eagerFrame); got > limit {
				t.Fatalf("%T: allocated %d bytes decoding %d input bytes (limit %d)", v, got, len(data), limit)
			}
			if err != nil {
				continue
			}
			consumed := len(data) - r.Len()
			var out bytes.Buffer
			if werr := WriteFrame(&out, v); werr != nil {
				t.Fatalf("%T: re-encode accepted frame: %v", v, werr)
			}
			if !bytes.Equal(out.Bytes(), data[:consumed]) {
				t.Fatalf("%T: accepted frame re-encodes differently:\n in  %x\n out %x", v, data[:consumed], out.Bytes())
			}
		}
	})
}

// recordingConn captures every byte written to and read from a conn.
type recordingConn struct {
	net.Conn
	w, r bytes.Buffer
}

func (c *recordingConn) Write(p []byte) (int, error) {
	c.w.Write(p)
	return c.Conn.Write(p)
}

func (c *recordingConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.r.Write(p[:n])
	return n, err
}

// clusterRoundFrames returns the request and response frames of the
// first round of a small cluster run: every UE proposes to its preferred
// BS, and each BS server answers its batch.
func clusterRoundFrames(tb testing.TB) [][]byte {
	tb.Helper()
	net_ := buildNet(tb, 60, 1)
	cfg := alloc.DefaultDMRAConfig()
	prop := engine.NewProposer(net_, cfg)
	batches := make([][]Request, len(net_.BSs))
	var swept uint64
	for u := range net_.UEs {
		if req, b, ok := prop.Propose(mec.UEID(u), &swept); ok {
			batches[b] = append(batches[b], req)
		}
	}
	var frames [][]byte
	for b, batch := range batches {
		if len(batch) == 0 {
			continue
		}
		s, err := StartBS(mec.BSID(b), net_.BSs[b].CRUCapacity, net_.BSs[b].MaxRRBs, cfg, time.Second)
		if err != nil {
			tb.Fatal(err)
		}
		conn, err := net.Dial("tcp", s.Addr())
		if err != nil {
			tb.Fatal(err)
		}
		rc := &recordingConn{Conn: conn}
		var resp RoundResponse
		err = exchange(rc, time.Second, &RoundRequest{Round: 1, Requests: batch}, &resp)
		conn.Close()
		if cerr := s.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			tb.Fatal(err)
		}
		frames = append(frames, rc.w.Bytes(), rc.r.Bytes())
	}
	if len(frames) == 0 {
		tb.Fatal("no BS received a proposal")
	}
	return frames
}

// TestFrameCanonicalRoundTrip pins the binary layout on hand-built
// messages: every field survives the round trip bit for bit (including a
// float that JSON could only approximate in shortest form), and encoding
// the decoded value reproduces the frame.
func TestFrameCanonicalRoundTrip(t *testing.T) {
	msgs := []any{
		&RoundRequest{Round: 7, Shutdown: true},
		&RoundRequest{Round: 1, Requests: []Request{
			{UE: 17599, Service: 3, CRUs: 12, RRBs: 9, SameSP: true, Fu: 11, PricePerCRU: 0.1 + 0.2},
			{UE: 0, Service: 0, CRUs: -1, RRBs: 1 << 40, Fu: 0, PricePerCRU: -0.0},
		}},
		&RoundResponse{Round: 3, Verdicts: []Verdict{{UE: 4, Accepted: true}, {UE: 9, Permanent: true}, {UE: 2}},
			RemainingCRU: []int{0, 5, 120}, RemainingRRBs: 42},
		&RoundResponse{Round: 2, Error: "wire: BS 3 select: ledger corrupted"},
	}
	for _, in := range msgs {
		var buf bytes.Buffer
		if err := WriteFrame(&buf, in); err != nil {
			t.Fatal(err)
		}
		enc := append([]byte(nil), buf.Bytes()...)
		var out any
		switch in.(type) {
		case *RoundRequest:
			out = new(RoundRequest)
		default:
			out = new(RoundResponse)
		}
		if err := ReadFrame(&buf, out); err != nil {
			t.Fatalf("%+v: %v", in, err)
		}
		var again bytes.Buffer
		if err := WriteFrame(&again, out); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(enc, again.Bytes()) {
			t.Fatalf("%+v: re-encoding differs:\n %x\n %x", in, enc, again.Bytes())
		}
		if req, ok := in.(*RoundRequest); ok {
			got := out.(*RoundRequest)
			for i := range req.Requests {
				if got.Requests[i] != req.Requests[i] {
					t.Fatalf("request %d: %+v, want %+v", i, got.Requests[i], req.Requests[i])
				}
			}
		}
	}
}

// TestReadFrameRejectsMalformed: a wrong tag, truncation, trailing bytes,
// unknown flag bits, a non-minimal varint and an oversized count are
// errors, and none of them reads as an orderly close.
func TestReadFrameRejectsMalformed(t *testing.T) {
	var good bytes.Buffer
	if err := WriteFrame(&good, &RoundRequest{Round: 1, Requests: []Request{{UE: 3, Fu: 1}}}); err != nil {
		t.Fatal(err)
	}
	payload := good.Bytes()[4:]
	cases := map[string][]byte{
		"wrong tag":      append([]byte{tagResponse}, payload[1:]...),
		"truncated":      payload[:len(payload)-1],
		"trailing bytes": append(append([]byte(nil), payload...), 0),
		"unknown flag":   {tagRequest, 2, 0x80, 0},
		"long varint":    {tagRequest, 0x82, 0x00, 0, 0},
		"count overflow": {tagRequest, 2, 0, 0x05, 1, 2, 3, 4},
		"empty":          {},
	}
	for name, p := range cases {
		var v RoundRequest
		err := ReadFrame(bytes.NewReader(frame(p)), &v)
		if err == nil {
			t.Errorf("%s: accepted", name)
			continue
		}
		if isClosed(err) {
			t.Errorf("%s: %v reads as an orderly close", name, err)
		}
	}
	var v RoundResponse
	if err := ReadFrame(bytes.NewReader(good.Bytes()), &v); err == nil {
		t.Error("request frame decoded as a response")
	}
	if err := ReadFrame(bytes.NewReader(nil), &v); err != io.EOF {
		t.Errorf("empty stream: %v, want io.EOF", err)
	}
}
