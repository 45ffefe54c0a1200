package wire

import (
	"bytes"
	"slices"
	"testing"

	"dmra/internal/alloc"
	"dmra/internal/engine"
)

// FuzzServeRequests feeds the request frames decoded from arbitrary bytes,
// in order, to one BS server's round handler and checks its contract on
// untrusted input: every frame gets a response, never a panic. A response
// is either an in-band error with no verdicts, or verdicts for UEs the
// frame named plus a broadcast of one residual per service inside the
// BS's capacities, the checks the coordinator applies before taking it.
// The frame decoder itself is FuzzReadFrame's.
func FuzzServeRequests(f *testing.F) {
	bs := buildNet(f, 60, 1).BSs[0]
	frames := clusterRoundFrames(f)
	for i := 0; i < len(frames); i += 2 { // requests; responses interleave
		f.Add(frames[i])
	}
	f.Add(bytes.Join(frames, nil))
	for _, bad := range []Request{
		{UE: 3, Service: 5 << 40, CRUs: 1, RRBs: 1},
		{UE: 3, Service: -1, CRUs: 1, RRBs: 1},
		{UE: 4, Service: 0, CRUs: -3, RRBs: 1},
	} {
		var buf bytes.Buffer
		if err := WriteFrame(&buf, &RoundRequest{Round: 1, Requests: []Request{bad}}); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes())
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		s := &BSServer{cfg: alloc.DefaultDMRAConfig(), led: engine.NewBSLedger(bs.CRUCapacity, bs.MaxRRBs)}
		r := bytes.NewReader(data)
		var req RoundRequest
		var resp RoundResponse
		for ReadFrame(r, &req) == nil {
			s.process(&req, &resp)
			if resp.Round != req.Round {
				t.Fatalf("response to round %d answers round %d", req.Round, resp.Round)
			}
			if resp.Error != "" {
				if len(resp.Verdicts) != 0 {
					t.Fatalf("error response %q carries %d verdicts", resp.Error, len(resp.Verdicts))
				}
				continue
			}
			if len(resp.RemainingCRU) != len(bs.CRUCapacity) {
				t.Fatalf("broadcast of %d services, want %d", len(resp.RemainingCRU), len(bs.CRUCapacity))
			}
			for j, rem := range resp.RemainingCRU {
				if rem < 0 || rem > bs.CRUCapacity[j] {
					t.Fatalf("service %d residual CRUs %d outside [0, %d]", j, rem, bs.CRUCapacity[j])
				}
			}
			if resp.RemainingRRBs < 0 || resp.RemainingRRBs > bs.MaxRRBs {
				t.Fatalf("residual RRBs %d outside [0, %d]", resp.RemainingRRBs, bs.MaxRRBs)
			}
			for _, v := range resp.Verdicts {
				if !slices.ContainsFunc(req.Requests, func(q Request) bool { return q.UE == v.UE }) {
					t.Fatalf("verdict for UE %d, which the frame did not name", v.UE)
				}
			}
		}
	})
}
