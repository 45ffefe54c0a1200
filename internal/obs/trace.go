package obs

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"sync"
)

// EventKind classifies one observable DMRA protocol action. The same
// vocabulary is shared by all three implementations — the synchronous
// solver (internal/alloc), the message-level runtime (internal/protocol),
// and the TCP cluster (internal/wire) — so traces from any of them can be
// diffed event-for-event.
type EventKind uint8

// The event vocabulary of Alg. 1.
const (
	// KindRound marks a propose/select round barrier (Alg. 1's outer loop).
	KindRound EventKind = iota
	// KindPropose is a UE's service request to its preferred BS (line 7).
	KindPropose
	// KindAccept is a BS admission notice (line 21).
	KindAccept
	// KindRejectPermanent is a reject the UE must treat as final: the BS
	// can no longer fit the request at all, so the UE prunes it.
	KindRejectPermanent
	// KindRejectTrim is a radio-budget trim (lines 22-25): the request was
	// feasible but lost to a more-preferred one and may retry next round.
	KindRejectTrim
	// KindCloudFallback marks a UE exhausting its candidate set and
	// falling back to the remote cloud.
	KindCloudFallback
	// KindBroadcast is a BS's remaining-resource broadcast (line 26).
	KindBroadcast
)

var kindNames = [...]string{
	KindRound:           "round",
	KindPropose:         "propose",
	KindAccept:          "accept",
	KindRejectPermanent: "reject-permanent",
	KindRejectTrim:      "reject-trim",
	KindCloudFallback:   "cloud-fallback",
	KindBroadcast:       "broadcast",
}

// String returns the kind's wire name (used in JSONL traces).
func (k EventKind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return fmt.Sprintf("kind(%d)", uint8(k))
}

// MarshalJSON encodes the kind as its wire name.
func (k EventKind) MarshalJSON() ([]byte, error) {
	return json.Marshal(k.String())
}

// UnmarshalJSON decodes a wire name back into a kind.
func (k *EventKind) UnmarshalJSON(data []byte) error {
	var s string
	if err := json.Unmarshal(data, &s); err != nil {
		return err
	}
	for i, name := range kindNames {
		if name == s {
			*k = EventKind(i)
			return nil
		}
	}
	return fmt.Errorf("obs: unknown event kind %q", s)
}

// Event is one structured convergence-trace record. UE and BS are -1 when
// not applicable (round barriers, broadcasts). Seq is assigned by the sink
// in emission order; TimeS carries simulated time where the emitter has a
// clock (internal/protocol) and is 0 elsewhere.
type Event struct {
	Seq   int64     `json:"seq"`
	Kind  EventKind `json:"kind"`
	Round int       `json:"round"`
	UE    int       `json:"ue"`
	BS    int       `json:"bs"`
	TimeS float64   `json:"timeS,omitempty"`
	// Shard attributes BS-owned events to the coordinator region that
	// owns the BS (internal/wire); 0 elsewhere. Not part of Key(): the
	// region parity guarantee is exactly that event identity is
	// independent of the region count.
	Shard int `json:"shard,omitempty"`
}

// Key returns the (round, ue, bs, kind) identity used to compare traces
// across implementations, ignoring sequence numbers and timestamps.
func (e Event) Key() [4]int {
	return [4]int{e.Round, e.UE, e.BS, int(e.Kind)}
}

// Sink receives trace events, optionally writing each as one JSON line and
// keeping the most recent ringSize events in memory for live introspection
// and tests. A nil *Sink drops everything at the cost of one nil check.
// Sinks are safe for concurrent use; events from concurrent emitters are
// sequenced in lock order.
type Sink struct {
	mu       sync.Mutex
	w        io.Writer
	ring     []Event
	start    int // index of the oldest ring entry
	n        int // live ring entries
	seq      int64
	err      error
	manifest *Manifest
}

// NewSink returns a sink writing JSONL to w (nil w disables the writer)
// and retaining the last ringSize events (ringSize <= 0 picks 4096).
func NewSink(w io.Writer, ringSize int) *Sink {
	if ringSize <= 0 {
		ringSize = 4096
	}
	return &Sink{w: w, ring: make([]Event, ringSize)}
}

// Emit records one event, assigning its sequence number. No-op on nil.
func (s *Sink) Emit(e Event) {
	if s == nil {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.seq++
	e.Seq = s.seq
	if s.n < len(s.ring) {
		s.ring[(s.start+s.n)%len(s.ring)] = e
		s.n++
	} else {
		s.ring[s.start] = e
		s.start = (s.start + 1) % len(s.ring)
	}
	if s.w != nil && s.err == nil {
		data, err := json.Marshal(e)
		if err == nil {
			data = append(data, '\n')
			_, err = s.w.Write(data)
		}
		// A broken trace writer must never fail the run it observes:
		// remember the first error and stop writing.
		s.err = err
	}
}

// Events returns the retained ring contents in emission order.
func (s *Sink) Events() []Event {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]Event, s.n)
	for i := 0; i < s.n; i++ {
		out[i] = s.ring[(s.start+i)%len(s.ring)]
	}
	return out
}

// Total returns the number of events emitted over the sink's lifetime
// (which can exceed the ring size).
func (s *Sink) Total() int64 {
	if s == nil {
		return 0
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.seq
}

// Err returns the first trace-writer error, if any.
func (s *Sink) Err() error {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.err
}

// maxTraceLine bounds one JSONL record; real events are under 200 bytes
// and manifests under a few KB even with a large embedded scenario.
const maxTraceLine = 1 << 20

// ReadTrace decodes a JSONL trace (as written by a Sink): the optional
// manifest header on line 1, then events. On a corrupt or truncated line
// — the normal artifact of a crashed or killed run — it returns the
// successfully-decoded prefix alongside the error, so tools can warn and
// continue instead of losing the whole trace. An empty input is a valid
// empty trace.
func ReadTrace(r io.Reader) (*Manifest, []Event, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64*1024), maxTraceLine)
	var (
		manifest *Manifest
		out      []Event
		lineNo   int
	)
	for sc.Scan() {
		lineNo++
		line := bytes.TrimSpace(sc.Bytes())
		if len(line) == 0 {
			continue
		}
		if lineNo == 1 && bytes.HasPrefix(line, []byte(`{"manifest"`)) {
			var ml manifestLine
			if err := json.Unmarshal(line, &ml); err != nil {
				return nil, out, fmt.Errorf("obs: trace line 1: bad manifest: %w", err)
			}
			manifest = ml.Manifest
			continue
		}
		var e Event
		if err := json.Unmarshal(line, &e); err != nil {
			return manifest, out, fmt.Errorf("obs: trace line %d: %w", lineNo, err)
		}
		out = append(out, e)
	}
	if err := sc.Err(); err != nil {
		return manifest, out, fmt.Errorf("obs: trace line %d: %w", lineNo+1, err)
	}
	return manifest, out, nil
}

// ReadEvents decodes a JSONL trace (as written by a Sink) back into
// events, for replay and diffing, skipping the manifest header if
// present. On a corrupt or truncated line it returns the decoded prefix
// alongside the error.
func ReadEvents(r io.Reader) ([]Event, error) {
	_, events, err := ReadTrace(r)
	return events, err
}
