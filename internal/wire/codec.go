// Package wire runs DMRA over real TCP sockets: every base station is a
// server process (a goroutine with its own listener and private resource
// ledger), and a coordinator hosting the thin UE agents drives the
// propose/select rounds of Alg. 1 as framed binary request/response
// exchanges. It is the deployment-shaped sibling of internal/protocol's
// simulated message passing: same algorithm, same outcome (parity-tested
// against the synchronous solver), but with genuine serialization,
// sockets, concurrency, and lifecycle management.
//
// # Frame format
//
// A frame is a 4-byte big-endian payload length (at most maxFrame)
// followed by the payload. The payload is a compact binary encoding of
// one RoundRequest or RoundResponse: a tag byte naming the message, then
// its fields in declaration order. Integers are zigzag varints, element
// counts and string lengths are unsigned varints, each message or element
// packs its bools into one flags byte, and PricePerCRU travels as its 8
// big-endian IEEE-754 bytes, so every float round-trips bit for bit. The
// encoding is canonical: the decoder rejects non-minimal varints, unknown
// flag bits, a wrong tag, truncation and trailing bytes, so every frame it
// accepts re-encodes to the same bytes. Element counts are checked against
// the bytes left before anything is allocated.
package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"slices"
	"sync"

	"dmra/internal/engine"
	"dmra/internal/mec"
)

// maxFrame bounds a frame's payload to keep a corrupt or malicious length
// prefix from allocating unbounded memory.
const maxFrame = 16 << 20

// Payload tags.
const (
	tagRequest  byte = 1
	tagResponse byte = 2
)

// Flag bits. Each message or element has one flags byte; bits outside its
// mask are a decode error, which keeps the encoding canonical.
const (
	flagShutdown  byte = 1 << 0 // RoundRequest
	flagSameSP    byte = 1 << 0 // Request
	flagAccepted  byte = 1 << 0 // Verdict
	flagPermanent byte = 1 << 1 // Verdict
)

// Minimum encoded element sizes, used to bound counts against the bytes
// left before allocating: a Request is five one-byte varints, a flags
// byte and an 8-byte price; a Verdict a varint and a flags byte; an int a
// single varint byte.
const (
	minRequestBytes = 5 + 1 + 8
	minVerdictBytes = 1 + 1
	minIntBytes     = 1
)

// framePool recycles encode buffers: a frame is built in one buffer, its
// header included, and leaves in a single Write.
var framePool = sync.Pool{New: func() any { b := make([]byte, 0, 512); return &b }}

// WriteFrame writes one length-prefixed message in a single Write. v must
// be a *RoundRequest or a *RoundResponse.
func WriteFrame(w io.Writer, v any) error {
	bp := framePool.Get().(*[]byte)
	defer framePool.Put(bp)
	buf := append((*bp)[:0], 0, 0, 0, 0)
	switch m := v.(type) {
	case *RoundRequest:
		buf = m.appendTo(buf)
	case *RoundResponse:
		buf = m.appendTo(buf)
	default:
		return fmt.Errorf("wire: cannot encode %T", v)
	}
	*bp = buf
	n := len(buf) - 4
	if n > maxFrame {
		return fmt.Errorf("wire: frame of %d bytes exceeds limit", n)
	}
	binary.BigEndian.PutUint32(buf, uint32(n))
	if _, err := w.Write(buf); err != nil {
		return fmt.Errorf("wire: write frame: %w", err)
	}
	return nil
}

// ReadFrame reads one length-prefixed message into v, which must be a
// *RoundRequest or a *RoundResponse. v is overwritten; its slices' backing
// arrays are reused when large enough.
func ReadFrame(r io.Reader, v any) error {
	var hdr [4]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return err // io.EOF passes through for clean close detection
	}
	n := binary.BigEndian.Uint32(hdr[:])
	if n > maxFrame {
		return fmt.Errorf("wire: frame of %d bytes exceeds limit", n)
	}
	// Decoding copies everything out of the payload, so its buffer goes
	// back to the pool.
	bp := framePool.Get().(*[]byte)
	defer framePool.Put(bp)
	payload, err := readPayload(r, (*bp)[:0], int(n))
	*bp = payload
	if err != nil {
		return fmt.Errorf("wire: read payload: %w", err)
	}
	d := decoder{b: payload}
	switch m := v.(type) {
	case *RoundRequest:
		m.decode(&d)
	case *RoundResponse:
		m.decode(&d)
	default:
		return fmt.Errorf("wire: cannot decode into %T", v)
	}
	if d.err == nil && len(d.b) > 0 {
		d.fail("%d trailing bytes", len(d.b))
	}
	return d.err
}

// eagerFrame is the largest payload read in one piece. Beyond it the
// buffer grows as bytes arrive, so a corrupt length prefix costs memory in
// proportion to the bytes actually sent, not to the length it claims.
const eagerFrame = 64 << 10

// readPayload reads an n-byte payload, appending to buf.
func readPayload(r io.Reader, buf []byte, n int) ([]byte, error) {
	for len(buf) < n {
		k := min(n-len(buf), max(eagerFrame, len(buf)))
		buf = slices.Grow(buf, k)
		got, err := io.ReadFull(r, buf[len(buf):len(buf)+k])
		buf = buf[:len(buf)+got]
		if err != nil {
			return buf, err
		}
	}
	return buf, nil
}

// Request is one UE service request as it travels to a BS server
// (Alg. 1 line 7: the UE's identity, demands, and coverage count). It is
// the engine's request verbatim.
type Request = engine.Request

// RoundRequest is the coordinator->BS frame carrying one round's batch.
type RoundRequest struct {
	Round    int
	Requests []Request
	// Shutdown asks the server to close after replying.
	Shutdown bool
}

// Verdict is a BS's decision on one request.
type Verdict struct {
	UE mec.UEID
	// Accepted reports admission.
	Accepted bool
	// Permanent qualifies a rejection: true means the BS can no longer
	// fit the request at all (the proposer should prune this BS); false
	// means the request was merely trimmed behind a more-preferred one
	// this round (Alg. 1 lines 22-25) and may be retried.
	Permanent bool
}

// RoundResponse is the BS->coordinator frame: decisions plus the resource
// broadcast of Alg. 1 line 26.
type RoundResponse struct {
	Round    int
	Verdicts []Verdict
	// RemainingCRU and RemainingRRBs mirror the BS ledger after the round.
	RemainingCRU  []int
	RemainingRRBs int
	// Error carries a BS-side failure (select error, corrupted ledger) back
	// to the coordinator, which fails the round instead of applying the
	// verdicts. Empty on healthy rounds.
	Error string
}

func (m *RoundRequest) appendTo(b []byte) []byte {
	b = append(b, tagRequest)
	b = binary.AppendVarint(b, int64(m.Round))
	var flags byte
	if m.Shutdown {
		flags |= flagShutdown
	}
	b = append(b, flags)
	b = binary.AppendUvarint(b, uint64(len(m.Requests)))
	for i := range m.Requests {
		r := &m.Requests[i]
		b = binary.AppendVarint(b, int64(r.UE))
		b = binary.AppendVarint(b, int64(r.Service))
		b = binary.AppendVarint(b, int64(r.CRUs))
		b = binary.AppendVarint(b, int64(r.RRBs))
		flags = 0
		if r.SameSP {
			flags |= flagSameSP
		}
		b = append(b, flags)
		b = binary.AppendVarint(b, int64(r.Fu))
		b = binary.BigEndian.AppendUint64(b, math.Float64bits(r.PricePerCRU))
	}
	return b
}

func (m *RoundRequest) decode(d *decoder) {
	d.tag(tagRequest)
	round := d.int()
	flags := d.flags(flagShutdown)
	n := d.count(minRequestBytes)
	reqs := grow(m.Requests, n)
	for i := 0; i < n && d.err == nil; i++ {
		var r Request
		r.UE = mec.UEID(d.int())
		r.Service = mec.ServiceID(d.int())
		r.CRUs = d.int()
		r.RRBs = d.int()
		r.SameSP = d.flags(flagSameSP)&flagSameSP != 0
		r.Fu = d.int()
		r.PricePerCRU = math.Float64frombits(d.uint64())
		reqs = append(reqs, r)
	}
	*m = RoundRequest{Round: round, Requests: reqs, Shutdown: flags&flagShutdown != 0}
}

func (m *RoundResponse) appendTo(b []byte) []byte {
	b = append(b, tagResponse)
	b = binary.AppendVarint(b, int64(m.Round))
	b = binary.AppendUvarint(b, uint64(len(m.Verdicts)))
	for _, v := range m.Verdicts {
		b = binary.AppendVarint(b, int64(v.UE))
		var flags byte
		if v.Accepted {
			flags |= flagAccepted
		}
		if v.Permanent {
			flags |= flagPermanent
		}
		b = append(b, flags)
	}
	b = binary.AppendUvarint(b, uint64(len(m.RemainingCRU)))
	for _, c := range m.RemainingCRU {
		b = binary.AppendVarint(b, int64(c))
	}
	b = binary.AppendVarint(b, int64(m.RemainingRRBs))
	b = binary.AppendUvarint(b, uint64(len(m.Error)))
	return append(b, m.Error...)
}

func (m *RoundResponse) decode(d *decoder) {
	d.tag(tagResponse)
	round := d.int()
	n := d.count(minVerdictBytes)
	verdicts := grow(m.Verdicts, n)
	for i := 0; i < n && d.err == nil; i++ {
		ue := mec.UEID(d.int())
		flags := d.flags(flagAccepted | flagPermanent)
		verdicts = append(verdicts, Verdict{UE: ue, Accepted: flags&flagAccepted != 0, Permanent: flags&flagPermanent != 0})
	}
	n = d.count(minIntBytes)
	cru := grow(m.RemainingCRU, n)
	for i := 0; i < n && d.err == nil; i++ {
		cru = append(cru, d.int())
	}
	rrbs := d.int()
	var msg string
	if n := d.count(1); n > 0 {
		msg = string(d.b[:n])
		d.b = d.b[n:]
	}
	*m = RoundResponse{Round: round, Verdicts: verdicts, RemainingCRU: cru, RemainingRRBs: rrbs, Error: msg}
}

// grow returns s emptied with room for n elements, reusing its backing
// array when large enough; nil for n == 0, so an empty list decodes the
// same whatever v held before.
func grow[T any](s []T, n int) []T {
	switch {
	case n == 0:
		return nil
	case cap(s) < n:
		return make([]T, 0, n)
	}
	return s[:0]
}

// decoder reads a payload front to back. The first failure sticks in err
// and every later read returns zero, so a message decoder runs straight
// through and checks err once.
type decoder struct {
	b   []byte
	err error
}

// errMalformed is wrapped by every payload decode error. It deliberately
// is not io.ErrUnexpectedEOF: a truncated payload is a protocol failure,
// never an orderly close.
var errMalformed = errors.New("wire: malformed frame")

func (d *decoder) fail(format string, args ...any) {
	if d.err == nil {
		d.err = fmt.Errorf("%w: %s", errMalformed, fmt.Sprintf(format, args...))
	}
	d.b = nil
}

func (d *decoder) byte() byte {
	if len(d.b) == 0 {
		d.fail("truncated")
		return 0
	}
	c := d.b[0]
	d.b = d.b[1:]
	return c
}

func (d *decoder) tag(want byte) {
	if got := d.byte(); d.err == nil && got != want {
		d.fail("tag %d, want %d", got, want)
	}
}

// flags reads a flags byte and rejects bits outside mask.
func (d *decoder) flags(mask byte) byte {
	f := d.byte()
	if f&^mask != 0 {
		d.fail("flags %#x outside %#x", f, mask)
		return 0
	}
	return f
}

func (d *decoder) uvarint() uint64 {
	v, n := binary.Uvarint(d.b)
	if n <= 0 {
		d.fail("bad varint")
		return 0
	}
	// A minimal varint never ends in a zero continuation byte.
	if n > 1 && d.b[n-1] == 0 {
		d.fail("non-minimal varint")
		return 0
	}
	d.b = d.b[n:]
	return v
}

func (d *decoder) int() int {
	u := d.uvarint()
	v := int64(u>>1) ^ -int64(u&1)
	if int64(int(v)) != v {
		d.fail("integer %d overflows int", v)
		return 0
	}
	return int(v)
}

// count reads an element count and checks that count elements of at
// least minBytes each fit in the bytes left, before any allocation.
func (d *decoder) count(minBytes int) int {
	n := d.uvarint()
	if n > uint64(len(d.b)/minBytes) {
		d.fail("count %d exceeds the %d bytes left", n, len(d.b))
		return 0
	}
	return int(n)
}

func (d *decoder) uint64() uint64 {
	if len(d.b) < 8 {
		d.fail("truncated")
		return 0
	}
	v := binary.BigEndian.Uint64(d.b)
	d.b = d.b[8:]
	return v
}
