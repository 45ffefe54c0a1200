package wire

import (
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"sync"
	"time"

	"dmra/internal/alloc"
	"dmra/internal/engine"
	"dmra/internal/mec"
)

// BSServer is one base station running as a TCP server with a private
// one-BS residual book. It accepts a single coordinator connection and
// answers RoundRequest frames until a Shutdown frame, EOF, or Close.
type BSServer struct {
	id           mec.BSID
	cfg          alloc.DMRAConfig
	writeTimeout time.Duration

	ln net.Listener

	mu   sync.Mutex
	book mec.Book
	sel  engine.SelectScratch

	// connMu guards conn, the single accepted coordinator connection,
	// which Close must be able to close to unblock a serve goroutine
	// parked in a read.
	connMu sync.Mutex
	conn   net.Conn

	wg        sync.WaitGroup
	closed    chan struct{}
	closeOnce sync.Once

	errMu sync.Mutex
	err   error

	// stall, when non-nil, parks serve before answering each frame until
	// the channel is closed (or the server is). Tests set it via the
	// coordinator's start hook to simulate a wedged BS and exercise the
	// exchange deadlines; always nil in production.
	stall chan struct{}
	// tamper, when non-nil, rewrites each response before it is sent.
	// Tests set it via the start hook to feed the coordinator malformed
	// responses; always nil in production.
	tamper func(*RoundResponse)
}

// StartBS launches a BS server on 127.0.0.1 with an ephemeral port, its
// book opened at the given capacities, each of which must lie in
// [0, MaxInt32]. writeTimeout bounds each response write (zero means
// unbounded). Callers must Close it.
func StartBS(id mec.BSID, cruCapacity []int, maxRRBs int, cfg alloc.DMRAConfig, writeTimeout time.Duration) (*BSServer, error) {
	s := &BSServer{id: id, cfg: cfg, writeTimeout: writeTimeout, closed: make(chan struct{})}
	if err := s.openBook(cruCapacity, maxRRBs); err != nil {
		return nil, fmt.Errorf("wire: BS %d: %w", id, err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("wire: listen: %w", err)
	}
	s.ln = ln
	s.wg.Add(1)
	go s.serve()
	return s, nil
}

// Addr returns the server's dialable address.
func (s *BSServer) Addr() string { return s.ln.Addr().String() }

// Close stops the server, waits for its goroutine to exit, and returns
// the first protocol failure the server recorded (nil on an orderly
// shutdown). Safe to call concurrently and repeatedly: the teardown runs
// once and every caller observes the same error.
func (s *BSServer) Close() error {
	s.closeOnce.Do(func() {
		close(s.closed)
		s.ln.Close()
		s.connMu.Lock()
		if s.conn != nil {
			s.conn.Close()
		}
		s.connMu.Unlock()
	})
	s.wg.Wait()
	if err := s.recordedErr(); err != nil && !errors.Is(err, net.ErrClosed) {
		return err
	}
	return nil
}

// setErr records the first protocol failure; later ones are dropped.
func (s *BSServer) setErr(err error) {
	s.errMu.Lock()
	if s.err == nil {
		s.err = err
	}
	s.errMu.Unlock()
}

// recordedErr returns the first recorded failure (nil if none yet). Tests
// poll it to order a Close after the server has observed a bad frame.
func (s *BSServer) recordedErr() error {
	s.errMu.Lock()
	defer s.errMu.Unlock()
	return s.err
}

// serve accepts the coordinator connection and answers rounds.
func (s *BSServer) serve() {
	defer s.wg.Done()
	conn, err := s.ln.Accept()
	if err != nil {
		s.setErr(err)
		return
	}
	defer conn.Close()
	// Publish the connection so Close can sever it, then re-check closed:
	// a Close racing with the accept may have missed the conn, in which
	// case the closed channel is what stops us.
	s.connMu.Lock()
	s.conn = conn
	s.connMu.Unlock()
	select {
	case <-s.closed:
		return
	default:
	}
	// One request and one response are decoded into and encoded from for
	// the whole session, reusing their slices.
	var req RoundRequest
	var resp RoundResponse
	for {
		// The idle read is deliberately unbounded: the coordinator paces
		// rounds, and the server's lifetime is bounded by Close closing
		// the connection, not by a read deadline.
		if err := readFrameDeadline(conn, 0, &req); err != nil {
			if !isClosed(err) {
				s.setErr(err)
			}
			return
		}
		s.process(&req, &resp)
		if s.tamper != nil {
			s.tamper(&resp)
		}
		if s.stall != nil {
			select {
			case <-s.stall:
			case <-s.closed:
				return
			}
		}
		if err := writeFrameDeadline(conn, s.writeTimeout, &resp); err != nil {
			if !isClosed(err) {
				s.setErr(err)
			}
			return
		}
		if req.Shutdown {
			return
		}
	}
}

// isClosed reports whether err is an orderly connection close rather than
// a protocol failure.
func isClosed(err error) bool {
	return errors.Is(err, net.ErrClosed) || errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF)
}

// openBook opens the server's one-BS book at the given capacities,
// refusing one its int32 rows cannot hold.
func (s *BSServer) openBook(cruCapacity []int, maxRRBs int) error {
	cru := make([]int32, len(cruCapacity))
	for j, c := range cruCapacity {
		if c < 0 || c > math.MaxInt32 {
			return fmt.Errorf("service %d capacity %d outside [0, %d]", j, c, math.MaxInt32)
		}
		cru[j] = int32(c)
	}
	if maxRRBs < 0 || maxRRBs > math.MaxInt32 {
		return fmt.Errorf("RRB capacity %d outside [0, %d]", maxRRBs, math.MaxInt32)
	}
	s.book.Reset(len(cru), cru, []int32{int32(maxRRBs)})
	return nil
}

// process runs Alg. 1 lines 11-26 — selection, the preference-order trim,
// admission against the private book — through the engine's select
// round, then snapshots the book into the resource broadcast, filling
// resp. A batch checkRequests refuses, or a book left with a negative
// residual, is recorded for Close and reported in-band via
// RoundResponse.Error, so the coordinator fails the round instead of
// applying verdicts from a broken book.
func (s *BSServer) process(req *RoundRequest, resp *RoundResponse) {
	s.mu.Lock()
	defer s.mu.Unlock()

	*resp = RoundResponse{Round: req.Round, Verdicts: resp.Verdicts[:0], RemainingCRU: resp.RemainingCRU[:0]}
	var verdicts []engine.Verdict
	err := checkRequests(req.Requests, s.book.Services)
	if err == nil {
		verdicts = s.cfg.SelectRound(&s.book, 0, req.Requests, &s.sel)
		err = s.book.CheckNonNegative()
	}
	if err != nil {
		err = fmt.Errorf("wire: BS %d select: %w", s.id, err)
		s.setErr(err)
		*resp = RoundResponse{Round: req.Round, Error: err.Error()}
		return
	}
	for _, v := range verdicts {
		resp.Verdicts = append(resp.Verdicts, Verdict{UE: v.Req.UE, Accepted: v.Accepted, Permanent: v.Permanent})
	}
	for _, c := range s.book.CRU {
		resp.RemainingCRU = append(resp.RemainingCRU, int(c))
	}
	resp.RemainingRRBs = int(s.book.RRB[0])
}

// checkRequests refuses a batch the select round cannot take safely: a
// request for a service outside the book's services, which select
// would index past its rows with, or with a negative demand, which would
// grow the book past its capacities. The decoder accepts any integer,
// so these come from a peer, not from a coordinator's proposer.
func checkRequests(reqs []Request, services int) error {
	for _, r := range reqs {
		if r.Service < 0 || int(r.Service) >= services {
			return fmt.Errorf("%w: UE %d requests service %d, the BS serves %d", errMalformed, r.UE, r.Service, services)
		}
		if r.CRUs < 0 || r.RRBs < 0 {
			return fmt.Errorf("%w: UE %d requests %d CRUs and %d RRBs", errMalformed, r.UE, r.CRUs, r.RRBs)
		}
	}
	return nil
}
