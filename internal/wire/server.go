package wire

import (
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"time"

	"dmra/internal/alloc"
	"dmra/internal/engine"
	"dmra/internal/mec"
)

// BSServer is one base station running as a TCP server with a private
// resource ledger. It accepts a single coordinator connection and answers
// RoundRequest frames until a Shutdown frame, EOF, or Close.
type BSServer struct {
	id           mec.BSID
	cfg          alloc.DMRAConfig
	writeTimeout time.Duration

	ln net.Listener

	mu  sync.Mutex
	led *engine.BSLedger
	sel engine.SelectScratch

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
}

// StartBS launches a BS server on 127.0.0.1 with an ephemeral port.
// writeTimeout bounds each response write (zero means unbounded).
// Callers must Close it.
func StartBS(id mec.BSID, cruCapacity []int, maxRRBs int, cfg alloc.DMRAConfig, writeTimeout time.Duration) (*BSServer, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("wire: listen: %w", err)
	}
	s := &BSServer{
		id:           id,
		cfg:          cfg,
		writeTimeout: writeTimeout,
		ln:           ln,
		led:          engine.NewBSLedger(cruCapacity, maxRRBs),
		closed:       make(chan struct{}),
	}
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

// process runs Alg. 1 lines 11-26 — selection, the preference-order trim,
// admission against the private ledger — through the engine's select
// round, then snapshots the ledger into the resource broadcast, filling
// resp. A select failure or a ledger that fails its invariant check is
// recorded for Close and reported in-band via RoundResponse.Error, so the
// coordinator fails the round instead of applying verdicts from a broken
// book.
func (s *BSServer) process(req *RoundRequest, resp *RoundResponse) {
	s.mu.Lock()
	defer s.mu.Unlock()

	*resp = RoundResponse{Round: req.Round, Verdicts: resp.Verdicts[:0], RemainingCRU: resp.RemainingCRU[:0]}
	verdicts, err := s.cfg.SelectRound(s.led, req.Requests, &s.sel)
	if err == nil {
		err = s.led.CheckInvariants()
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
	resp.RemainingCRU = append(resp.RemainingCRU, s.led.RemainingCRU()...)
	resp.RemainingRRBs = s.led.RemainingRRBs()
}
