package wire

import (
	"net"
	"sync/atomic"
	"time"

	"dmra/internal/mec"
)

// DefaultExchangeTimeout bounds a single frame write or read on a per-BS
// connection when RegionConfig.ExchangeTimeout is zero. Loopback
// exchanges complete in microseconds; ten seconds only ever fires on a
// genuinely wedged server.
const DefaultExchangeTimeout = 10 * time.Second

// BSTraffic is the coordinator-side byte accounting for one BS connection.
type BSTraffic struct {
	BytesSent     int64
	BytesReceived int64
}

// ClusterResult reports a socket-level DMRA run.
type ClusterResult struct {
	Assignment mec.Assignment
	// Rounds counts propose/select rounds.
	Rounds int
	// Frames counts request/response frames exchanged with BS servers.
	Frames int
	// BytesSent and BytesReceived count coordinator-side socket traffic
	// summed over every BS connection.
	BytesSent     int64
	BytesReceived int64
	// PerBS breaks the byte totals down by base station: PerBS[b] is the
	// traffic on BS b's connection, including the shutdown exchange.
	PerBS []BSTraffic
}

// countingConn tallies bytes moved over a connection. Counters are atomic
// because the exchange phase drives the per-BS connections concurrently.
type countingConn struct {
	net.Conn

	sent, received *atomic.Int64
}

func (c countingConn) Write(p []byte) (int, error) {
	n, err := c.Conn.Write(p)
	c.sent.Add(int64(n))
	return n, err
}

func (c countingConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.received.Add(int64(n))
	return n, err
}

// testHookStartBS, when non-nil, runs on every BS server after it starts
// and before the coordinator dials it. Tests use it to corrupt ledgers,
// inject recorded errors, or wedge servers; always nil in production.
var testHookStartBS func(*BSServer)

// exchange performs one framed request/response on a connection, each
// frame bounded by its own deadline, decoding the reply into resp.
func exchange(conn net.Conn, timeout time.Duration, req *RoundRequest, resp *RoundResponse) error {
	if err := writeFrameDeadline(conn, timeout, req); err != nil {
		return err
	}
	return readFrameDeadline(conn, timeout, resp)
}
