package wire

import (
	"errors"
	"fmt"
	"net"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"dmra/internal/alloc"
	"dmra/internal/engine"
	"dmra/internal/mec"
	"dmra/internal/obs"
)

// DefaultExchangeTimeout bounds a single frame write or read on a per-BS
// connection when ClusterConfig.ExchangeTimeout is zero. Loopback
// exchanges complete in microseconds; ten seconds only ever fires on a
// genuinely wedged server.
const DefaultExchangeTimeout = 10 * time.Second

// ClusterConfig parameterizes a TCP-cluster run beyond the algorithm
// itself. The zero value (plus a DMRA config) is a valid single-shard,
// default-timeout run.
type ClusterConfig struct {
	// DMRA is the algorithm configuration shared with alloc.NewDMRA.
	DMRA alloc.DMRAConfig
	// Shards is the number of coordinator shard goroutines driving
	// disjoint BS groups each round (BS b belongs to shard b mod Shards).
	// Results are byte-identical for every value: verdicts and broadcasts
	// are merged in global BS order behind a per-round barrier, so
	// sharding changes wall-clock, never outcome. Shards <= 0 defaults to
	// min(GOMAXPROCS, |BS|); Shards = 1 is the serial coordinator.
	Shards int
	// ExchangeTimeout bounds every frame written to or read from a BS
	// connection, including the shutdown frames. A hung BS fails the run
	// with a *BSError naming it (Timeout() == true) instead of blocking
	// forever. <= 0 selects DefaultExchangeTimeout.
	ExchangeTimeout time.Duration
	// Obs, if non-nil, receives the typed convergence event stream
	// (emitted from the merge goroutine only, in deterministic UE/BS
	// order), per-round residual gauges, and the wire_round_seconds /
	// wire_shard_round_seconds{shard} latency histograms. BS-attributed
	// events carry the owning shard (b mod Shards) in Event.Shard; the
	// shard is attribution only and never part of the event identity, so
	// traces stay diffable across shard counts.
	Obs *obs.Recorder
	// RoundHook, if non-nil, observes the full matching state after each
	// round's merge phase (and once more for the final round in which no
	// UE proposed): per-BS residuals as reported by the BS servers'
	// broadcasts, and per-UE serving BS. The snapshot is reused across
	// rounds; Clone to retain.
	RoundHook engine.RoundHook
}

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
	// Shards is the effective coordinator shard count the run used.
	Shards int
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

// ueAgent is the coordinator-hosted thin UE agent: its assignment
// status. Its resource views live in the run's engine.ViewTable, and
// proposal scoring and the candidate list in the engine's Proposer.
type ueAgent struct {
	assigned bool
	servedBy mec.BSID
}

// testHookStartBS, when non-nil, runs on every BS server after it starts
// and before the coordinator dials it. Tests use it to corrupt ledgers,
// inject recorded errors, or wedge servers; always nil in production.
var testHookStartBS func(*BSServer)

// RunCluster executes DMRA with one TCP server per base station. The
// matching is identical to alloc.NewDMRA(cfg).Allocate(net); the point is
// exercising the deployment path: serialization, sockets, per-BS
// concurrency, and clean shutdown.
func RunCluster(net_ *mec.Network, cfg alloc.DMRAConfig) (ClusterResult, error) {
	return RunClusterWith(net_, ClusterConfig{DMRA: cfg})
}

// RunClusterObserved is RunCluster with an observability recorder; see
// ClusterConfig.Obs. A nil recorder adds no work.
func RunClusterObserved(net_ *mec.Network, cfg alloc.DMRAConfig, rec *obs.Recorder) (ClusterResult, error) {
	return RunClusterWith(net_, ClusterConfig{DMRA: cfg, Obs: rec})
}

// RunClusterWith executes DMRA over TCP under the full cluster
// configuration: cc.Shards coordinator goroutines each drive a disjoint
// BS group per round, every exchange is bounded by cc.ExchangeTimeout,
// and any BS-side failure — hung exchange, select error, server close
// error — surfaces as a *BSError naming the base station.
//
// Sharding never changes the outcome: the propose phase and the
// verdict/broadcast merge run on the calling goroutine in global UE/BS
// order, with the shard fan-out confined to the socket exchanges between
// a per-round barrier, so assignments, event streams, and per-BS byte
// totals are byte-identical across shard counts (parity- and fuzz-tested).
func RunClusterWith(net_ *mec.Network, cc ClusterConfig) (res ClusterResult, err error) {
	timeout := cc.ExchangeTimeout
	if timeout <= 0 {
		timeout = DefaultExchangeTimeout
	}
	shards := cc.Shards
	if shards <= 0 {
		shards = runtime.GOMAXPROCS(0)
	}
	if shards > len(net_.BSs) {
		shards = len(net_.BSs)
	}
	if shards < 1 {
		shards = 1
	}
	res.Shards = shards
	rec := cc.Obs

	servers := make([]*BSServer, len(net_.BSs))
	conns := make([]net.Conn, len(net_.BSs))
	var stopWorkers func()
	defer func() {
		// Teardown order matters: closing the connections first unblocks
		// any shard still parked in a read, so stopping the workers and
		// closing the servers cannot deadlock. Server close errors are
		// folded into the run's error (first failing BS in global order)
		// instead of being discarded.
		for _, c := range conns {
			if c != nil {
				c.Close()
			}
		}
		if stopWorkers != nil {
			stopWorkers()
		}
		for b, s := range servers {
			if s == nil {
				continue
			}
			if cerr := s.Close(); cerr != nil && err == nil {
				err = &BSError{BS: mec.BSID(b), Op: "close", Err: cerr}
			}
		}
		if err != nil {
			res = ClusterResult{}
		}
	}()

	// One counter pair per BS connection; the totals are summed at the end.
	perSent := make([]atomic.Int64, len(net_.BSs))
	perRecv := make([]atomic.Int64, len(net_.BSs))
	for b := range net_.BSs {
		s, serr := StartBS(mec.BSID(b), net_.BSs[b].CRUCapacity, net_.BSs[b].MaxRRBs, cc.DMRA, timeout)
		if serr != nil {
			return ClusterResult{}, serr
		}
		servers[b] = s
		if testHookStartBS != nil {
			testHookStartBS(s)
		}
		conn, derr := net.Dial("tcp", s.Addr())
		if derr != nil {
			return ClusterResult{}, fmt.Errorf("wire: dial BS %d: %w", b, derr)
		}
		conns[b] = countingConn{Conn: conn, sent: &perSent[b], received: &perRecv[b]}
	}

	prop := engine.NewProposer(net_, cc.DMRA)
	views := engine.NewViewTable(net_)
	var swept, lastSwept uint64
	ues := make([]ueAgent, len(net_.UEs))
	for u := range ues {
		ues[u].servedBy = mec.CloudBS
	}

	// Shard layout: shard s owns the BSs congruent to s mod shards, fixed
	// for the whole run. Each shard goroutine performs its group's framed
	// exchanges for a round and then parks at the barrier; batches are
	// written before the round is dispatched and responses are read after
	// the barrier, so the channel send / WaitGroup pair carries all the
	// synchronization.
	groups := make([][]int, shards)
	for b := range net_.BSs {
		groups[b%shards] = append(groups[b%shards], b)
	}
	batches := make([][]Request, len(net_.BSs))
	// responses[b] points into respBufs[b] when BS b answered this round;
	// the buffers are decoded into afresh each round, reusing their slices.
	responses := make([]*RoundResponse, len(net_.BSs))
	respBufs := make([]RoundResponse, len(net_.BSs))
	errs := make([]error, len(net_.BSs))

	// The round snapshot carries residuals forward across rounds: a BS
	// with no requests this round sends no broadcast, so its entry keeps
	// the last reported (or initial) capacities.
	var snap *engine.Snapshot
	if cc.RoundHook != nil {
		snap = engine.NewSnapshot(net_)
	}
	exportRound := func(round int) {
		if snap == nil {
			return
		}
		snap.Round = round
		for b := range net_.BSs {
			if resp := responses[b]; resp != nil {
				copy(snap.CRURow(b), resp.RemainingCRU)
				snap.RemRRB[b] = resp.RemainingRRBs
			}
		}
		for u, st := range ues {
			snap.ServingBS[u] = st.servedBy
		}
		cc.RoundHook(snap)
	}

	work := make([]chan int, shards)
	var barrier, workers sync.WaitGroup
	for s := 0; s < shards; s++ {
		work[s] = make(chan int)
		workers.Add(1)
		go func(s int) {
			defer workers.Done()
			for round := range work[s] {
				var start time.Time
				if rec != nil {
					start = time.Now()
				}
				for _, b := range groups[s] {
					if len(batches[b]) == 0 {
						continue
					}
					if errs[b] = exchange(conns[b], timeout, &RoundRequest{Round: round, Requests: batches[b]}, &respBufs[b]); errs[b] != nil {
						break // the round is doomed; don't serialize more timeouts
					}
					responses[b] = &respBufs[b]
				}
				if rec != nil {
					rec.ShardRoundLatency(s, time.Since(start).Seconds())
				}
				barrier.Done()
			}
		}(s)
	}
	stopWorkers = func() {
		for _, w := range work {
			close(w)
		}
		workers.Wait()
	}

	maxRounds := engine.RoundBound(net_)
	for round := 1; ; round++ {
		if round > maxRounds {
			return ClusterResult{}, fmt.Errorf("wire: exceeded %d rounds without quiescing", maxRounds)
		}
		res.Rounds = round
		var roundStart time.Time
		if rec != nil {
			roundStart = time.Now()
		}
		rec.Event(obs.KindRound, round, -1, -1)

		// Propose phase: identical view-driven logic to internal/protocol,
		// on the merge goroutine so the event stream stays deterministic.
		for b := range batches {
			batches[b] = batches[b][:0]
			responses[b] = nil
			errs[b] = nil
		}
		anyRequest := false
		for u := range ues {
			if ues[u].assigned {
				continue
			}
			req, bsID, ok := prop.Propose(mec.UEID(u), views, &swept)
			if !ok {
				rec.Event(obs.KindCloudFallback, round, u, int(mec.CloudBS))
				continue
			}
			rec.EventShard(int(bsID)%shards, obs.KindPropose, round, u, int(bsID))
			batches[bsID] = append(batches[bsID], req)
			anyRequest = true
		}
		if !anyRequest {
			exportRound(round)
			if rec != nil {
				rec.RoundLatency(time.Since(roundStart).Seconds())
			}
			break
		}

		// Exchange phase: release every shard on its group, then wait at
		// the round barrier.
		barrier.Add(shards)
		for s := 0; s < shards; s++ {
			work[s] <- round
		}
		barrier.Wait()

		// Merge phase, in global BS order: surface the first failure, then
		// apply verdicts and broadcasts exactly as the serial coordinator
		// would, so the outcome is independent of the shard layout.
		for b := range net_.BSs {
			if errs[b] != nil {
				return ClusterResult{}, &BSError{BS: mec.BSID(b), Round: round, Op: "exchange", Err: errs[b]}
			}
			if resp := responses[b]; resp != nil && resp.Error != "" {
				return ClusterResult{}, &BSError{BS: mec.BSID(b), Round: round, Op: "select", Err: errors.New(resp.Error)}
			}
		}
		for b := range net_.BSs {
			resp := responses[b]
			if resp == nil {
				continue
			}
			res.Frames += 2
			for _, v := range resp.Verdicts {
				st := &ues[v.UE]
				if v.Accepted {
					rec.EventShard(b%shards, obs.KindAccept, round, int(v.UE), b)
					st.assigned = true
					st.servedBy = mec.BSID(b)
				} else if v.Permanent {
					rec.EventShard(b%shards, obs.KindRejectPermanent, round, int(v.UE), b)
					// A trimmed-but-still-feasible request keeps the BS
					// as a candidate and may retry next round.
					prop.DropBS(v.UE, mec.BSID(b))
				} else {
					rec.EventShard(b%shards, obs.KindRejectTrim, round, int(v.UE), b)
				}
			}
			rec.EventShard(b%shards, obs.KindBroadcast, round, -1, b)
			// Apply the resource broadcast to every covered UE's view.
			views.ApplyBroadcast(mec.BSID(b), resp.RemainingCRU, resp.RemainingRRBs, views.Covered(mec.BSID(b)))
			if rec != nil {
				crus := 0
				for _, c := range resp.RemainingCRU {
					crus += c
				}
				rec.Residual(b, crus, resp.RemainingRRBs)
			}
		}
		exportRound(round)
		if rec != nil {
			unmatched := 0
			for _, st := range ues {
				if !st.assigned {
					unmatched++
				}
			}
			rec.Unmatched(unmatched)
			rec.PrefCacheRound(int64(swept - lastSwept))
			lastSwept = swept
			rec.RoundLatency(time.Since(roundStart).Seconds())
		}
	}

	// Orderly shutdown: one final deadline-bounded frame per BS.
	for b, conn := range conns {
		if werr := writeFrameDeadline(conn, timeout, &RoundRequest{Shutdown: true}); werr != nil {
			return ClusterResult{}, &BSError{BS: mec.BSID(b), Op: "shutdown", Err: werr}
		}
		var resp RoundResponse
		if rerr := readFrameDeadline(conn, timeout, &resp); rerr != nil && !isClosed(rerr) {
			return ClusterResult{}, &BSError{BS: mec.BSID(b), Op: "shutdown", Err: rerr}
		}
		if resp.Error != "" {
			return ClusterResult{}, &BSError{BS: mec.BSID(b), Op: "shutdown", Err: errors.New(resp.Error)}
		}
		res.Frames += 2
	}

	res.Assignment = mec.NewAssignment(len(net_.UEs))
	for u, st := range ues {
		res.Assignment.ServingBS[u] = st.servedBy
	}
	if verr := mec.ValidateAssignment(net_, res.Assignment); verr != nil {
		return ClusterResult{}, fmt.Errorf("wire: invalid assignment: %w", verr)
	}
	res.PerBS = make([]BSTraffic, len(net_.BSs))
	for b := range res.PerBS {
		t := BSTraffic{BytesSent: perSent[b].Load(), BytesReceived: perRecv[b].Load()}
		res.PerBS[b] = t
		res.BytesSent += t.BytesSent
		res.BytesReceived += t.BytesReceived
	}
	return res, nil
}

// exchange performs one framed request/response on a connection, each
// frame bounded by its own deadline, decoding the reply into resp.
func exchange(conn net.Conn, timeout time.Duration, req *RoundRequest, resp *RoundResponse) error {
	if err := writeFrameDeadline(conn, timeout, req); err != nil {
		return err
	}
	return readFrameDeadline(conn, timeout, resp)
}
