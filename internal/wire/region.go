package wire

import (
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"dmra/internal/alloc"
	"dmra/internal/engine"
	"dmra/internal/geo"
	"dmra/internal/mec"
	"dmra/internal/obs"
)

// RegionConfig parameterizes a TCP-cluster run: one or more coordinators,
// each owning a disjoint geographic region of base stations, drive Alg. 1
// rounds against one TCP server per BS. The zero value (plus a DMRA
// config) is a valid single-coordinator, default-timeout run.
type RegionConfig struct {
	// DMRA is the algorithm configuration shared with alloc.NewDMRA.
	DMRA alloc.DMRAConfig
	// Regions is the number of region coordinators. Base stations are
	// partitioned geographically (geo.Partition over BS positions, riding
	// the same grid the link builder queries), each coordinator owns the
	// BSs of one region plus the UEs homed there (each UE at its nearest
	// candidate BS), and proposals that cross a region boundary are
	// handed to the owning region. Results are byte-identical for every
	// value: each BS's batch is merged in global UE order whichever
	// regions proposed to it, and a BS's verdicts and broadcast touch
	// only the UEs that proposed to it and the views of that BS, so
	// regioning changes wall-clock, ownership and the handoff count,
	// never outcome. Regions <= 0 or 1 is a single coordinator.
	Regions int
	// ExchangeTimeout bounds every frame written to or read from a BS
	// connection, including the shutdown frames. A hung BS fails the run
	// with a *BSError naming it (Timeout() == true) instead of blocking
	// forever. <= 0 selects DefaultExchangeTimeout.
	ExchangeTimeout time.Duration
	// Obs, if non-nil, receives the typed convergence event stream
	// (emitted from the calling goroutine only, in deterministic UE/BS
	// order, identical for every region count), per-round residual
	// gauges, region/recovery counters, and the wire_round_seconds /
	// wire_region_round_seconds{region} latency histograms. BS-attributed
	// events carry the owning region in Event.Shard (attribution only,
	// never event identity, so traces stay diffable across region counts).
	Obs *obs.Recorder
	// RoundHook, if non-nil, observes the full matching state after each
	// round's exchange phase (and once more for the final round in which no
	// UE proposed): per-BS residuals as reported by the BS servers'
	// broadcasts, and per-UE serving BS. The snapshot is reused across
	// rounds; Clone to retain.
	RoundHook engine.RoundHook

	// Recover enables BS-crash recovery: a failed exchange (hung server,
	// dead connection, broken ledger) removes the BS from the run instead
	// of aborting it. The UEs it was serving are re-admitted — pushed
	// back to pending, the dead BS permanently dropped from their
	// candidate lists — and re-match elsewhere or fall back to the cloud
	// through the ordinary permanent-reject path. Before committing a
	// quiesced matching, the coordinator probes every serving BS with an
	// empty exchange, so a BS that died after its last productive round
	// is still detected and its UEs re-admitted.
	Recover bool
	// RestartAfterRounds, with Recover, asks the coordinator to restart a
	// crashed BS server after it has been dead that many rounds: a fresh
	// server with a full ledger is started and re-dialed, and UEs that
	// had not yet written the BS off may propose to it again. A UE has
	// written a BS off once the BS left its live candidate list: it was
	// the UE's serving BS when it crashed, the UE picked it while it was
	// dead, it rejected the UE permanently, or any propose sweep of the
	// UE found that its view of the BS could no longer fit the UE. 0
	// never restarts.
	RestartAfterRounds int

	// CheckpointPath, if non-empty, writes a JSON Checkpoint atomically
	// (temp file + rename) at every round barrier, so a killed run can
	// resume via Resume and reach the identical result.
	CheckpointPath string
	// Resume, if non-nil, resumes a run from a checkpoint instead of
	// starting fresh: BS servers start with the checkpointed residual
	// ledgers, UE views and assignments are restored, and the round loop
	// continues at Checkpoint.Round+1.
	Resume *Checkpoint
}

// RegionResult reports a TCP-cluster run: the socket accounting plus
// region topology and recovery counts.
type RegionResult struct {
	ClusterResult
	// Regions is the effective region-coordinator count.
	Regions int
	// BSRegions[b] is the region owning BS b.
	BSRegions []int
	// BoundaryUEs counts UEs whose candidate BSs span two or more
	// regions — the UEs the cross-region handoff exists for.
	BoundaryUEs int
	// HandoffProposals counts proposals routed across a region boundary
	// (a UE homed in one region proposing to a BS owned by another).
	HandoffProposals int
	// CrashedBSs, RestartedBSs, and ReadmittedUEs count recovery events:
	// BS servers detected dead, dead servers restarted and re-dialed, and
	// UEs re-admitted after their serving BS crashed.
	CrashedBSs    int
	RestartedBSs  int
	ReadmittedUEs int
}

// CheckpointSchema versions the checkpoint format.
const CheckpointSchema = 1

// Checkpoint is the coordinator state at a round barrier, sufficient to
// resume the run to the identical result. It carries the engine.Snapshot
// state (per-BS residuals, per-UE serving decision) plus the wire-level
// accounting. Per-UE candidate drops are deliberately NOT stored: every
// drop is view-derivable (a dropped BS's broadcast residuals no longer fit
// the UE, and residuals are monotone non-increasing), so the resumed
// proposer's first sweep of each UE re-drops them and the continuation is
// byte-identical.
type Checkpoint struct {
	Schema int `json:"schema"`
	// Round is the completed round the state was captured after.
	Round int `json:"round"`
	// Frames counts request/response frames exchanged so far.
	Frames int `json:"frames"`
	// Services is the stride of RemCRU.
	Services int `json:"services"`
	// RemCRU[b*Services+j] is BS b's remaining CRUs for service j.
	RemCRU []int `json:"remCRU"`
	// RemRRB[b] is BS b's remaining radio blocks.
	RemRRB []int `json:"remRRB"`
	// ServingBS[u] is the BS serving UE u, or mec.CloudBS.
	ServingBS []mec.BSID `json:"servingBS"`
	// PerBS is the per-BS byte accounting so far.
	PerBS []BSTraffic `json:"perBS"`
}

// cruRow returns BS b's residual-CRU row, aliasing the checkpoint.
func (c *Checkpoint) cruRow(b int) []int {
	return c.RemCRU[b*c.Services : (b+1)*c.Services]
}

// validate checks the checkpoint is structurally consistent with net: a
// checkpoint resumed against the wrong scenario would otherwise start BS
// ledgers from another network's residuals.
func (c *Checkpoint) validate(net_ *mec.Network) error {
	if c.Schema != CheckpointSchema {
		return fmt.Errorf("wire: checkpoint schema %d, want %d", c.Schema, CheckpointSchema)
	}
	if c.Round < 1 {
		return fmt.Errorf("wire: checkpoint at round %d, want >= 1", c.Round)
	}
	if c.Frames < 0 {
		return fmt.Errorf("wire: checkpoint frame count %d, want >= 0", c.Frames)
	}
	if c.Services != net_.Services || len(c.RemRRB) != len(net_.BSs) ||
		len(c.RemCRU) != len(net_.BSs)*net_.Services || len(c.ServingBS) != len(net_.UEs) ||
		len(c.PerBS) != len(net_.BSs) {
		return fmt.Errorf("wire: checkpoint shape (%d BSs, %d UEs, %d services) does not match the scenario (%d BSs, %d UEs, %d services)",
			len(c.RemRRB), len(c.ServingBS), c.Services, len(net_.BSs), len(net_.UEs), net_.Services)
	}
	for b := range net_.BSs {
		if c.RemRRB[b] < 0 || c.RemRRB[b] > net_.BSs[b].MaxRRBs {
			return fmt.Errorf("wire: checkpoint BS %d residual RRBs %d outside [0, %d]", b, c.RemRRB[b], net_.BSs[b].MaxRRBs)
		}
		for j, rem := range c.cruRow(b) {
			if rem < 0 || rem > net_.BSs[b].CRUCapacity[j] {
				return fmt.Errorf("wire: checkpoint BS %d service %d residual CRUs %d outside [0, %d]",
					b, j, rem, net_.BSs[b].CRUCapacity[j])
			}
		}
	}
	for b, t := range c.PerBS {
		if t.BytesSent < 0 || t.BytesReceived < 0 {
			return fmt.Errorf("wire: checkpoint BS %d byte counts %d/%d, want >= 0", b, t.BytesSent, t.BytesReceived)
		}
	}
	for u, b := range c.ServingBS {
		if b == mec.CloudBS {
			continue
		}
		if _, ok := net_.Link(mec.UEID(u), b); !ok {
			return fmt.Errorf("wire: checkpoint UE %d served by BS %d, not one of its candidates", u, b)
		}
	}
	return nil
}

// Save writes the checkpoint as JSON, atomically: the bytes land in a
// temp file first and replace path via rename, so a kill mid-write leaves
// the previous checkpoint intact.
func (c *Checkpoint) Save(path string) error {
	data, err := json.Marshal(c)
	if err != nil {
		return fmt.Errorf("wire: marshal checkpoint: %w", err)
	}
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, data, 0o644); err != nil {
		return fmt.Errorf("wire: write checkpoint: %w", err)
	}
	if err := os.Rename(tmp, path); err != nil {
		return fmt.Errorf("wire: commit checkpoint: %w", err)
	}
	return nil
}

// LoadCheckpoint reads a checkpoint written by Save.
func LoadCheckpoint(path string) (*Checkpoint, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("wire: read checkpoint: %w", err)
	}
	cp := &Checkpoint{}
	if err := json.Unmarshal(data, cp); err != nil {
		return nil, fmt.Errorf("wire: decode checkpoint: %w", err)
	}
	if cp.Schema != CheckpointSchema {
		return nil, fmt.Errorf("wire: checkpoint schema %d, want %d", cp.Schema, CheckpointSchema)
	}
	return cp, nil
}

// testHookAfterRound, when non-nil, runs at every round barrier after the
// checkpoint is written. A non-nil return aborts the run with that error,
// which is how tests simulate a coordinator killed mid-run; tests also use
// it to kill BS servers between rounds. Always nil in production.
var testHookAfterRound func(round int) error

// errKilled distinguishes a test-requested abort.
var errKilled = errors.New("wire: run killed by test hook")

// regionWork is one phase dispatch to a region coordinator goroutine.
type regionWork struct {
	round    int
	exchange bool // false: propose phase, true: exchange phase
}

// regionTally is what one region goroutine reports of a phase: its
// swept candidates, proposals and cross-region handoffs (propose) or its
// answered exchanges' frames (exchange). Each region writes only its own.
type regionTally struct {
	swept                      uint64
	requests, handoffs, frames int
}

// partition splits net into regions: BS b belongs to regionOf[b], from
// geo.Partition over the BS positions (riding the same grid the link
// builder queries), and every UE is homed in the region of its nearest
// candidate BS (least DistanceM, ties to the lower candidate index); a UE
// with no candidates is cloud-bound and parks in region 0. regionUEs[r]
// lists region r's UEs in ascending order, and boundary counts the UEs
// whose candidates span two or more regions. Homing by nearest BS spreads
// the UEs over the regions as the BSs are spread, which balances the
// parallel propose phase, and keeps most proposals inside their region.
func partition(net_ *mec.Network, regions int) (regionOf []int, regionUEs [][]int, boundary int, err error) {
	bsPts := make([]geo.Point, len(net_.BSs))
	for b := range net_.BSs {
		bsPts[b] = net_.BSs[b].Pos
	}
	if regionOf, err = geo.Partition(bsPts, regions); err != nil {
		return nil, nil, 0, err
	}
	csr := net_.Dense()
	regionUEs = make([][]int, regions)
	for u := range csr.UEs() {
		lo, hi := csr.CandRange(mec.UEID(u))
		home, spans := 0, false
		if hi > lo {
			near, first := lo, regionOf[csr.BS[lo]]
			for k := lo + 1; k < hi; k++ {
				if csr.DistanceM[k] < csr.DistanceM[near] {
					near = k
				}
				spans = spans || regionOf[csr.BS[k]] != first
			}
			home = regionOf[csr.BS[near]]
		}
		regionUEs[home] = append(regionUEs[home], u)
		if spans {
			boundary++
		}
	}
	return regionOf, regionUEs, boundary, nil
}

// RunRegionCluster executes DMRA with one TCP server per base station,
// driven by rc.Regions coordinator goroutines that each own a
// geographically contiguous group of base stations (geo.Partition over BS
// positions) and the UEs homed in their region, each UE at its nearest
// candidate BS. Every round, each region proposes for its own pending UEs
// in parallel, filing each request under the target BS in a sub-batch of
// its own; a proposal whose target BS lives in another region counts as
// a cross-region handoff. Each region then merges its BSs' sub-batches in
// global UE order, writes all of its BSs' requests, and reads their
// responses in BS order, applying each BS's verdicts and broadcast as it
// arrives. A UE proposes to one BS per round and a broadcast rewrites
// only its own BS's row of views, so the regions' applies touch disjoint
// state, and the assignment, the ordered obs event
// stream (emitted by the calling goroutine in global UE/BS order), frame
// counts, and per-BS byte totals are byte-identical for every region
// count, and the assignment identical to alloc.NewDMRA(rc.DMRA).Allocate
// (parity- and fuzz-tested). Every exchange is bounded by
// rc.ExchangeTimeout, and any BS-side failure — hung exchange, select
// error, malformed response, server close error — surfaces as a *BSError
// naming the base station.
//
// On top of the partition, the run is hardened for production: Recover
// survives BS crashes mid-run (detect via the exchange deadlines, close
// the dead server, re-admit its UEs through the permanent-reject path,
// optionally restart and re-dial it), and CheckpointPath/Resume
// checkpoint the coordinator state every round so a killed run resumes to
// the identical result.
func RunRegionCluster(net_ *mec.Network, rc RegionConfig) (res RegionResult, err error) {
	timeout := rc.ExchangeTimeout
	if timeout <= 0 {
		timeout = DefaultExchangeTimeout
	}
	regions := rc.Regions
	if regions > len(net_.BSs) {
		regions = len(net_.BSs)
	}
	if regions < 1 {
		regions = 1
	}
	res.Regions = regions
	rec := rc.Obs

	regionOf, regionUEs, boundary, err := partition(net_, regions)
	if err != nil {
		return res, err
	}
	res.BSRegions, res.BoundaryUEs = regionOf, boundary
	regionBSs := make([][]int, regions)
	for b := range net_.BSs {
		regionBSs[regionOf[b]] = append(regionBSs[regionOf[b]], b)
	}

	cp := rc.Resume
	if cp != nil {
		if verr := cp.validate(net_); verr != nil {
			return RegionResult{}, verr
		}
	}
	// One proposer for the run: its per-UE state is touched only for the
	// UE being proposed for, and each region proposes only for the UEs it
	// homes, so the parallel propose phase is race-free. In the exchange
	// phase each region applies only its own BSs' verdicts (to UEs that
	// proposed to those BSs, one BS per UE) and broadcasts (to those BSs'
	// rows of views), so the parallel apply is race-free too.
	prop := engine.NewProposer(net_, rc.DMRA)

	servers := make([]*BSServer, len(net_.BSs))
	conns := make([]net.Conn, len(net_.BSs))
	var stopWorkers func()
	defer func() {
		// Teardown order matters: sever the connections first so no
		// region worker stays parked in a read, then stop the workers,
		// then close the servers, folding the first close error (in
		// global BS order) into the run's error instead of discarding it.
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
			res = RegionResult{}
		}
	}()

	// One counter pair per BS connection; the totals are summed at the end.
	sent := make([]atomic.Int64, len(net_.BSs))
	recv := make([]atomic.Int64, len(net_.BSs))
	dialBS := func(b int, cru []int, rrbs int) error {
		s, serr := StartBS(mec.BSID(b), cru, rrbs, rc.DMRA, timeout)
		if serr != nil {
			return serr
		}
		servers[b] = s
		if testHookStartBS != nil {
			testHookStartBS(s)
		}
		conn, derr := net.Dial("tcp", s.Addr())
		if derr != nil {
			return fmt.Errorf("wire: dial BS %d: %w", b, derr)
		}
		conns[b] = countingConn{Conn: conn, sent: &sent[b], received: &recv[b]}
		return nil
	}
	for b := range net_.BSs {
		cru, rrbs := net_.BSs[b].CRUCapacity, net_.BSs[b].MaxRRBs
		if cp != nil {
			// Resumed servers open their books at the checkpointed
			// residuals: capacity already granted stays granted.
			cru, rrbs = cp.cruRow(b), cp.RemRRB[b]
		}
		if serr := dialBS(b, cru, rrbs); serr != nil {
			return RegionResult{}, serr
		}
		if cp != nil {
			sent[b].Store(cp.PerBS[b].BytesSent)
			recv[b].Store(cp.PerBS[b].BytesReceived)
		}
	}

	// unswept counts the candidates swept since the last per-round
	// telemetry report.
	var unswept uint64
	// The coordinator hosts the thin UE agents: serving[u] is the BS
	// serving UE u (CloudBS while it is pending), and prop holds every
	// UE's live candidates and broadcast-fed views.
	serving := mec.NewAssignment(len(net_.UEs)).ServingBS
	if cp != nil {
		copy(serving, cp.ServingBS)
		// Views restore from the checkpointed residuals — in a loss-free
		// cluster every covered UE's view of a BS equals its last
		// broadcast, which is exactly what the checkpoint holds. Every
		// candidate a UE had dropped is view-infeasible under these
		// residuals (drops are monotone-derivable), so the fresh
		// proposer's first sweep of each UE re-drops them and the
		// continuation is byte-identical.
		for b := range net_.BSs {
			prop.ApplyBroadcast(mec.BSID(b), cp.cruRow(b), cp.RemRRB[b], nil)
		}
	}

	// target[u] is the BS UE u proposed to this round, or -1. subs[h][b]
	// is the sub-batch of requests that UEs homed in region h sent to BS
	// b this round, in ascending UE order; BS b's owner merges its column
	// into batches[b] (merged[b] is the merge's buffer).
	target := make([]int32, len(net_.UEs))
	subs := make([][][]Request, regions)
	for h := range subs {
		subs[h] = make([][]Request, len(net_.BSs))
	}
	batches := make([][]Request, len(net_.BSs))
	merged := make([][]Request, len(net_.BSs))
	// responses[b] points into respBufs[b] when BS b answered this round.
	responses := make([]*RoundResponse, len(net_.BSs))
	respBufs := make([]RoundResponse, len(net_.BSs))
	errs := make([]error, len(net_.BSs))
	dead := make([]bool, len(net_.BSs))
	crashRound := make([]int, len(net_.BSs))
	tally := make([]regionTally, regions)

	var snap *engine.Snapshot
	if rc.RoundHook != nil || rc.CheckpointPath != "" {
		snap = engine.NewSnapshot(net_)
		if cp != nil {
			copy(snap.RemCRU, cp.RemCRU)
			copy(snap.RemRRB, cp.RemRRB)
			copy(snap.ServingBS, cp.ServingBS)
		}
	}

	// propose walks region r's own pending UEs in ascending order, filing
	// each request under its target BS in the region's sub-batches. Dead
	// BSs are dropped at proposal time — the receiver-side effect of the
	// crash — and the propose retried until a live target or cloud.
	propose := func(r int) {
		sub := subs[r]
		for b := range sub {
			sub[b] = sub[b][:0]
		}
		t := regionTally{}
		for _, u := range regionUEs[r] {
			target[u] = -1
			if serving[u] != mec.CloudBS {
				continue
			}
			for {
				req, bsID, ok := prop.Propose(mec.UEID(u), &t.swept)
				if !ok {
					break
				}
				if dead[bsID] {
					prop.DropBS(mec.UEID(u), bsID)
					continue
				}
				target[u] = int32(bsID)
				sub[bsID] = append(sub[bsID], req)
				t.requests++
				if regionOf[bsID] != r {
					t.handoffs++
				}
				break
			}
		}
		tally[r] = t
	}

	// batchFor returns BS b's request batch: every region's sub-batch for
	// b merged in ascending UE order, the order a single coordinator
	// would have filed them in. heads is the caller's per-region cursor
	// scratch.
	batchFor := func(b int, heads []int) []Request {
		var only []Request
		nonEmpty := 0
		for h := range subs {
			if s := subs[h][b]; len(s) > 0 {
				only = s
				nonEmpty++
			}
		}
		if nonEmpty <= 1 {
			return only
		}
		out := merged[b][:0]
		clear(heads)
		for {
			best := -1
			var bestUE mec.UEID
			for h := range subs {
				if i := heads[h]; i < len(subs[h][b]) {
					if ue := subs[h][b][i].UE; best < 0 || ue < bestUE {
						best, bestUE = h, ue
					}
				}
			}
			if best < 0 {
				break
			}
			out = append(out, subs[best][b][heads[best]])
			heads[best]++
		}
		merged[b] = out
		return out
	}

	// apply takes BS b's answered round into the UE side: accepted UEs are
	// served by b, permanently rejected ones drop b, and every covered
	// UE's view of b takes the broadcast (b's row). Only UEs that proposed
	// to b and b's row are written, so regions apply concurrently.
	apply := func(b int, resp *RoundResponse) {
		bs := mec.BSID(b)
		for _, v := range resp.Verdicts {
			if v.Accepted {
				serving[v.UE] = bs
			} else if v.Permanent {
				prop.DropBS(v.UE, bs)
			}
		}
		prop.ApplyBroadcast(bs, resp.RemainingCRU, resp.RemainingRRBs, nil)
	}

	// checkResponse rejects a response apply could not take safely: a
	// broadcast of the wrong shape or outside b's capacities, or a verdict
	// for a UE that did not propose to b this round.
	checkResponse := func(b int, resp *RoundResponse) error {
		if resp.Error != "" {
			return nil // reported by the coordinator as a select failure
		}
		bs := &net_.BSs[b]
		if len(resp.RemainingCRU) != net_.Services {
			return fmt.Errorf("%w: broadcast of %d services, want %d", errMalformed, len(resp.RemainingCRU), net_.Services)
		}
		for j, rem := range resp.RemainingCRU {
			if rem < 0 || rem > bs.CRUCapacity[j] {
				return fmt.Errorf("%w: broadcast service %d residual CRUs %d outside [0, %d]", errMalformed, j, rem, bs.CRUCapacity[j])
			}
		}
		if resp.RemainingRRBs < 0 || resp.RemainingRRBs > bs.MaxRRBs {
			return fmt.Errorf("%w: broadcast residual RRBs %d outside [0, %d]", errMalformed, resp.RemainingRRBs, bs.MaxRRBs)
		}
		for _, v := range resp.Verdicts {
			if v.UE < 0 || int(v.UE) >= len(target) || target[v.UE] != int32(b) {
				return fmt.Errorf("%w: verdict for UE %d, which did not propose to BS %d", errMalformed, v.UE, b)
			}
		}
		return nil
	}

	// exchangeRegion drives region r's BSs through one round: merge and
	// write every BS's batch first, so the servers select concurrently,
	// then read the responses in BS order and apply each as it arrives.
	exchangeRegion := func(r, round int, req *RoundRequest, heads []int) {
		bss := regionBSs[r]
		// Without Recover the first failure dooms the round; stop rather
		// than serialize more timeouts.
		doomed := false
		for _, b := range bss {
			responses[b], errs[b] = nil, nil
			batches[b] = batchFor(b, heads)
			if len(batches[b]) == 0 || doomed {
				continue
			}
			*req = RoundRequest{Round: round, Requests: batches[b]}
			if errs[b] = writeFrameDeadline(conns[b], timeout, req); errs[b] != nil && !rc.Recover {
				doomed = true
			}
		}
		frames := 0
		for _, b := range bss {
			if doomed {
				break
			}
			if len(batches[b]) == 0 || errs[b] != nil {
				continue
			}
			resp := &respBufs[b]
			if errs[b] = readFrameDeadline(conns[b], timeout, resp); errs[b] == nil {
				errs[b] = checkResponse(b, resp)
			}
			if errs[b] != nil {
				doomed = !rc.Recover
				continue
			}
			responses[b] = resp
			if resp.Error == "" {
				apply(b, resp)
				frames += 2
			}
		}
		tally[r].frames = frames
	}

	work := make([]chan regionWork, regions)
	var barrier, workers sync.WaitGroup
	for r := 0; r < regions; r++ {
		work[r] = make(chan regionWork)
		workers.Add(1)
		go func(r int) {
			defer workers.Done()
			var req RoundRequest
			heads := make([]int, regions)
			for w := range work[r] {
				if !w.exchange {
					propose(r)
					barrier.Done()
					continue
				}
				var start time.Time
				if rec != nil {
					start = time.Now()
				}
				exchangeRegion(r, w.round, &req, heads)
				if rec != nil {
					rec.RegionRoundLatency(r, time.Since(start).Seconds())
				}
				barrier.Done()
			}
		}(r)
	}
	stopWorkers = func() {
		for _, w := range work {
			close(w)
		}
		workers.Wait()
	}
	dispatch := func(w regionWork) {
		barrier.Add(regions)
		for r := 0; r < regions; r++ {
			work[r] <- w
		}
		barrier.Wait()
	}

	// crash removes BS b from the run: close its server and connection,
	// re-admit the UEs it was serving (back to pending, the BS permanently
	// dropped from their candidates), and re-arm the round budget — a
	// crash re-opens finished work, so the deferred-acceptance bound
	// restarts from the crash round.
	maxRounds := engine.RoundBound(net_)
	if cp != nil {
		maxRounds += cp.Round
	}
	crash := func(b, round int) {
		if dead[b] {
			return
		}
		dead[b] = true
		crashRound[b] = round
		res.CrashedBSs++
		rec.BSCrashed()
		if conns[b] != nil {
			conns[b].Close()
			conns[b] = nil
		}
		if servers[b] != nil {
			servers[b].Close() // error irrelevant: the server is being written off
			servers[b] = nil
		}
		readmitted := 0
		for u, s := range serving {
			if s != mec.BSID(b) {
				continue
			}
			serving[u] = mec.CloudBS
			prop.DropBS(mec.UEID(u), mec.BSID(b))
			readmitted++
		}
		res.ReadmittedUEs += readmitted
		rec.ReadmittedUEs(readmitted)
		responses[b] = nil
		errs[b] = nil
		maxRounds = round + engine.RoundBound(net_)
	}

	// probeServing detects BSs that died after their last productive
	// exchange: before committing a quiesced matching, every BS still
	// serving a UE answers one empty exchange. A dead one crashes (its
	// UEs re-admitted) and the round loop continues.
	probeServing := func(round int) bool {
		busy := make([]bool, len(net_.BSs))
		for _, s := range serving {
			if s != mec.CloudBS {
				busy[s] = true
			}
		}
		crashed := false
		var probe RoundResponse
		for b := range net_.BSs {
			if !busy[b] || dead[b] || conns[b] == nil {
				continue
			}
			if perr := exchange(conns[b], timeout, &RoundRequest{Round: round}, &probe); perr != nil {
				crash(b, round)
				crashed = true
				continue
			}
			res.Frames += 2
		}
		return crashed
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
		copy(snap.ServingBS, serving)
		if rc.RoundHook != nil {
			rc.RoundHook(snap)
		}
	}
	endRound := func(round int) error {
		exportRound(round)
		if rc.CheckpointPath != "" {
			c := &Checkpoint{
				Schema:    CheckpointSchema,
				Round:     round,
				Frames:    res.Frames,
				Services:  net_.Services,
				RemCRU:    append([]int(nil), snap.RemCRU...),
				RemRRB:    append([]int(nil), snap.RemRRB...),
				ServingBS: append([]mec.BSID(nil), snap.ServingBS...),
				PerBS:     make([]BSTraffic, len(net_.BSs)),
			}
			for b := range c.PerBS {
				c.PerBS[b] = BSTraffic{BytesSent: sent[b].Load(), BytesReceived: recv[b].Load()}
			}
			if werr := c.Save(rc.CheckpointPath); werr != nil {
				return werr
			}
		}
		if testHookAfterRound != nil {
			if herr := testHookAfterRound(round); herr != nil {
				return herr
			}
		}
		return nil
	}

	if cp != nil {
		res.Frames = cp.Frames
	}
	startRound := 1
	if cp != nil {
		startRound = cp.Round + 1
	}
	for round := startRound; ; round++ {
		if round > maxRounds {
			return RegionResult{}, fmt.Errorf("wire: exceeded %d rounds without quiescing", maxRounds)
		}
		res.Rounds = round
		var roundStart time.Time
		if rec != nil {
			roundStart = time.Now()
		}

		// Restart phase: revive crashed servers whose grace period
		// expired. The fresh server opens a full ledger (its pre-crash
		// grants were re-admitted elsewhere); UEs that already wrote the
		// BS off during its downtime keep it dropped, everyone else may
		// propose to it again off their pre-crash views — which only
		// under-promise against the fresh book.
		if rc.Recover && rc.RestartAfterRounds > 0 {
			for b := range net_.BSs {
				if !dead[b] || round-crashRound[b] < rc.RestartAfterRounds {
					continue
				}
				if rerr := dialBS(b, net_.BSs[b].CRUCapacity, net_.BSs[b].MaxRRBs); rerr != nil {
					// The replacement refused to come up; stay dead and
					// retry next round.
					if servers[b] != nil {
						servers[b].Close()
						servers[b] = nil
					}
					continue
				}
				dead[b] = false
				res.RestartedBSs++
				rec.BSRestarted()
			}
		}

		rec.Event(obs.KindRound, round, -1, -1)

		// Propose phase: regions walk their own pending UEs in parallel
		// and file each request under its target BS.
		dispatch(regionWork{round: round})
		requests, handoffs := 0, 0
		for _, t := range tally {
			unswept += t.swept
			requests += t.requests
			handoffs += t.handoffs
		}
		if rec != nil {
			// Events in global UE order, so the stream is independent of
			// the partition.
			for u, s := range serving {
				if s != mec.CloudBS {
					continue
				}
				if b := target[u]; b < 0 {
					rec.Event(obs.KindCloudFallback, round, u, int(mec.CloudBS))
				} else {
					rec.EventShard(regionOf[b], obs.KindPropose, round, u, int(b))
				}
			}
		}
		res.HandoffProposals += handoffs
		rec.RegionHandoffs(handoffs)
		if requests == 0 {
			clear(responses)
			if rc.Recover && probeServing(round) {
				// A serving BS died after its last productive round; its
				// UEs are pending again, so the matching is not done.
				exportRound(round)
				if rec != nil {
					rec.RoundLatency(time.Since(roundStart).Seconds())
				}
				continue
			}
			if herr := endRound(round); herr != nil {
				return RegionResult{}, herr
			}
			if rec != nil {
				rec.RoundLatency(time.Since(roundStart).Seconds())
			}
			break
		}

		// Exchange phase: every region merges, exchanges and applies its
		// own base stations' batches.
		dispatch(regionWork{round: round, exchange: true})

		// Failures, in global BS order. Without Recover the first one
		// aborts the run with a *BSError naming the BS; with Recover each
		// failed BS crashes out of the run, and the round's surviving
		// verdicts, already applied, stand: a failed BS's verdicts never
		// apply, and the UEs it served did not propose this round.
		for b := range net_.BSs {
			failed := errs[b] != nil || (responses[b] != nil && responses[b].Error != "")
			switch {
			case !failed:
			case rc.Recover:
				crash(b, round)
			case errs[b] != nil:
				return RegionResult{}, &BSError{BS: mec.BSID(b), Round: round, Op: "exchange", Err: errs[b]}
			default:
				return RegionResult{}, &BSError{BS: mec.BSID(b), Round: round, Op: "select", Err: errors.New(responses[b].Error)}
			}
		}
		for _, t := range tally {
			res.Frames += t.frames
		}
		if rec != nil {
			// Events and gauges in global BS order; the state they
			// describe was applied by the regions.
			for b, resp := range responses {
				if resp == nil {
					continue
				}
				for _, v := range resp.Verdicts {
					kind := obs.KindRejectTrim
					if v.Accepted {
						kind = obs.KindAccept
					} else if v.Permanent {
						kind = obs.KindRejectPermanent
					}
					rec.EventShard(regionOf[b], kind, round, int(v.UE), b)
				}
				rec.EventShard(regionOf[b], obs.KindBroadcast, round, -1, b)
				crus := 0
				for _, c := range resp.RemainingCRU {
					crus += c
				}
				rec.Residual(b, crus, resp.RemainingRRBs)
			}
		}
		if herr := endRound(round); herr != nil {
			return RegionResult{}, herr
		}
		if rec != nil {
			unmatched := 0
			for _, s := range serving {
				if s == mec.CloudBS {
					unmatched++
				}
			}
			rec.Unmatched(unmatched)
			rec.SweptCandidates(int64(unswept))
			unswept = 0
			rec.RoundLatency(time.Since(roundStart).Seconds())
		}
	}

	// Orderly shutdown: one final deadline-bounded frame per live BS.
	// Dead, never-restarted BSs have no connection and nothing to shut
	// down. With Recover, a shutdown failure is counted as a crash but no
	// longer aborts the run: the matching is committed (every serving BS
	// answered the pre-commit probe), so the failure is a serving-time
	// event, not a matching error.
	for b, conn := range conns {
		if conn == nil {
			continue
		}
		shutErr := writeFrameDeadline(conn, timeout, &RoundRequest{Shutdown: true})
		if shutErr == nil {
			var resp RoundResponse
			if rerr := readFrameDeadline(conn, timeout, &resp); rerr != nil && !isClosed(rerr) {
				shutErr = rerr
			} else if resp.Error != "" {
				shutErr = errors.New(resp.Error)
			}
		}
		if shutErr != nil {
			if rc.Recover {
				crash(b, res.Rounds)
				continue
			}
			return RegionResult{}, &BSError{BS: mec.BSID(b), Op: "shutdown", Err: shutErr}
		}
		res.Frames += 2
	}

	res.Assignment = mec.Assignment{ServingBS: serving}
	if verr := mec.ValidateAssignment(net_, res.Assignment); verr != nil {
		return RegionResult{}, fmt.Errorf("wire: invalid assignment: %w", verr)
	}
	res.PerBS = make([]BSTraffic, len(net_.BSs))
	for b := range res.PerBS {
		t := BSTraffic{BytesSent: sent[b].Load(), BytesReceived: recv[b].Load()}
		res.PerBS[b] = t
		res.BytesSent += t.BytesSent
		res.BytesReceived += t.BytesReceived
	}
	return res, nil
}
