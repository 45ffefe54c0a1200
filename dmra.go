// Package dmra reproduces "DMRA: A Decentralized Resource Allocation
// Scheme for Multi-SP Mobile Edge Computing" (Zhang, Du, Ye, Liu, Yuan;
// ICDCS 2019): the multi-SP mobile-edge-computing system model, the DMRA
// matching scheme itself, the DCSP and NonCo comparison algorithms, an
// exact small-instance optimizer, a message-level decentralized runtime,
// and the harness that regenerates every figure of the paper's evaluation.
//
// The package is a facade over the internal implementation. A minimal
// session:
//
//	scenario := dmra.DefaultScenario()   // the paper's §VI setup
//	scenario.UEs = 800
//	net, err := dmra.BuildNetwork(scenario, 1)
//	if err != nil { ... }
//	res, err := dmra.Allocate(net, "dmra")
//	if err != nil { ... }
//	fmt.Println(res.Profit.TotalProfit(), res.Profit.CloudUEs())
//
// Reproducing a paper figure:
//
//	fig, _ := dmra.FigureByID(2)
//	table, err := fig.Run(dmra.FigureOptions{Seeds: 20})
//	fmt.Print(table.Text())
//
// All randomness flows from explicit 64-bit seeds; identical inputs give
// identical outputs, including for the message-passing runtime.
package dmra

import (
	"io"

	"dmra/internal/alloc"
	"dmra/internal/exp"
	"dmra/internal/mec"
	"dmra/internal/metrics"
	"dmra/internal/obs"
	"dmra/internal/online"
	"dmra/internal/opt"
	"dmra/internal/protocol"
	"dmra/internal/qos"
	"dmra/internal/wire"
	"dmra/internal/workload"
	"dmra/internal/workload/dynamic"
)

// Scenario describes a full simulation setup: SPs, BSs, UEs, radio and
// pricing parameters. See DefaultScenario for the paper's configuration.
type Scenario = workload.Config

// Placement selects the BS deployment strategy.
type Placement = workload.Placement

// Re-exported placement and distribution constants.
const (
	// PlacementRegular is the 300 m inter-site grid of §VI-A.
	PlacementRegular = workload.PlacementRegular
	// PlacementRandom scatters BSs uniformly in the area.
	PlacementRandom = workload.PlacementRandom
	// PlacementHex lays BSs on a hexagonal lattice (extension).
	PlacementHex = workload.PlacementHex
	// UEUniform scatters UEs uniformly.
	UEUniform = workload.UEUniform
	// UEHotspot clusters UEs around random hotspots (the default).
	UEHotspot = workload.UEHotspot
)

// Network is an immutable, validated scenario instance with all per-link
// radio and pricing quantities precomputed.
type Network = mec.Network

// Assignment maps every UE to its serving BS or to the cloud.
type Assignment = mec.Assignment

// ProfitReport decomposes per-SP utility (Eq. 5-8) and system-level
// forwarding metrics for an assignment.
type ProfitReport = mec.ProfitReport

// AllocStats counts the work an allocation run performed.
type AllocStats = alloc.Stats

// DMRAConfig exposes the DMRA algorithm parameters (Eq. 17's rho and the
// Alg. 1 tie-break switches).
type DMRAConfig = alloc.DMRAConfig

// Allocator is the interface every allocation algorithm implements.
type Allocator = alloc.Allocator

// DefaultScenario returns the paper's §VI parameterization: 5 SPs x 5 BSs
// on a 300 m grid in a 1200 m x 1200 m area, 6 services, CRU capacities in
// [100,150], task demands in [3,5] CRUs and [2,6] Mbps, 10 MHz uplinks
// with 180 kHz RRBs, and the calibrated pricing of DESIGN.md.
func DefaultScenario() Scenario {
	return workload.Default()
}

// DenseCityScenario returns the rush-hour hotspot scenario of
// examples/densecity: 90% of the UEs clustered in three tight hotspots,
// Zipf service popularity. Scenario.Scale grows it at constant density
// — DenseCityScenario().Scale(31) is the million-UE benchmark rung.
func DenseCityScenario() Scenario {
	return workload.DenseCity()
}

// LoadScenario reads a scenario JSON file written by SaveScenario.
func LoadScenario(path string) (Scenario, error) {
	return workload.Load(path)
}

// SaveScenario writes a scenario as indented JSON.
func SaveScenario(s Scenario, path string) error {
	return workload.Save(s, path)
}

// BuildNetwork instantiates a scenario deterministically from a seed.
func BuildNetwork(s Scenario, seed uint64) (*Network, error) {
	return s.Build(seed)
}

// Result bundles an allocation with its profit accounting and run stats.
type Result struct {
	Assignment Assignment
	Profit     ProfitReport
	Stats      AllocStats
}

// Allocate runs the named algorithm ("dmra", "dcsp", "nonco", "random",
// "greedy") on a network and scores the outcome.
func Allocate(net *Network, algorithm string) (Result, error) {
	a, err := alloc.ByName(algorithm)
	if err != nil {
		return Result{}, err
	}
	return runAllocator(net, a)
}

// ValidateAlgorithm reports whether name is a recognized built-in
// algorithm, letting sweep drivers fail fast before replication work.
func ValidateAlgorithm(name string) error {
	if name == "dmra" {
		return nil
	}
	_, err := alloc.ByName(name)
	return err
}

// AllocateDMRA runs DMRA with an explicit configuration (rho sweeps,
// ablations).
func AllocateDMRA(net *Network, cfg DMRAConfig) (Result, error) {
	return runAllocator(net, alloc.NewDMRA(cfg))
}

// AllocateDMRAObserved is AllocateDMRA with an observability recorder
// attached: the run streams typed convergence events (round barriers,
// proposals, verdicts, cloud fallbacks) and per-round residual gauges
// into rec. A nil recorder behaves exactly like AllocateDMRA.
func AllocateDMRAObserved(net *Network, cfg DMRAConfig, rec *ObsRecorder) (Result, error) {
	return runAllocator(net, alloc.NewDMRA(cfg).WithObserver(rec))
}

// DefaultDMRAConfig returns the paper's algorithm with the calibrated
// default rho.
func DefaultDMRAConfig() DMRAConfig {
	return alloc.DefaultDMRAConfig()
}

func runAllocator(net *Network, a alloc.Allocator) (Result, error) {
	res, err := a.Allocate(net)
	if err != nil {
		return Result{}, err
	}
	return Result{
		Assignment: res.Assignment,
		Profit:     mec.Profit(net, res.Assignment),
		Stats:      res.Stats,
	}, nil
}

// Profit scores an arbitrary assignment against a network.
func Profit(net *Network, a Assignment) ProfitReport {
	return mec.Profit(net, a)
}

// ValidateAssignment checks an assignment against the TPM constraints
// (Eq. 12-16).
func ValidateAssignment(net *Network, a Assignment) error {
	return mec.ValidateAssignment(net, a)
}

// --- decentralized runtime ---

// ProtocolConfig parameterizes the message-level decentralized run.
type ProtocolConfig = protocol.Config

// ProtocolResult reports the decentralized run's assignment plus message
// and round costs.
type ProtocolResult = protocol.Result

// DefaultProtocolConfig returns a 1 ms-latency protocol with default DMRA
// parameters.
func DefaultProtocolConfig() ProtocolConfig {
	return protocol.DefaultConfig()
}

// RunDecentralized executes DMRA as actual message exchange between UE and
// BS agents on a discrete-event simulator. The resulting matching is
// identical to Allocate(net, "dmra") under the same DMRA configuration;
// the point is the message/round/latency accounting.
func RunDecentralized(net *Network, cfg ProtocolConfig) (ProtocolResult, error) {
	return protocol.Run(net, cfg)
}

// --- socket-level runtime ---

// ClusterResult reports a TCP-cluster DMRA run: the matching plus frame
// and byte counts.
type ClusterResult = wire.ClusterResult

// BSTraffic is the per-BS coordinator-side byte accounting of a cluster
// run (ClusterResult.PerBS).
type BSTraffic = wire.BSTraffic

// RunCluster executes DMRA with one real TCP server per base station
// (length-prefixed binary frames on loopback) and a single coordinator.
// The matching is identical to Allocate(net, "dmra") under the same
// configuration; the point is exercising the deployment path —
// serialization, sockets, concurrency, clean shutdown. RunRegionCluster
// takes the full configuration.
func RunCluster(net *Network, cfg DMRAConfig) (ClusterResult, error) {
	res, err := wire.RunRegionCluster(net, wire.RegionConfig{DMRA: cfg})
	return res.ClusterResult, err
}

// ClusterBSError is the typed failure of one base station in a cluster
// run; it names the BS, the round, and the failing operation, and its
// Timeout method reports an expired exchange deadline (a hung server).
type ClusterBSError = wire.BSError

// RegionConfig is the full TCP-cluster configuration: the DMRA
// parameters, the region-coordinator count (each coordinator owns a
// geographic region of base stations, with cross-region proposals
// reconciled by the per-round handoff merge), the per-frame exchange
// timeout, an optional observability recorder and round hook, and the
// production-hardening knobs: BS crash recovery and restart, and
// checkpoint/resume.
type RegionConfig = wire.RegionConfig

// RegionResult reports a TCP-cluster run: the socket accounting plus
// region topology and recovery counters.
type RegionResult = wire.RegionResult

// ClusterCheckpoint is the coordinator state written at every round
// barrier of a checkpointed region run; resuming from it reproduces the
// uninterrupted run's result exactly.
type ClusterCheckpoint = wire.Checkpoint

// RunRegionCluster executes DMRA over TCP, one server per base station,
// under cfg. Region partitioning changes wall-clock and ownership only —
// assignments and event streams are byte-identical for every region
// count, and a hung or failing BS surfaces as a *ClusterBSError.
func RunRegionCluster(net *Network, cfg RegionConfig) (RegionResult, error) {
	return wire.RunRegionCluster(net, cfg)
}

// LoadClusterCheckpoint reads a checkpoint written by a region run, for
// use as RegionConfig.Resume.
func LoadClusterCheckpoint(path string) (*ClusterCheckpoint, error) {
	return wire.LoadCheckpoint(path)
}

// --- exact optimization ---

// ExactSolution is a profit-optimal assignment of a small instance.
type ExactSolution = opt.Solution

// SolveExact computes the exact TPM optimum by branch-and-bound. It is
// exponential in the worst case and intended for instances of at most a
// few dozen UEs; it returns an error when the search exceeds nodeLimit
// (0 means the default limit).
func SolveExact(net *Network, nodeLimit int) (ExactSolution, error) {
	s := opt.Solver{NodeLimit: nodeLimit}
	return s.Solve(net)
}

// --- latency / QoS ---

// QoSConfig parameterizes the task-latency model (uplink transfer + edge
// or cloud turnaround + processing).
type QoSConfig = qos.Config

// LatencyReport summarizes the latency distribution of an assignment.
type LatencyReport = qos.Report

// DefaultQoSConfig returns the documented default latency model.
func DefaultQoSConfig() QoSConfig {
	return qos.DefaultConfig()
}

// EvaluateLatency estimates per-task service latency for an assignment —
// the QoS quantity the paper's introduction motivates: cloud-forwarded
// tasks pay the WAN round trip.
func EvaluateLatency(net *Network, a Assignment, cfg QoSConfig) (LatencyReport, error) {
	return qos.Evaluate(net, a, cfg)
}

// --- dynamic (online) sessions ---

// OnlineConfig parameterizes a dynamic arrival/departure session (the
// "adjust in real time" setting the paper's §V motivates).
type OnlineConfig = online.Config

// OnlineReport summarizes a dynamic session: lifecycle counts, edge/cloud
// split, time-integrated profit, and utilization.
type OnlineReport = online.Report

// DefaultOnlineConfig returns a moderately loaded dynamic session over the
// default scenario.
func DefaultOnlineConfig() OnlineConfig {
	return online.DefaultConfig()
}

// RunOnline executes a dynamic session: Poisson arrivals, exponential
// holding times, periodic re-allocation with the configured algorithm.
func RunOnline(cfg OnlineConfig) (OnlineReport, error) {
	return online.Run(cfg)
}

// WorkloadSpec is a versioned dynamic-workload description: traffic
// cohorts with their own arrival processes (poisson, bursty gamma,
// weibull, diurnal spike/drain), session-lifetime and demand
// distributions, or a recorded CSV trace replayed through the same
// machinery. Assign one to OnlineConfig.Workload to replace the default
// Poisson/exponential driver.
type WorkloadSpec = dynamic.Spec

// CohortReport is one cohort's slice of an online session's lifecycle
// counters.
type CohortReport = online.CohortReport

// LoadWorkloadSpec reads and validates a JSON workload spec. Unknown
// keys are rejected; a relative trace path is resolved against the spec
// file's directory.
func LoadWorkloadSpec(path string) (WorkloadSpec, error) {
	return dynamic.Load(path)
}

// DefaultWorkloadSpec returns the spec equivalent of the default online
// driver: one cohort, Poisson arrivals at rateHz, exponential lifetimes
// with mean meanHoldS.
func DefaultWorkloadSpec(rateHz, meanHoldS float64) WorkloadSpec {
	return dynamic.Default(rateHz, meanHoldS)
}

// --- figure reproduction ---

// Figure describes one of the paper's evaluation figures.
type Figure = exp.Figure

// FigureOptions controls figure replication. The zero value requests the
// documented defaults; fields whose zero is itself a meaningful setting
// (Rho 0, BaseSeed 0) are pointers built with FigureRho and FigureBaseSeed.
type FigureOptions = exp.Options

// FigureRho sets an explicit FigureOptions.Rho, distinguishing the rho=0
// price-only ablation from "use the calibrated default".
func FigureRho(v float64) *float64 { return exp.Rho(v) }

// FigureBaseSeed sets an explicit FigureOptions.BaseSeed, distinguishing
// base seed 0 from "use the default base seed".
func FigureBaseSeed(v uint64) *uint64 { return exp.BaseSeed(v) }

// ForEachParallel fans fn over indices 0..n-1 across the given number of
// worker goroutines (0 = GOMAXPROCS), returning the lowest-index error.
// It is the worker pool behind figure replication, exported for callers
// building their own deterministic experiment grids.
func ForEachParallel(parallelism, n int, fn func(i int) error) error {
	return exp.ForEach(parallelism, n, fn)
}

// Summary is one replicated quantity over its seeds: count, mean, sample
// standard deviation, minimum and maximum.
type Summary = metrics.Summary

// Replicate is the replication grid behind every experiment table: it
// runs fn once for each (row, seed) cell across parallelism workers
// (0 = GOMAXPROCS) and returns, per row, the Summary of each of fn's cols
// values over the seeds, in seed order. The summaries are bit-identical
// at any parallelism, and the error returned is the lowest-index cell's.
func Replicate(parallelism, rows, seeds, cols int, fn func(row, seed int) ([]float64, error)) ([][]Summary, error) {
	return exp.Replicate(parallelism, rows, seeds, cols, nil, fn)
}

// --- observability ---

// ObsRegistry is a dependency-free metrics registry (atomic counters,
// gauges, fixed-bucket histograms) with Prometheus-text and JSON views.
type ObsRegistry = obs.Registry

// ObsSink collects the typed convergence event stream: a bounded
// in-memory ring plus an optional JSONL writer.
type ObsSink = obs.Sink

// ObsRecorder fans runtime events into a registry and a sink; all three
// DMRA runtimes and the experiment grid accept one. A nil recorder
// disables every instrumentation site at the cost of one pointer test.
type ObsRecorder = obs.Recorder

// ObsManifest is the run-identity header stamped as a trace's first
// line: schema version, config hash, seed, algorithm and the raw
// scenario JSON. dmra-debug rebuilds networks from it and refuses to
// diff traces whose manifests disagree.
type ObsManifest = obs.Manifest

// ObsEvent is one typed convergence event (see obs.EventKind for the
// vocabulary shared by the synchronous solver, the message protocol and
// the TCP cluster).
type ObsEvent = obs.Event

// NewObsRegistry returns an empty metrics registry.
func NewObsRegistry() *ObsRegistry { return obs.NewRegistry() }

// NewObsSink returns a trace sink writing JSONL to w (nil = ring only)
// and retaining the last ringSize events in memory.
func NewObsSink(w io.Writer, ringSize int) *ObsSink { return obs.NewSink(w, ringSize) }

// NewObsRecorder returns a recorder publishing to reg and sink (either
// may be nil).
func NewObsRecorder(reg *ObsRegistry, sink *ObsSink) *ObsRecorder {
	return obs.NewRecorder(reg, sink)
}

// StartObsServer serves /metrics, /debug/vars and /debug/pprof/ for the
// registry on addr (host:port; port 0 picks an ephemeral port) until the
// returned server is closed.
func StartObsServer(addr string, reg *ObsRegistry) (*obs.Server, error) {
	return obs.StartServer(addr, reg)
}

// Table is a figure's aggregated data with text and CSV renderers.
type Table = metrics.Table

// Figures returns runners for all six figures of the paper (Figs. 2-7).
func Figures() []Figure {
	return exp.Figures()
}

// FigureByID returns the runner for one paper figure (2-7).
func FigureByID(id int) (Figure, error) {
	return exp.FigureByID(id)
}
