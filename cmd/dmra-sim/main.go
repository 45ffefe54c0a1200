// Command dmra-sim runs one allocation scenario and prints a per-SP
// profit report.
//
// Usage:
//
//	dmra-sim [flags]
//
//	-ues 800            UE population
//	-seed 1             scenario seed
//	-algo dmra          dmra | dcsp | nonco | random | greedy
//	-placement regular  regular | random BS placement
//	-iota 2             cross-SP price factor
//	-rho 250            DMRA resource-preference weight (Eq. 17)
//	-scenario file      load a scenario JSON instead of defaults
//	-dense              start from the dense-city hotspot scenario
//	-scale 1            edge-scale the scenario at constant density (31 ≈ 1M UEs)
//	-repeat 1           re-run the in-process match N times (profiling window)
//	-decentralized      run DMRA as message exchange and report costs
//	-tcp                run DMRA over real TCP sockets (one server per BS)
//	-regions 0          region coordinators for -tcp (0 = single coordinator);
//	                    BSs are partitioned geographically, results identical
//	-checkpoint file    with -tcp: checkpoint every round; resume from the
//	                    file when it already exists
//	-exchange-timeout 0 per-frame deadline for -tcp exchanges (0 = default 10s)
//	-obs-addr host:port serve /metrics, /debug/vars, /debug/pprof live
//	-trace file         write the typed convergence event stream as JSONL
//	-obs-hold 30s       keep the debug server up after the run for scraping
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"text/tabwriter"
	"time"

	"dmra"
	"dmra/internal/alloc"
	"dmra/internal/cliobs"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "dmra-sim:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("dmra-sim", flag.ContinueOnError)
	var (
		ues           = fs.Int("ues", 800, "UE population")
		seed          = fs.Uint64("seed", 1, "scenario seed")
		algo          = fs.String("algo", "dmra", "allocation algorithm (dmra|dcsp|nonco|random|greedy)")
		placement     = fs.String("placement", "regular", "BS placement (regular|random)")
		iota          = fs.Float64("iota", 2, "cross-SP price factor")
		rho           = fs.Float64("rho", dmra.DefaultDMRAConfig().Rho, "DMRA rho (Eq. 17)")
		scenarioPath  = fs.String("scenario", "", "scenario JSON file (overrides other scenario flags)")
		dense         = fs.Bool("dense", false, "start from the dense-city hotspot scenario instead of the paper default")
		scale         = fs.Int("scale", 1, "edge-scale the scenario at constant density (UEs grow with the square; 31 ≈ one million UEs)")
		repeat        = fs.Int("repeat", 1, "re-run the in-process DMRA match N times against one reused engine (profiling window)")
		decentralized = fs.Bool("decentralized", false, "run DMRA as message exchange on the event simulator")
		tcp           = fs.Bool("tcp", false, "run DMRA over real TCP sockets (one server per BS)")
		regions       = fs.Int("regions", 0, "region coordinators for -tcp (0 = single coordinator; BSs partition geographically, results are identical for any value)")
		checkpoint    = fs.String("checkpoint", "", "with -tcp: write a resumable checkpoint every round, and resume from it when the file already exists")
		exchangeTO    = fs.Duration("exchange-timeout", 0, "per-frame deadline for -tcp exchanges (0 = default; a hung BS fails the run with an error naming it)")
	)
	obsFlags := cliobs.Register(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	obsRT, err := obsFlags.Start()
	if err != nil {
		return err
	}

	if *repeat < 1 {
		return fmt.Errorf("-repeat must be at least 1, got %d", *repeat)
	}
	if *repeat > 1 && (*decentralized || *tcp || *algo != "dmra") {
		return fmt.Errorf("-repeat applies only to the in-process dmra solver")
	}
	if *regions > 0 && !*tcp {
		return fmt.Errorf("-regions applies only to the -tcp runtime")
	}
	if *checkpoint != "" && !*tcp {
		return fmt.Errorf("-checkpoint applies only to the -tcp runtime")
	}

	scenario := dmra.DefaultScenario()
	if *dense {
		scenario = dmra.DenseCityScenario()
	}
	if *scenarioPath != "" {
		loaded, err := dmra.LoadScenario(*scenarioPath)
		if err != nil {
			return err
		}
		scenario = loaded
	} else {
		// -ues overrides the scenario population only when given (or in
		// the classic flat invocation, where it always did): the dense
		// and scaled scenarios carry their own calibrated populations.
		uesSet := false
		fs.Visit(func(f *flag.Flag) { uesSet = uesSet || f.Name == "ues" })
		if uesSet || (!*dense && *scale <= 1) {
			scenario.UEs = *ues
		}
		scenario.Placement = dmra.Placement(*placement)
		scenario.Pricing.CrossSPFactor = *iota
		scenario = scenario.Scale(*scale)
	}

	net, err := dmra.BuildNetwork(scenario, *seed)
	if err != nil {
		return err
	}
	// Stamp the run identity as the trace's first line so dmra-debug can
	// rebuild the exact network and refuse to diff incomparable runs. The
	// runtime goes in Tool (hash-excluded): alloc, protocol and wire
	// traces of the same scenario are parity-comparable by design.
	scenarioJSON, err := json.Marshal(scenario)
	if err != nil {
		return err
	}
	if err := obsRT.WriteManifest(dmra.ObsManifest{
		Tool:      "dmra-sim/" + runtimeName(*decentralized, *tcp),
		Algorithm: *algo,
		Seed:      *seed,
		Rho:       *rho,
		Shards:    coordinatorsOf(*tcp, *regions, len(net.BSs)),
		Scenario:  scenarioJSON,
	}); err != nil {
		return err
	}
	fmt.Printf("scenario: %s placement, iota=%g, seed=%d\n",
		scenario.Placement, scenario.Pricing.CrossSPFactor, *seed)
	fmt.Println(net.Summarize())
	fmt.Println()

	switch {
	case *decentralized:
		err = runDecentralized(net, *rho, obsRT.Rec)
	case *tcp:
		err = runTCP(net, *rho, *regions, *exchangeTO, *checkpoint, obsRT.Rec)
	default:
		var res dmra.Result
		if *algo == "dmra" {
			cfg := dmra.DefaultDMRAConfig()
			cfg.Rho = *rho
			res, err = runSolver(net, cfg, *repeat, obsRT.Rec)
		} else {
			res, err = dmra.Allocate(net, *algo)
		}
		if err == nil {
			report(net, res)
		}
	}
	if err != nil {
		return err
	}
	return obsRT.Close()
}

// runSolver drives the in-process DMRA match -repeat times against one
// reused engine instance, so a profiling session (`-repeat 50 -obs-addr
// ... -dense -scale 31`, then `go tool pprof .../debug/pprof/profile`)
// watches the steady-state round loop — arena reuse, zero allocations —
// rather than first-run setup. The result is identical for every
// iteration; the last one is reported.
func runSolver(net *dmra.Network, cfg dmra.DMRAConfig, repeat int, rec *dmra.ObsRecorder) (dmra.Result, error) {
	d := alloc.NewDMRA(cfg).WithObserver(rec)
	var res alloc.Result
	for i := 0; i < repeat; i++ {
		if err := d.AllocateInto(net, &res); err != nil {
			return dmra.Result{}, err
		}
	}
	return dmra.Result{
		Assignment: res.Assignment,
		Profit:     dmra.Profit(net, res.Assignment),
		Stats:      res.Stats,
	}, nil
}

func runDecentralized(net *dmra.Network, rho float64, rec *dmra.ObsRecorder) error {
	cfg := dmra.DefaultProtocolConfig()
	cfg.DMRA.Rho = rho
	cfg.Obs = rec
	pres, err := dmra.RunDecentralized(net, cfg)
	if err != nil {
		return err
	}
	res := dmra.Result{
		Assignment: pres.Assignment,
		Profit:     dmra.Profit(net, pres.Assignment),
	}
	report(net, res)
	fmt.Printf("protocol: %d rounds, %d messages (%d requests, %d accepts, %d rejects, %d broadcasts), %.1f ms simulated\n",
		pres.Rounds, pres.Messages, pres.Requests, pres.Accepts, pres.Rejects, pres.Broadcasts, pres.SimTimeS*1e3)
	return nil
}

// runTCP drives the TCP cluster: one server per BS and regions
// coordinators (0 or 1 is a single coordinator). A non-empty
// checkpointPath makes the run durable: the coordinator state lands on
// disk at every round barrier, and an existing file (a killed earlier
// run) is resumed instead of started over — the resumed result is
// identical to an uninterrupted run.
func runTCP(net *dmra.Network, rho float64, regions int, exchangeTO time.Duration, checkpointPath string, rec *dmra.ObsRecorder) error {
	cfg := dmra.DefaultDMRAConfig()
	cfg.Rho = rho
	rcfg := dmra.RegionConfig{
		DMRA:            cfg,
		Regions:         regions,
		ExchangeTimeout: exchangeTO,
		Obs:             rec,
		CheckpointPath:  checkpointPath,
	}
	if checkpointPath != "" {
		if cp, err := dmra.LoadClusterCheckpoint(checkpointPath); err == nil {
			fmt.Printf("resuming from checkpoint %s (round %d)\n\n", checkpointPath, cp.Round)
			rcfg.Resume = cp
		} else if !errors.Is(err, os.ErrNotExist) {
			return err
		}
	}
	rres, err := dmra.RunRegionCluster(net, rcfg)
	if err != nil {
		return err
	}
	res := dmra.Result{
		Assignment: rres.Assignment,
		Profit:     dmra.Profit(net, rres.Assignment),
	}
	report(net, res)
	fmt.Printf("tcp cluster: %d rounds, %d frames, %d B sent / %d B received\n",
		rres.Rounds, rres.Frames, rres.BytesSent, rres.BytesReceived)
	if rres.Regions > 1 {
		fmt.Printf("  %d regions, %d boundary UEs, %d cross-region handoff proposals\n",
			rres.Regions, rres.BoundaryUEs, rres.HandoffProposals)
	}
	if rres.CrashedBSs > 0 || rres.RestartedBSs > 0 {
		fmt.Printf("  recovery: %d BS crashes, %d restarts, %d UEs re-admitted\n",
			rres.CrashedBSs, rres.RestartedBSs, rres.ReadmittedUEs)
	}
	if rec != nil {
		// The per-BS byte breakdown belongs to the observability view:
		// print it only on observed runs to keep default output stable.
		for b, t := range rres.PerBS {
			fmt.Printf("  BS %-2d  %6d B sent  %6d B received\n", b, t.BytesSent, t.BytesReceived)
		}
	}
	return nil
}

func report(net *dmra.Network, res dmra.Result) {
	w := tabwriter.NewWriter(os.Stdout, 0, 0, 2, ' ', tabwriter.AlignRight)
	fmt.Fprintln(w, "SP\trevenue\tBS payment\tother cost\tprofit\tserved\town-BS\tcloud\t")
	for _, p := range res.Profit.PerSP {
		fmt.Fprintf(w, "%s\t%.1f\t%.1f\t%.1f\t%.1f\t%d\t%d\t%d\t\n",
			net.SPs[p.SP].Name, p.Revenue, p.BSPayment, p.OtherCost, p.Profit(),
			p.ServedUEs, p.OwnBSUEs, p.CloudUEs)
	}
	w.Flush()
	fmt.Printf("\ntotal profit: %.1f\n", res.Profit.TotalProfit())
	fmt.Printf("served at edge: %d / %d (%.0f%%), forwarded traffic: %.0f Mbps (%d CRUs)\n",
		res.Profit.ServedUEs(), len(net.UEs),
		100*float64(res.Profit.ServedUEs())/float64(max(1, len(net.UEs))),
		res.Profit.ForwardedTrafficBps/1e6, res.Profit.ForwardedCRUs)
	if res.Stats.Iterations > 0 {
		fmt.Printf("allocator: %d iterations, %d proposals, %d accepts, %d rejects\n",
			res.Stats.Iterations, res.Stats.Proposals, res.Stats.Accepts, res.Stats.Rejects)
	}
	if lat, err := dmra.EvaluateLatency(net, res.Assignment, dmra.DefaultQoSConfig()); err == nil && lat.Tasks > 0 {
		fmt.Printf("latency model: mean %.0f ms, p95 %.0f ms (edge %.0f ms, cloud %.0f ms)\n",
			lat.MeanS*1e3, lat.P95S*1e3, lat.EdgeMeanS*1e3, lat.CloudMeanS*1e3)
	}
}

// runtimeName labels the runtime flavor for the manifest's Tool field.
func runtimeName(decentralized, tcp bool) string {
	switch {
	case tcp:
		return "wire"
	case decentralized:
		return "protocol"
	default:
		return "alloc"
	}
}

// coordinatorsOf reports the manifest's effective coordinator count on
// the wire runtime — the region count clamped exactly as RunRegionCluster
// clamps it — and 0 off it.
func coordinatorsOf(tcp bool, regions, bss int) int {
	if !tcp {
		return 0
	}
	return max(min(regions, bss), 1)
}
