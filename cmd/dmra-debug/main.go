// Command dmra-debug is the time-travel debugger for convergence traces:
// it reconstructs the full matching state at any round from a JSONL
// trace (no re-run needed), diffs two traces down to the first divergent
// event, renders timeline samples, and sweeps arrival rate to find a
// scenario's capacity knee.
//
// Usage:
//
//	dmra-debug state -trace run.jsonl [-round N] [-ue id]
//	dmra-debug diff -a run1.jsonl -b run2.jsonl
//	dmra-debug timeline -in timeline.jsonl
//	dmra-debug knee -rates 1,2,4,8,16 [flags]
//
// state and diff need traces with a run manifest (dmra-sim writes one
// when -trace is set): the embedded scenario and seed rebuild the exact
// network the trace ran over. diff refuses traces whose manifests
// disagree on scenario, seed, rho or algorithm — diffing incomparable
// runs produces nonsense, not insight. Truncated traces (a crashed or
// killed run) are replayed up to the damage with a warning.
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"
	"strconv"
	"strings"
	"text/tabwriter"

	"dmra/internal/alloc"
	"dmra/internal/mec"
	"dmra/internal/obs"
	"dmra/internal/online"
	"dmra/internal/replay"
	"dmra/internal/workload"
	"dmra/internal/workload/dynamic"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "dmra-debug:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	if len(args) == 0 {
		return fmt.Errorf("usage: dmra-debug <state|diff|timeline|knee> [flags]")
	}
	switch args[0] {
	case "state":
		return runState(args[1:])
	case "diff":
		return runDiff(args[1:])
	case "timeline":
		return runTimeline(args[1:])
	case "knee":
		return runKnee(args[1:])
	default:
		return fmt.Errorf("unknown subcommand %q (want state, diff, timeline or knee)", args[0])
	}
}

// loadTrace reads a trace, warning and continuing on a truncated or
// corrupt tail — the decoded prefix of a crashed run is exactly what a
// debugger needs to see.
func loadTrace(path string) (*obs.Manifest, []obs.Event, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, nil, err
	}
	defer f.Close()
	manifest, events, err := obs.ReadTrace(f)
	if err != nil {
		fmt.Fprintf(os.Stderr, "dmra-debug: warning: %s: %v; continuing with %d decoded events\n",
			path, err, len(events))
	}
	return manifest, events, nil
}

// networkOf rebuilds the network a trace ran over from its manifest.
func networkOf(path string, m *obs.Manifest) (*mec.Network, error) {
	if m == nil {
		return nil, fmt.Errorf("%s has no run manifest; re-record with a current dmra-sim (its -trace writes one)", path)
	}
	if len(m.Scenario) == 0 {
		return nil, fmt.Errorf("%s: manifest carries no scenario, cannot rebuild the network", path)
	}
	cfg, err := workload.Parse(m.Scenario)
	if err != nil {
		return nil, fmt.Errorf("%s: manifest scenario: %w", path, err)
	}
	return cfg.Build(m.Seed)
}

func runState(args []string) error {
	fs := flag.NewFlagSet("dmra-debug state", flag.ContinueOnError)
	trace := fs.String("trace", "", "convergence trace (JSONL with manifest)")
	round := fs.Int("round", 0, "reconstruct state after this round (0 = end of trace)")
	ue := fs.Int("ue", -1, "also dump this UE's full status")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *trace == "" {
		return fmt.Errorf("state: -trace is required")
	}
	manifest, events, err := loadTrace(*trace)
	if err != nil {
		return err
	}
	net, err := networkOf(*trace, manifest)
	if err != nil {
		return err
	}
	m, err := replay.Run(net, events, *round)
	if err != nil {
		return fmt.Errorf("replay: %w", err)
	}

	fmt.Printf("trace:    %s (%s, algorithm %s, seed %d, rho %g)\n",
		*trace, manifest.Tool, manifest.Algorithm, manifest.Seed, manifest.Rho)
	fmt.Printf("state:    after round %d (%d of %d events applied)\n\n",
		m.Round(), m.Events(), len(events))

	snap := m.Snapshot()
	w := tabwriter.NewWriter(os.Stdout, 0, 0, 2, ' ', tabwriter.AlignRight)
	fmt.Fprintln(w, "BS\tSP\tCRU used\tCRU cap\tRRB used\tRRB cap\tserved\t")
	served := make([]int, len(net.BSs))
	for _, b := range snap.ServingBS {
		if b != mec.CloudBS {
			served[b]++
		}
	}
	for b := range net.BSs {
		cap, rem := 0, 0
		for j, c := range net.BSs[b].CRUCapacity {
			cap += c
			rem += snap.CRU(b, j)
		}
		fmt.Fprintf(w, "%d\t%s\t%d\t%d\t%d\t%d\t%d\t\n",
			b, net.SPs[net.BSs[b].SP].Name,
			cap-rem, cap,
			net.BSs[b].MaxRRBs-snap.RemRRB[b], net.BSs[b].MaxRRBs,
			served[b])
	}
	w.Flush()

	counts := map[replay.Phase]int{}
	for u := range net.UEs {
		counts[m.UE(u).Phase]++
	}
	fmt.Printf("\nUEs: %d matched, %d cloud, %d pending, %d trimmed (of %d)\n",
		counts[replay.PhaseMatched], counts[replay.PhaseCloud],
		counts[replay.PhasePending], counts[replay.PhaseTrimmed], len(net.UEs))

	if *ue >= 0 {
		if *ue >= len(net.UEs) {
			return fmt.Errorf("state: UE %d out of range (network has %d UEs)", *ue, len(net.UEs))
		}
		st := m.UE(*ue)
		fmt.Printf("\nUE %d: %s", *ue, st.Phase)
		if st.Phase == replay.PhaseMatched {
			fmt.Printf(" on BS %d", st.ServingBS)
		}
		fu := net.CoverCount(mec.UEID(*ue))
		fmt.Printf("\n  proposals: %d, pruned candidates: %d of %d", st.Proposals, st.Pruned, fu)
		if st.PrefPos >= 0 {
			fmt.Printf("\n  last proposal: BS %d (preference position %d of %d)",
				st.LastBS, st.PrefPos+1, fu)
		}
		fmt.Println()
	}
	return nil
}

func runDiff(args []string) error {
	fs := flag.NewFlagSet("dmra-debug diff", flag.ContinueOnError)
	pathA := fs.String("a", "", "first convergence trace")
	pathB := fs.String("b", "", "second convergence trace")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *pathA == "" || *pathB == "" {
		return fmt.Errorf("diff: -a and -b are both required")
	}
	ma, ea, err := loadTrace(*pathA)
	if err != nil {
		return err
	}
	mb, eb, err := loadTrace(*pathB)
	if err != nil {
		return err
	}
	if ma == nil {
		return fmt.Errorf("diff: %s has no run manifest; cannot verify the traces are comparable", *pathA)
	}
	if mb == nil {
		return fmt.Errorf("diff: %s has no run manifest; cannot verify the traces are comparable", *pathB)
	}
	if err := ma.CompatibleWith(mb); err != nil {
		return fmt.Errorf("diff: %w", err)
	}
	net, err := networkOf(*pathA, ma)
	if err != nil {
		return err
	}
	res, err := replay.Diff(net, ea, eb)
	if err != nil {
		return err
	}
	if res.DivergeIndex < 0 {
		fmt.Printf("identical: %d events, both runs converge the same way\n", len(ea))
		return nil
	}
	fmt.Printf("traces diverge at event %d (round %d):\n", res.DivergeIndex, res.Round)
	fmt.Printf("  a: %s\n", replay.FormatEvent(res.A))
	fmt.Printf("  b: %s\n", replay.FormatEvent(res.B))
	if len(res.StateDiff) == 0 {
		fmt.Println("state at the end of that round is nevertheless identical")
		return nil
	}
	fmt.Printf("state delta at the end of round %d:\n", res.Round)
	for _, d := range res.StateDiff {
		fmt.Printf("  %s\n", d)
	}
	return nil
}

func runTimeline(args []string) error {
	fs := flag.NewFlagSet("dmra-debug timeline", flag.ContinueOnError)
	in := fs.String("in", "", "timeline JSONL (dmra-online -timeline)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *in == "" {
		return fmt.Errorf("timeline: -in is required")
	}
	f, err := os.Open(*in)
	if err != nil {
		return err
	}
	defer f.Close()
	samples, err := obs.ReadTimeline(f)
	if err != nil {
		fmt.Fprintf(os.Stderr, "dmra-debug: warning: %s: %v; continuing with %d decoded samples\n",
			*in, err, len(samples))
	}
	if len(samples) == 0 {
		return fmt.Errorf("timeline: %s holds no samples", *in)
	}
	w := tabwriter.NewWriter(os.Stdout, 0, 0, 2, ' ', tabwriter.AlignRight)
	fmt.Fprintln(w, "t (s)\tactive\twaiting\tarrivals\tedge\tcloud\tsaturated\toccupancy\tprofit/s\tunmatched\t")
	for _, s := range samples {
		fmt.Fprintf(w, "%.1f\t%d\t%d\t%d\t%d\t%d\t%d\t%.0f%%\t%.1f\t%.1f%%\t\n",
			s.TimeS, s.Active, s.Waiting, s.Arrivals, s.EdgeServed, s.CloudServed,
			s.Saturated, 100*s.OccupancyRRB, s.ProfitRate, 100*s.UnmatchedRate())
	}
	w.Flush()
	last := samples[len(samples)-1]
	fmt.Printf("\n%d samples over %.1f s; final: %d active, edge ratio %.0f%%, unmatched rate %.1f%%\n",
		len(samples), last.TimeS, last.Active, 100*last.EdgeRatio(), 100*last.UnmatchedRate())
	if len(last.Cohorts) > 0 {
		w = tabwriter.NewWriter(os.Stdout, 0, 0, 2, ' ', tabwriter.AlignRight)
		fmt.Fprintln(w, "cohort\tarrivals\tsaturated\tedge\tcloud\tunmatched\t")
		for _, c := range last.Cohorts {
			fmt.Fprintf(w, "%s\t%d\t%d\t%d\t%d\t%.1f%%\t\n",
				c.Name, c.Arrivals, c.Saturated, c.EdgeServed, c.CloudServed, 100*c.UnmatchedRate)
		}
		w.Flush()
	}
	return nil
}

func runKnee(args []string) error {
	fs := flag.NewFlagSet("dmra-debug knee", flag.ContinueOnError)
	var (
		ratesArg  = fs.String("rates", "1,2,4,8,16,32", "comma-separated arrival rates to sweep (UE/s)")
		threshold = fs.Float64("threshold", online.DefaultKneeThreshold, "unmatched-rate ceiling defining the knee")
		specPath  = fs.String("spec", "", "dynamic workload spec file (JSON; default: Poisson/-hold)")
		hold      = fs.Float64("hold", 120, "mean task holding time for the default spec (s)")
		duration  = fs.Float64("duration", 300, "simulated horizon per rate (s)")
		epoch     = fs.Float64("epoch", 1, "re-allocation period (s)")
		algo      = fs.String("algo", "dmra", "matching policy per epoch")
		seed      = fs.Uint64("seed", 1, "session seed")
		pool      = fs.Int("pool", 0, "concurrent-UE profile pool (0 = auto-sized per rate)")
		scenario  = fs.String("scenario", "", "scenario JSON file (default: the paper's)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	rates, err := parseRates(*ratesArg)
	if err != nil {
		return err
	}
	spec := dynamic.Default(1, *hold)
	if *specPath != "" {
		spec, err = dynamic.Load(*specPath)
		if err != nil {
			return err
		}
	}

	base := online.DefaultConfig()
	base.Scenario.UEs = *pool
	base.DurationS = *duration
	base.EpochS = *epoch
	base.Algorithm = *algo
	base.DMRA = alloc.DefaultDMRAConfig()
	base.Seed = *seed
	if *scenario != "" {
		sc, err := workload.Load(*scenario)
		if err != nil {
			return err
		}
		sc.UEs = *pool
		base.Scenario = sc
	}

	fmt.Printf("saturation sweep: %d rates, %.0f s horizon each, %s every %.1f s, knee threshold %.1f%% unmatched\n\n",
		len(rates), *duration, *algo, *epoch, 100**threshold)
	rep, err := online.SaturationSweep(base, spec, rates, *threshold)
	if err != nil {
		return err
	}

	w := tabwriter.NewWriter(os.Stdout, 0, 0, 2, ' ', tabwriter.AlignRight)
	fmt.Fprintln(w, "rate (UE/s)\toffered load\tarrivals\tedge\tcloud\tsaturated\tunmatched\toccupancy\t\t")
	for i, p := range rep.Points {
		mark := ""
		if i == rep.KneeIndex {
			mark = "<- knee"
		}
		fmt.Fprintf(w, "%g\t%.0f\t%d\t%d\t%d\t%d\t%.1f%%\t%.0f%%\t%s\t\n",
			p.RateHz, p.OfferedLoad, p.Arrivals, p.EdgeServed, p.CloudServed,
			p.Saturated, 100*p.UnmatchedRate, 100*p.MeanOccupancyRRB, mark)
	}
	w.Flush()

	fmt.Println()
	if knee, ok := rep.Knee(); ok {
		if rep.KneeIndex == len(rep.Points)-1 {
			fmt.Printf("no knee inside the sweep: even %g UE/s stays under %.1f%% unmatched — raise -rates\n",
				knee.RateHz, 100*rep.Threshold)
		} else {
			next := rep.Points[rep.KneeIndex+1]
			fmt.Printf("capacity knee at %g UE/s (~%.0f concurrent): unmatched %.1f%% there, %.1f%% at %g UE/s\n",
				knee.RateHz, knee.OfferedLoad, 100*knee.UnmatchedRate, 100*next.UnmatchedRate, next.RateHz)
		}
	} else {
		fmt.Printf("every swept rate saturates (unmatched > %.1f%%) — lower -rates to bracket the knee\n",
			100*rep.Threshold)
	}
	return nil
}

// parseRates parses the -rates list and sorts it ascending.
func parseRates(s string) ([]float64, error) {
	var rates []float64
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		r, err := strconv.ParseFloat(part, 64)
		if err != nil {
			return nil, fmt.Errorf("-rates: %q is not a number", part)
		}
		if r <= 0 {
			return nil, fmt.Errorf("-rates: rate %g, want positive", r)
		}
		rates = append(rates, r)
	}
	if len(rates) == 0 {
		return nil, fmt.Errorf("-rates: no rates given")
	}
	sort.Float64s(rates)
	return rates, nil
}
