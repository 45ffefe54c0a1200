// Command dmra-figures regenerates the data behind every figure of the
// paper's evaluation (Figs. 2-7) and prints it as aligned tables,
// optionally also writing .txt/.csv files.
//
// Usage:
//
//	dmra-figures [-fig N] [-seeds 20] [-procs 0] [-out DIR]
//	             [-obs-addr host:port] [-trace FILE] [-obs-hold 30s]
//
// With -obs-addr the replication grid and every DMRA run inside it are
// observable live (worker utilization, task latency, convergence
// counters); with and without observability the tables are
// byte-identical.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"

	"dmra"
	"dmra/internal/cliobs"
	"dmra/internal/exp"
	"dmra/internal/viz"
)

// runAblations executes the A1-A5 design-rule study of DESIGN.md.
func runAblations(opts exp.Options, outDir string) error {
	tab, err := exp.RunAblations(opts)
	if err != nil {
		return err
	}
	fmt.Print(tab.Text())
	if outDir != "" {
		if err := os.MkdirAll(outDir, 0o755); err != nil {
			return err
		}
		base := filepath.Join(outDir, "ablations")
		if err := os.WriteFile(base+".txt", []byte(tab.Text()), 0o644); err != nil {
			return err
		}
		if err := os.WriteFile(base+".csv", []byte(tab.CSV()), 0o644); err != nil {
			return err
		}
		fmt.Printf("wrote %s.txt and %s.csv\n", base, base)
	}
	return nil
}

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "dmra-figures:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("dmra-figures", flag.ContinueOnError)
	var (
		figID     = fs.Int("fig", 0, "figure number 2-7 (0 = all)")
		seeds     = fs.Int("seeds", 20, "independent replications per point")
		outDir    = fs.String("out", "", "directory for .txt/.csv output (empty = stdout only)")
		plot      = fs.Bool("plot", false, "render each figure as a text chart")
		ablations = fs.Bool("ablations", false, "run the ablation study instead of the figures")
		protocol  = fs.Bool("protocol", false, "measure decentralized-protocol costs instead of the figures")
		procs     = fs.Int("procs", 0, "worker goroutines for the replication grid (0 = GOMAXPROCS, 1 = sequential)")
	)
	obsFlags := cliobs.Register(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *seeds < 1 {
		return fmt.Errorf("-seeds %d: want at least 1", *seeds)
	}
	obsRT, err := obsFlags.Start()
	if err != nil {
		return err
	}
	opts := exp.Options{Seeds: *seeds, Parallelism: *procs, Obs: obsRT.Rec}
	if *ablations {
		if err := runAblations(opts, *outDir); err != nil {
			return err
		}
		return obsRT.Close()
	}
	if *protocol {
		tab, err := exp.RunProtocolCosts(opts, nil)
		if err != nil {
			return err
		}
		fmt.Print(tab.Text())
		if *outDir != "" {
			if err := os.MkdirAll(*outDir, 0o755); err != nil {
				return err
			}
			base := filepath.Join(*outDir, "protocol-costs")
			if err := os.WriteFile(base+".csv", []byte(tab.CSV()), 0o644); err != nil {
				return err
			}
			fmt.Printf("wrote %s.csv\n", base)
		}
		return obsRT.Close()
	}

	var figures []dmra.Figure
	if *figID == 0 {
		figures = dmra.Figures()
	} else {
		f, err := dmra.FigureByID(*figID)
		if err != nil {
			return err
		}
		figures = []dmra.Figure{f}
	}
	if *outDir != "" {
		if err := os.MkdirAll(*outDir, 0o755); err != nil {
			return err
		}
	}

	for _, f := range figures {
		tab, err := f.Run(opts)
		if err != nil {
			return fmt.Errorf("figure %d: %w", f.ID, err)
		}
		fmt.Print(tab.Text())
		if sig, err := exp.SignificanceSummary(tab); err == nil && sig != "" {
			fmt.Print(sig)
		}
		fmt.Println()
		if *plot {
			p, err := viz.FromTable(tab)
			if err != nil {
				return err
			}
			chart, err := p.Render()
			if err != nil {
				return err
			}
			fmt.Println(chart)
		}
		if *outDir != "" {
			base := filepath.Join(*outDir, fmt.Sprintf("fig%d", f.ID))
			if err := os.WriteFile(base+".txt", []byte(tab.Text()), 0o644); err != nil {
				return err
			}
			if err := os.WriteFile(base+".csv", []byte(tab.CSV()), 0o644); err != nil {
				return err
			}
			fmt.Printf("wrote %s.txt and %s.csv\n\n", base, base)
		}
	}
	return obsRT.Close()
}
