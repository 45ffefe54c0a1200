// Pricing studies how the two pricing knobs of Eq. 9-10 shape the market:
// the cross-SP markup iota and DMRA's resource weight rho (Eq. 17). It
// reproduces the qualitative stories of the paper's Figs. 4-7 in one run:
// higher iota makes SP affinity matter; higher rho trades price for spare
// capacity, cutting cloud forwarding.
package main

import (
	"fmt"
	"log"
	"os"
	"text/tabwriter"

	"dmra"
)

const seeds = 8

func main() {
	iotaStudy()
	rhoStudy()
}

// iotaStudy sweeps the cross-SP markup and reports how much of DMRA's
// traffic stays on own-SP base stations.
func iotaStudy() {
	fmt.Println("== iota study: what the cross-SP markup does (1000 UEs) ==")
	w := tabwriter.NewWriter(os.Stdout, 0, 0, 2, ' ', tabwriter.AlignRight)
	fmt.Fprintln(w, "iota\tDMRA profit\town-BS share\tNonCo profit\tDMRA advantage\t")
	iotas := []float64{1.1, 1.5, 2.0, 3.0}
	// Columns: DMRA profit, NonCo profit, DMRA's own-BS UEs, DMRA's served
	// UEs. Each is a mean over the seeds.
	rows, err := dmra.Replicate(0, len(iotas), seeds, 4, func(row, seed int) ([]float64, error) {
		scenario := dmra.DefaultScenario()
		scenario.UEs = 1000
		scenario.Pricing.CrossSPFactor = iotas[row]
		net, err := dmra.BuildNetwork(scenario, uint64(seed)+1)
		if err != nil {
			return nil, err
		}
		res, err := dmra.Allocate(net, "dmra")
		if err != nil {
			return nil, err
		}
		own := 0.0
		for _, p := range res.Profit.PerSP {
			own += float64(p.OwnBSUEs)
		}
		resN, err := dmra.Allocate(net, "nonco")
		if err != nil {
			return nil, err
		}
		return []float64{res.Profit.TotalProfit(), resN.Profit.TotalProfit(), own, float64(res.Profit.ServedUEs())}, nil
	})
	if err != nil {
		log.Fatal(err)
	}
	for i, iota := range iotas {
		dmraProfit, nonco, own, served := rows[i][0].Mean, rows[i][1].Mean, rows[i][2].Mean, rows[i][3].Mean
		fmt.Fprintf(w, "%.1f\t%.0f\t%.0f%%\t%.0f\t%+.0f%%\t\n",
			iota, dmraProfit, 100*own/served, nonco, 100*(dmraProfit-nonco)/nonco)
	}
	w.Flush()
	fmt.Println()
}

// rhoStudy sweeps Eq. 17's rho and reports the served/forwarded trade-off
// (the paper's Figs. 6-7 mechanics).
func rhoStudy() {
	fmt.Println("== rho study: resource-awareness vs price (1000 UEs, iota=2) ==")
	w := tabwriter.NewWriter(os.Stdout, 0, 0, 2, ' ', tabwriter.AlignRight)
	fmt.Fprintln(w, "rho\tprofit\tserved\tforwarded Mbps\t")
	scenario := dmra.DefaultScenario()
	scenario.UEs = 1000
	rhos := []float64{0, 250, 500, 1000, 2000}
	// Columns: profit, served UEs, forwarded Mbps.
	rows, err := dmra.Replicate(0, len(rhos), seeds, 3, func(row, seed int) ([]float64, error) {
		net, err := dmra.BuildNetwork(scenario, uint64(seed)+1)
		if err != nil {
			return nil, err
		}
		cfg := dmra.DefaultDMRAConfig()
		cfg.Rho = rhos[row]
		res, err := dmra.AllocateDMRA(net, cfg)
		if err != nil {
			return nil, err
		}
		return []float64{res.Profit.TotalProfit(), float64(res.Profit.ServedUEs()), res.Profit.ForwardedTrafficBps / 1e6}, nil
	})
	if err != nil {
		log.Fatal(err)
	}
	for i, rho := range rhos {
		fmt.Fprintf(w, "%.0f\t%.0f\t%.0f\t%.0f\t\n", rho, rows[i][0].Mean, rows[i][1].Mean, rows[i][2].Mean)
	}
	w.Flush()
	fmt.Println("\nrho up => UEs chase spare capacity: more served, less forwarded;")
	fmt.Println("past the sweet spot the price signal drowns and profit dips again.")
}
