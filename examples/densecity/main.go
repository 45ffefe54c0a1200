// Densecity compares all allocation algorithms on a rush-hour city-centre
// scenario — the dense, hotspot-heavy deployment that motivates the paper's
// introduction — and shows where each algorithm's profit comes from.
//
// The scenario pushes the defaults harder: more UEs than the edge can hold,
// strongly clustered demand (90% of users in three hotspots), and a Zipf
// service mix so popular services contend for per-service CRU pools.
package main

import (
	"fmt"
	"log"
	"os"
	"text/tabwriter"

	"dmra"
)

func main() {
	scenario := dmra.DefaultScenario()
	scenario.UEs = 1100
	scenario.UEDist = dmra.UEHotspot
	scenario.HotspotCount = 3
	scenario.HotspotSigmaM = 100
	scenario.HotspotFraction = 0.9
	scenario.ServiceDist = "zipf"
	scenario.ZipfS = 1.1

	const seeds = 10
	algorithms := []string{"dmra", "dcsp", "nonco", "greedy", "random"}

	// One row per algorithm. Columns: profit, served UEs, own-BS UEs,
	// forwarded Mbps; each is a mean over the seeds.
	rows, err := dmra.Replicate(0, len(algorithms), seeds, 4, func(row, seed int) ([]float64, error) {
		net, err := dmra.BuildNetwork(scenario, uint64(seed)+1)
		if err != nil {
			return nil, err
		}
		res, err := dmra.Allocate(net, algorithms[row])
		if err != nil {
			return nil, err
		}
		own := 0.0
		for _, p := range res.Profit.PerSP {
			own += float64(p.OwnBSUEs)
		}
		return []float64{res.Profit.TotalProfit(), float64(res.Profit.ServedUEs()), own, res.Profit.ForwardedTrafficBps / 1e6}, nil
	})
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("rush-hour city centre: %d UEs, 3 hotspots, Zipf services, %d seeds\n\n",
		scenario.UEs, seeds)
	w := tabwriter.NewWriter(os.Stdout, 0, 0, 2, ' ', tabwriter.AlignRight)
	fmt.Fprintln(w, "algorithm\tprofit\tserved\town-BS share\tforwarded Mbps\t")
	for i, algo := range algorithms {
		profit, served, own, fwd := rows[i][0].Mean, rows[i][1].Mean, rows[i][2].Mean, rows[i][3].Mean
		fmt.Fprintf(w, "%s\t%.0f\t%.0f\t%.0f%%\t%.0f\t\n", algo, profit, served, 100*own/served, fwd)
	}
	w.Flush()

	fmt.Println("\nreading the table:")
	fmt.Println("  - nonco packs the hotspot BSs efficiently but strands their overflow;")
	fmt.Println("  - dcsp spreads load but pays cross-SP and long-distance prices;")
	fmt.Println("  - dmra redirects overflow to nearby own-SP capacity, which is the paper's point.")
}
