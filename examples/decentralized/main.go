// Decentralized runs DMRA as real message exchange between UE and BS
// agents on the discrete-event simulator, prints the first protocol
// round's events from the typed observability stream, and verifies the
// outcome matches the synchronous solver.
package main

import (
	"fmt"
	"log"

	"dmra"
)

func main() {
	scenario := dmra.DefaultScenario()
	scenario.UEs = 400
	net, err := dmra.BuildNetwork(scenario, 7)
	if err != nil {
		log.Fatal(err)
	}

	// Record the typed event stream in an in-memory ring large enough to
	// hold the whole run, then print a handful of round-1 events so the
	// message flow is visible: requests go UE -> BS, accepts/broadcasts
	// come back.
	cfg := dmra.DefaultProtocolConfig()
	cfg.LatencyS = 2e-3 // 2 ms one-way latency
	sink := dmra.NewObsSink(nil, 1<<14)
	cfg.Obs = dmra.NewObsRecorder(nil, sink)

	dist, err := dmra.RunDecentralized(net, cfg)
	if err != nil {
		log.Fatal(err)
	}
	shown := 0
	for _, ev := range sink.Events() {
		if ev.Round > 1 || shown >= 12 {
			break
		}
		shown++
		ms := ev.TimeS * 1e3
		switch ev.Kind.String() {
		case "round":
			fmt.Printf("%6.1f ms  round %d begins\n", ms, ev.Round)
		case "propose":
			fmt.Printf("%6.1f ms  UE %-3d --request--> BS %d\n", ms, ev.UE, ev.BS)
		case "accept":
			fmt.Printf("%6.1f ms  UE %-3d <--accept--- BS %d\n", ms, ev.UE, ev.BS)
		case "reject-permanent", "reject-trim":
			fmt.Printf("%6.1f ms  UE %-3d <--reject--- BS %d\n", ms, ev.UE, ev.BS)
		case "broadcast":
			fmt.Printf("%6.1f ms  BS %-3d broadcasts remaining resources\n", ms, ev.BS)
		}
	}
	fmt.Println("  ...")

	fmt.Printf("\nprotocol finished in %d rounds / %.0f ms simulated time\n",
		dist.Rounds, dist.SimTimeS*1e3)
	fmt.Printf("messages: %d total = %d requests + %d accepts + %d rejects + %d broadcasts\n",
		dist.Messages, dist.Requests, dist.Accepts, dist.Rejects, dist.Broadcasts)

	profit := dmra.Profit(net, dist.Assignment)
	fmt.Printf("served %d/%d UEs, total profit %.1f\n",
		profit.ServedUEs(), len(net.UEs), profit.TotalProfit())

	// The decentralized run must agree with the in-memory solver exactly.
	sync, err := dmra.Allocate(net, "dmra")
	if err != nil {
		log.Fatal(err)
	}
	for u := range sync.Assignment.ServingBS {
		if sync.Assignment.ServingBS[u] != dist.Assignment.ServingBS[u] {
			log.Fatalf("parity violation at UE %d", u)
		}
	}
	fmt.Println("parity check: decentralized matching is identical to the synchronous solver")
}
