package exp

import (
	"fmt"

	"dmra/internal/metrics"
	"dmra/internal/protocol"
	"dmra/internal/workload"
)

// RunProtocolCosts measures the decentralized runtime's costs — rounds,
// messages per UE, and simulated completion time — across UE populations.
// This quantifies the overhead of executing Alg. 1 as real message
// exchange (DESIGN.md ablation A4); the matching itself is identical to
// the synchronous solver's. The (population, seed) grid runs through
// Replicate, so the table is byte-identical to a sequential run.
func RunProtocolCosts(opts Options, ueCounts []int) (*metrics.Table, error) {
	o := opts.resolve()
	base := workload.Default()
	if o.workload != nil {
		base = *o.workload
	}
	if len(ueCounts) == 0 {
		ueCounts = []int{200, 400, 600, 800, 1000}
	}

	rows, err := Replicate(o.parallelism, len(ueCounts), o.seeds, 3, o.obs, func(ni, seed int) ([]float64, error) {
		n := ueCounts[ni]
		cfg := base
		cfg.UEs = n
		net, err := cfg.Build(o.baseSeed + uint64(seed))
		if err != nil {
			return nil, err
		}
		pc := protocol.DefaultConfig()
		pc.DMRA.Rho = o.rho
		pc.Obs = o.obs
		res, err := protocol.Run(net, pc)
		if err != nil {
			return nil, fmt.Errorf("exp: protocol costs at %d UEs: %w", n, err)
		}
		perUE := 0.0
		if n > 0 {
			perUE = float64(res.Messages) / float64(n)
		}
		return []float64{float64(res.Rounds), perUE, res.SimTimeS * 1e3}, nil
	})
	if err != nil {
		return nil, err
	}

	tab := &metrics.Table{
		Title:  fmt.Sprintf("Decentralized protocol costs (1 ms latency, %d seeds)", o.seeds),
		XLabel: "ues",
		YLabel: "cost",
		Series: []string{"rounds", "msgs/UE", "sim ms"},
	}
	for ni, n := range ueCounts {
		if err := tab.AddRow(float64(n), rows[ni]); err != nil {
			return nil, err
		}
	}
	tab.Sort()
	return tab, nil
}
