package exp

import (
	"fmt"
	"strings"

	"dmra/internal/alloc"
	"dmra/internal/mec"
	"dmra/internal/metrics"
	"dmra/internal/workload"
)

// AblationRow is the measured outcome of one algorithm variant.
type AblationRow struct {
	// Name identifies the variant.
	Name string
	// Profit, Served and OwnShare summarize the variant across seeds;
	// OwnShare is the fraction of served UEs placed on their own SP's BSs.
	Profit   metrics.Summary
	Served   metrics.Summary
	OwnShare metrics.Summary
}

// AblationTable holds the ablation study results.
type AblationTable struct {
	Title string
	Rows  []AblationRow
}

// Text renders the ablation study as an aligned block.
func (t *AblationTable) Text() string {
	var b strings.Builder
	if t.Title != "" {
		fmt.Fprintf(&b, "%s\n", t.Title)
	}
	nameW := len("variant")
	for _, r := range t.Rows {
		if len(r.Name) > nameW {
			nameW = len(r.Name)
		}
	}
	fmt.Fprintf(&b, "  %-*s  %16s  %14s  %12s\n", nameW, "variant", "profit", "served", "own-BS share")
	for _, r := range t.Rows {
		fmt.Fprintf(&b, "  %-*s  %9.1f ±%-5.1f  %8.1f ±%-4.1f  %6.1f%% ±%.1f\n",
			nameW, r.Name,
			r.Profit.Mean, r.Profit.CI95(),
			r.Served.Mean, r.Served.CI95(),
			100*r.OwnShare.Mean, 100*r.OwnShare.CI95())
	}
	return b.String()
}

// CSV renders the ablation study as comma-separated values.
func (t *AblationTable) CSV() string {
	var b strings.Builder
	b.WriteString("variant,profit_mean,profit_ci95,served_mean,served_ci95,own_share_mean,own_share_ci95\n")
	for _, r := range t.Rows {
		fmt.Fprintf(&b, "%s,%g,%g,%g,%g,%g,%g\n", r.Name,
			r.Profit.Mean, r.Profit.CI95(),
			r.Served.Mean, r.Served.CI95(),
			r.OwnShare.Mean, r.OwnShare.CI95())
	}
	return b.String()
}

// ablationVariant pairs a label with an allocator factory.
type ablationVariant struct {
	name  string
	build func(rho float64) alloc.Allocator
}

func ablationVariants() []ablationVariant {
	return []ablationVariant{
		{"DMRA (full)", func(rho float64) alloc.Allocator {
			return alloc.NewDMRA(alloc.DMRAConfig{Rho: rho, SPPriority: true, FuTieBreak: true})
		}},
		{"DMRA w/o SP priority (A1)", func(rho float64) alloc.Allocator {
			return alloc.NewDMRA(alloc.DMRAConfig{Rho: rho, SPPriority: false, FuTieBreak: true})
		}},
		{"DMRA rho=0 (A2)", func(float64) alloc.Allocator {
			return alloc.NewDMRA(alloc.DMRAConfig{Rho: 0, SPPriority: true, FuTieBreak: true})
		}},
		{"DMRA w/o f_u tie-break (A3)", func(rho float64) alloc.Allocator {
			return alloc.NewDMRA(alloc.DMRAConfig{Rho: rho, SPPriority: true, FuTieBreak: false})
		}},
		{"DMRA bare (price only)", func(rho float64) alloc.Allocator {
			return alloc.NewDMRA(alloc.DMRAConfig{Rho: rho})
		}},
		{"Greedy (centralized ref)", func(float64) alloc.Allocator { return alloc.NewGreedy() }},
		{"DCSP", func(float64) alloc.Allocator { return alloc.NewDCSP() }},
		{"NonCo", func(float64) alloc.Allocator { return alloc.NewNonCo() }},
	}
}

// RunAblations measures every DMRA design-rule variant plus the reference
// algorithms on the default 900-UE scenario (overridable via opts). The
// (variant, seed) grid runs through Replicate, so the table is
// byte-identical to a sequential run.
func RunAblations(opts Options) (*AblationTable, error) {
	o := opts.resolve()
	cfg := workload.Default()
	if o.workload != nil {
		cfg = *o.workload
	} else {
		cfg.UEs = 900
	}

	variants := ablationVariants()
	allocators := make([]alloc.Allocator, len(variants))
	for vi, v := range variants {
		allocators[vi] = v.build(o.rho)
	}

	rows, err := Replicate(o.parallelism, len(variants), o.seeds, 3, o.obs, func(vi, seed int) ([]float64, error) {
		net, err := cfg.Build(o.baseSeed + uint64(seed))
		if err != nil {
			return nil, err
		}
		res, err := allocators[vi].Allocate(net)
		if err != nil {
			return nil, fmt.Errorf("exp: ablation %q: %w", variants[vi].name, err)
		}
		r := mec.Profit(net, res.Assignment)
		served := r.ServedUEs()
		own := 0
		for _, p := range r.PerSP {
			own += p.OwnBSUEs
		}
		ownShare := 0.0
		if served > 0 {
			ownShare = float64(own) / float64(served)
		}
		return []float64{r.TotalProfit(), float64(served), ownShare}, nil
	})
	if err != nil {
		return nil, err
	}

	tab := &AblationTable{
		Title: fmt.Sprintf("Ablations: %d UEs, iota=%g, %s placement, %d seeds",
			cfg.UEs, cfg.Pricing.CrossSPFactor, cfg.Placement, o.seeds),
	}
	for vi, v := range variants {
		tab.Rows = append(tab.Rows, AblationRow{
			Name: v.name, Profit: rows[vi][0], Served: rows[vi][1], OwnShare: rows[vi][2],
		})
	}
	return tab, nil
}
