package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"slices"
	"sort"

	stats "dmra/internal/metrics"
)

const (
	// alpha is the significance level of compare's t-test.
	alpha = 0.05
	// specPath is the benchmark's definition, relative to the repository
	// root that compare runs from.
	specPath = "BENCHMARK.json"
)

// exact lists the end-to-end metrics that repeat exactly on a seed. They
// move only when the matching changes, so B may not be worse than A on any
// seed. Every other metric varies from run to run and is judged against
// its bound.
var exact = map[string]bool{"profit": true, "served_ues": true}

// benchSpec is BENCHMARK.json, the benchmark's definition.
type benchSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

// metricSpec defines one metric; per-layer metrics have no direction or
// bound.
type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// compareMain compares two sets of untraced runs, A and B. Each file holds
// run output lines (other lines are skipped). Runs are paired by workload
// and seed, the i-th run of a seed in A with the i-th in B, so that the
// work that differs from seed to seed cancels within a pair, and so does
// any change in the machine's speed slower than a pair. For every workload
// and end-to-end metric it prints each set's
// median and quartiles over the paired runs, the median paired change and
// a verdict. It exits 1 when any metric got worse.
func compareMain(args []string, stdout, stderr io.Writer) int {
	if len(args) != 2 {
		fmt.Fprintln(stderr, "usage: dmra-bench compare A.jsonl B.jsonl")
		return 2
	}
	var spec benchSpec
	var sets [2][]record
	err := readJSON(specPath, &spec)
	for i := 0; err == nil && i < 2; i++ {
		sets[i], err = readRuns(args[i])
	}
	if err != nil {
		fmt.Fprintln(stderr, "dmra-bench compare:", err)
		return 2
	}
	worse := false
	fmt.Fprintf(stdout, "%-17s %-16s %-11s %5s %31s %31s %8s %7s  %s\n",
		"workload", "metric", "unit", "pairs", "A median [q1, q3]", "B median [q1, q3]", "change", "p", "verdict")
	for _, w := range workloadOrder(sets[0], sets[1]) {
		for _, mt := range spec.EndToEnd {
			a, b := pairs(sets[0], sets[1], w, mt.Name)
			if len(a) == 0 {
				fmt.Fprintf(stdout, "%-17s %-16s %-11s no seed run in both sets\n", w, mt.Name, mt.Unit)
				continue
			}
			change, p, v := judge(mt, a, b)
			worse = worse || v == "worse"
			fmt.Fprintf(stdout, "%-17s %-16s %-11s %5d %31s %31s %+7.2f%% %7.4f  %s\n",
				w, mt.Name, mt.Unit, len(a), fmtQ(quartiles(a)), fmtQ(quartiles(b)), 100*change, p, v)
		}
	}
	if worse {
		return 1
	}
	return 0
}

// judge compares B's runs of one metric with A's, run by run: a[i] and
// b[i] are one pair. It returns the median relative change from A to B,
// the p-value of a one-sample t-test on the changes (NaN for an exact
// metric) and a verdict:
//
//   - an exact metric is worse when B is worse on any pair, better when B
//     is better on some and worse on none, and ok otherwise;
//   - any other metric is unresolved when the interquartile spread of the
//     changes exceeds the bound; otherwise worse or better only when the
//     test finds the mean change significant and the median change exceeds
//     the bound; otherwise ok.
func judge(mt metricSpec, a, b []float64) (change, p float64, verdict string) {
	// cost holds the changes signed so that positive is worse.
	changes, cost := make([]float64, len(a)), make([]float64, len(a))
	for i := range a {
		changes[i] = (b[i] - a[i]) / math.Abs(a[i])
		cost[i] = changes[i]
		if mt.Better == "higher" {
			cost[i] = -cost[i]
		}
	}
	change = quartiles(changes)[1]
	if exact[mt.Name] {
		verdict = "ok"
		for _, c := range cost {
			if c > 0 {
				return change, math.NaN(), "worse"
			}
			if c < 0 {
				verdict = "better"
			}
		}
		return change, math.NaN(), verdict
	}
	// Welch's test against a sample of zero variance is the one-sample t
	// test, with n-1 degrees of freedom.
	p = stats.WelchTTest(stats.Summarize(cost), stats.Summary{N: len(cost)}).P
	q := quartiles(cost)
	switch {
	case q[2]-q[0] > mt.Bound:
		return change, p, "unresolved"
	case p >= alpha || math.Abs(q[1]) <= mt.Bound:
		return change, p, "ok"
	case q[1] > 0:
		return change, p, "worse"
	default:
		return change, p, "better"
	}
}

func fmtQ(q [3]float64) string { return fmt.Sprintf("%.4g [%.4g, %.4g]", q[1], q[0], q[2]) }

// quartiles returns the first quartile, median and third quartile of xs by
// the method of Python's statistics.quantiles(xs, n=4) ("exclusive").
func quartiles(xs []float64) [3]float64 {
	s := slices.Clone(xs)
	sort.Float64s(s)
	n := len(s)
	if n < 2 {
		return [3]float64{s[0], s[0], s[0]}
	}
	var q [3]float64
	for i := 1; i <= 3; i++ {
		j := min(max(i*(n+1)/4, 1), n-1)
		delta := float64(i*(n+1) - j*4)
		q[i-1] = (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return q
}

func readJSON(path string, v any) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(data, v); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	return nil
}

// readRuns returns every untraced run record in a file, in file order.
func readRuns(path string) ([]record, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var runs []record
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		var r record
		if json.Unmarshal(sc.Bytes(), &r) != nil || r.Workload == "" || r.Trace {
			continue
		}
		runs = append(runs, r)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if len(runs) == 0 {
		return nil, fmt.Errorf("%s: no run records", path)
	}
	return runs, nil
}

// pairs returns one metric of workload w from the runs of A and B that
// pair up by seed: the i-th run of a seed in A with the i-th in B. Runs
// without a partner are left out.
func pairs(setA, setB []record, w, metric string) (a, b []float64) {
	inB := map[uint64][]float64{}
	for _, r := range setB {
		if m, ok := r.Metrics[metric]; ok && r.Workload == w {
			inB[r.Provenance.Seed] = append(inB[r.Provenance.Seed], m.Value)
		}
	}
	for _, r := range setA {
		m, ok := r.Metrics[metric]
		seed := r.Provenance.Seed
		if !ok || r.Workload != w || len(inB[seed]) == 0 {
			continue
		}
		a, b = append(a, m.Value), append(b, inB[seed][0])
		inB[seed] = inB[seed][1:]
	}
	return a, b
}

// workloadOrder lists the workloads either set has, in benchmark order.
func workloadOrder(a, b []record) []string {
	var names []string
	for _, w := range workloads {
		has := func(r record) bool { return r.Workload == w.name }
		if slices.ContainsFunc(a, has) || slices.ContainsFunc(b, has) {
			names = append(names, w.name)
		}
	}
	return names
}
