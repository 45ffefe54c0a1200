// Benchdiff compares, for every GOMAXPROCS in a BENCH_exp.json history
// (JSONL, one record per `make bench` run), the latest record of one
// benchmark with the previous record at the same GOMAXPROCS, and fails
// when ns/op — or allocs/op, for per-case records that carry it —
// regressed beyond a threshold in any of them. It understands both
// record shapes the repo writes: flat records with a single *_ns_op
// number, and per-case records ({"cases": {name: {"ns_op": ...,
// "allocs_op": ...}}}), where every case is compared independently.
//
// Usage:
//
//	go run ./cmd/benchdiff -file BENCH_exp.json -bench BenchmarkAllocate -max-regress 0.20
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"
)

func main() {
	file := flag.String("file", "BENCH_exp.json", "JSONL benchmark history")
	bench := flag.String("bench", "BenchmarkAllocate", "benchmark name to compare (prefix match)")
	maxRegress := flag.Float64("max-regress", 0.20, "maximum allowed ns/op regression (0.20 = +20%)")
	flag.Parse()

	f, err := os.Open(*file)
	if err != nil {
		fatal("open %s: %v", *file, err)
	}
	defer f.Close()

	var matches []map[string]any
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Bytes()
		if len(line) == 0 {
			continue
		}
		var rec map[string]any
		if err := json.Unmarshal(line, &rec); err != nil {
			fatal("parse %s: %v", *file, err)
		}
		name, _ := rec["benchmark"].(string)
		if matchesBench(name, *bench) {
			matches = append(matches, rec)
		}
	}
	if err := sc.Err(); err != nil {
		fatal("read %s: %v", *file, err)
	}
	pairs := latestPairs(matches)
	failed := false
	for _, pr := range pairs {
		fmt.Printf("gomaxprocs %s:\n", pr.procs)
		if !compareRecords(pr.prev, pr.cur, *maxRegress) {
			failed = true
		}
	}
	if len(pairs) == 0 {
		fmt.Printf("benchdiff: no two records of %q at one gomaxprocs in %s, nothing to do\n", *bench, *file)
		return
	}
	if failed {
		fatal("ns/op or allocs/op regressed beyond the threshold")
	}
}

// recordPair is the latest record of a benchmark at one GOMAXPROCS and
// the record before it at the same GOMAXPROCS.
type recordPair struct {
	procs     string
	prev, cur map[string]any
}

// latestPairs pairs records only within one GOMAXPROCS — a parallel
// path is expected to be faster on two cores, and each worker goroutine
// it starts costs an allocation a one-core run never makes — and
// returns one pair per GOMAXPROCS with at least two records, in
// ascending GOMAXPROCS order. recs is in history order.
func latestPairs(recs []map[string]any) []recordPair {
	byProcs := map[string][]map[string]any{}
	for _, rec := range recs {
		key := fmt.Sprint(rec["gomaxprocs"])
		byProcs[key] = append(byProcs[key], rec)
	}
	var out []recordPair
	for key, rs := range byProcs {
		if len(rs) >= 2 {
			out = append(out, recordPair{procs: key, prev: rs[len(rs)-2], cur: rs[len(rs)-1]})
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].procs < out[j].procs })
	return out
}

// compareRecords prints every ns/op and allocs/op series of cur against
// prev and reports whether all stayed within maxRegress.
func compareRecords(prev, cur map[string]any, maxRegress float64) bool {
	ok := true
	for _, pair := range comparableSeries(prev, cur) {
		delta := (pair.cur - pair.prev) / pair.prev
		status := "ok"
		if delta > maxRegress {
			status = "REGRESSION"
			ok = false
		}
		fmt.Printf("%-32s %12.0f -> %12.0f ns/op  %+6.1f%%  %s\n",
			pair.name, pair.prev, pair.cur, 100*delta, status)
	}
	// Allocation counts gate on an absolute slack of 2 on top of the
	// relative threshold: the hot paths pin 0 allocs/op, and 0 -> 1 is
	// exactly the pooling regression this exists to catch, while tiny
	// nonzero counts should not fail on one incidental allocation.
	for _, pair := range allocSeries(prev, cur) {
		slack := max(pair.prev*maxRegress, 2)
		status := "ok"
		if pair.cur > pair.prev+slack {
			status = "REGRESSION"
			ok = false
		}
		fmt.Printf("%-32s %12.0f -> %12.0f allocs/op  %s\n",
			pair.name+" (allocs)", pair.prev, pair.cur, status)
	}
	return ok
}

type series struct {
	name      string
	prev, cur float64
}

// comparableSeries extracts every ns/op series present in both records:
// per-case ns_op values, plus any top-level key ending in ns_op.
func comparableSeries(prev, cur map[string]any) []series {
	var out []series
	pc, _ := prev["cases"].(map[string]any)
	cc, _ := cur["cases"].(map[string]any)
	for name, pv := range pc {
		pcase, _ := pv.(map[string]any)
		ccase, _ := cc[name].(map[string]any)
		p, pok := pcase["ns_op"].(float64)
		c, cok := ccase["ns_op"].(float64)
		if pok && cok && p > 0 {
			out = append(out, series{name: name, prev: p, cur: c})
		}
	}
	for key, pv := range prev {
		if len(key) < 5 || key[len(key)-5:] != "ns_op" {
			continue
		}
		p, pok := pv.(float64)
		c, cok := cur[key].(float64)
		if pok && cok && p > 0 {
			out = append(out, series{name: key, prev: p, cur: c})
		}
	}
	return out
}

// matchesBench reports whether a record name belongs to the requested
// benchmark: an exact match, or a prefix ending at a word boundary
// (e.g. "BenchmarkFigureRun (fig2, ...)"). The boundary check keeps
// sibling series apart — "BenchmarkAllocate" must not swallow
// "BenchmarkAllocate1M" records, which time a different workload.
func matchesBench(name, bench string) bool {
	if len(name) < len(bench) || name[:len(bench)] != bench {
		return false
	}
	if len(name) == len(bench) {
		return true
	}
	next := name[len(bench)]
	return !('a' <= next && next <= 'z' || 'A' <= next && next <= 'Z' || '0' <= next && next <= '9')
}

// allocSeries extracts every allocs_op series present in both records'
// cases. Unlike ns/op, a case missing allocs_op (older records predate
// the field) is silently skipped rather than treated as zero.
func allocSeries(prev, cur map[string]any) []series {
	var out []series
	pc, _ := prev["cases"].(map[string]any)
	cc, _ := cur["cases"].(map[string]any)
	for name, pv := range pc {
		pcase, _ := pv.(map[string]any)
		ccase, _ := cc[name].(map[string]any)
		p, pok := pcase["allocs_op"].(float64)
		c, cok := ccase["allocs_op"].(float64)
		if pok && cok {
			out = append(out, series{name: name, prev: p, cur: c})
		}
	}
	return out
}

func fatal(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "benchdiff: "+format+"\n", args...)
	os.Exit(1)
}
