// Command dmra-bench is the repository's benchmark: four workloads over
// DMRA's whole paths (a batch re-match, churn repair, an online session and
// a TCP region cluster). Each workload is one closed-loop client whose
// every op is checked for correctness. Timings are scaled by a fixed
// reference kernel timed beside the ops (see ref.go). Run it from the
// repository root:
//
//	bash bench/run.sh --workload batch-city100k --seed 1 --seconds 25 --trace 0
//	bash bench/run.sh --seed 1                   # every workload, one process each
//	bash bench/run.sh compare A.jsonl B.jsonl    # two sets of runs
//
// A run prints one line holding its full record (workload, provenance,
// metrics) and, last, a line with only correct, attempted, failed and
// metrics. README.md describes the workloads and metrics.
package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"runtime/pprof"
	"slices"
	"sort"
	"time"

	"dmra/internal/alloc"
	"dmra/internal/engine"
	"dmra/internal/mec"
)

const (
	// procs is the GOMAXPROCS of every run: the two cores the benchmark
	// was sized on, fixed so runs on larger machines stay comparable.
	procs = 2
	// setupReps is how many times a run sets its workload up.
	setupReps = 5
	// maxLoop stops a timed loop that cannot reach its minimum op count,
	// so a run, even a traced one with two loops, ends inside three
	// minutes.
	maxLoop = 60 * time.Second
)

func main() {
	args := os.Args[1:]
	if len(args) > 0 && args[0] == "compare" {
		os.Exit(compareMain(args[1:], os.Stdout, os.Stderr))
	}
	os.Exit(runMain(args, os.Stdout, os.Stderr))
}

// options configure one run of one workload.
type options struct {
	seed     uint64
	seconds  float64
	trace    bool
	traceDir string
	// small and ops shrink a run for the smoke test: every network at the
	// base dense city, and ops (when > 0) as the minimum op count.
	small   bool
	ops     int
	corrupt func(mec.Assignment)
}

func runMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("dmra-bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "all", "workload to run; all runs each in its own process")
	var o options
	fs.Uint64Var(&o.seed, "seed", 1, "seed of the workload's inputs (seed 2 is held out for checking claims)")
	fs.Float64Var(&o.seconds, "seconds", 25, "least time the timed loop runs, in seconds")
	trace := fs.Int("trace", 0, "1 for the traced run, which reports the per-layer metrics")
	fs.StringVar(&o.traceDir, "trace-dir", filepath.Join(".bench_build", "trace"), "where traced runs write spans, CPU profiles and layer tables")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() > 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(stderr, "dmra-bench: want --workload NAME --seed N --seconds S --trace 0|1")
		return 2
	}
	o.trace = *trace == 1
	if *name == "all" {
		return runAll(args, stdout, stderr)
	}
	w, err := workloadByName(*name)
	if err != nil {
		fmt.Fprintln(stderr, "dmra-bench:", err)
		return 2
	}
	runtime.GOMAXPROCS(procs)
	rec, err := run(w, o, stderr)
	if err != nil {
		fmt.Fprintf(stderr, "dmra-bench: %s: %v\n", w.name, err)
		return 1
	}
	full, err := json.Marshal(rec)
	if err != nil {
		fmt.Fprintln(stderr, "dmra-bench:", err)
		return 1
	}
	last, err := json.Marshal(rec.result)
	if err != nil {
		fmt.Fprintln(stderr, "dmra-bench:", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n%s\n", full, last)
	if !rec.Correct {
		return 1
	}
	return 0
}

// runAll runs every workload in a child process of its own, so each starts
// from a fresh heap and its memory metric is its own.
func runAll(args []string, stdout, stderr io.Writer) int {
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintln(stderr, "dmra-bench:", err)
		return 1
	}
	code := 0
	for _, w := range workloads {
		// A repeated flag takes its last value.
		cmd := exec.Command(exe, append(slices.Clip(args), "--workload", w.name)...)
		cmd.Stdout, cmd.Stderr = stdout, stderr
		if err := cmd.Run(); err != nil {
			fmt.Fprintf(stderr, "dmra-bench: %s: %v\n", w.name, err)
			code = 1
		}
	}
	return code
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type metrics map[string]metric

func (m metrics) set(name string, v float64, unit string) { m[name] = metric{Value: v, Unit: unit} }

// result is what the last line of a run's output holds.
type result struct {
	Correct   bool    `json:"correct"`
	Attempted int     `json:"attempted"`
	Failed    int     `json:"failed"`
	Metrics   metrics `json:"metrics"`
}

// record is a run's full result; compare reads sets of them.
type record struct {
	Workload   string     `json:"workload"`
	Trace      bool       `json:"trace"`
	Provenance provenance `json:"provenance"`
	// Wall holds an untraced run's timings as measured, before scaling by
	// the reference kernel, and the kernel's median times.
	Wall metrics `json:"wall,omitempty"`
	result
}

type provenance struct {
	Seed       uint64  `json:"seed"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	NProc      int     `json:"nproc"`
	GoVersion  string  `json:"go_version"`
	Commit     string  `json:"commit"`
	Seconds    float64 `json:"seconds"`
	// Ops is the number of timed ops; Samples the number of values each
	// metric summarizes.
	Ops     int            `json:"ops"`
	Samples map[string]int `json:"samples"`
	// TailPercentile is the percentile op_tail_ms reports.
	TailPercentile float64 `json:"tail_percentile,omitempty"`
	// RefSamples is the number of reference kernel runs the op metrics are
	// scaled by the median of.
	RefSamples int `json:"ref_samples"`
}

// commit is the VCS revision the binary was built from, or "unknown"
// outside a git checkout.
func commit() string {
	rev, dirty := "unknown", ""
	if info, ok := debug.ReadBuildInfo(); ok {
		for _, s := range info.Settings {
			switch {
			case s.Key == "vcs.revision":
				rev = s.Value
			case s.Key == "vcs.modified" && s.Value == "true":
				dirty = "+dirty"
			}
		}
	}
	return rev + dirty
}

// run sets up one workload and measures it: the end-to-end metrics, or in
// a traced run the per-layer ones.
func run(w *workload, o options, log io.Writer) (*record, error) {
	e := &env{seed: o.seed, small: o.small, ops: w.minOps, corrupt: o.corrupt}
	if o.ops > 0 {
		e.ops = o.ops
	}
	rec := &record{
		Workload: w.name,
		Trace:    o.trace,
		Provenance: provenance{
			Seed:       o.seed,
			GOMAXPROCS: runtime.GOMAXPROCS(0),
			NProc:      runtime.NumCPU(),
			GoVersion:  runtime.Version(),
			Commit:     commit(),
			Seconds:    o.seconds,
			Samples:    map[string]int{},
		},
		result: result{Metrics: metrics{}},
	}
	var err error
	if o.trace {
		err = measureTraced(w, e, o, rec, log)
	} else {
		err = measure(w, e, o, rec, log)
	}
	if err != nil {
		return nil, err
	}
	rec.Correct = rec.Failed == 0
	return rec, nil
}

// setUp builds a workload and runs one untimed warm-up op, which counts as
// attempted like every other op.
func setUp(w *workload, e *env, rec *record, log io.Writer) (*instance, error) {
	inst, err := w.setup(e)
	if err != nil {
		return nil, err
	}
	if inst.next != nil {
		err = inst.next()
	}
	_, opErr := inst.op()
	rec.Attempted++
	if err = errors.Join(err, opErr); err != nil {
		fmt.Fprintln(log, "dmra-bench: warm-up op failed:", err)
		rec.Failed++
	}
	return inst, nil
}

// loopResult is one timed loop: per-op latencies and what they absorbed.
type loopResult struct {
	lat        []float64 // ms per op
	ref        []float64 // ms per reference kernel run
	busyMs     float64
	events     int
	failed     int
	mem0, mem1 runtime.MemStats
}

// retainedHeapMB collects garbage twice, the second time to empty the
// sync.Pool caches the first one only demotes, and returns the heap left
// live, in MiB.
func retainedHeapMB() float64 {
	runtime.GC()
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return float64(m.HeapAlloc) / (1 << 20)
}

// perSecond is n per second spent inside ops, with the time multiplied by
// scale.
func (l *loopResult) perSecond(n, scale float64) float64 { return n / (scale * l.busyMs / 1000) }

// refMs is the median time of the loop's reference kernel runs.
func (l *loopResult) refMs() float64 { return percentile(l.ref, 50) }

// loop runs ops until it has made minOps of them and seconds have passed,
// starting each at least period after the previous one. Each op's inputs
// are drawn, and periodic checks run, outside its timed region. The
// reference kernel, unless nil, runs before the first op and then after an
// op whenever refEvery has passed since its last run, also outside the
// timed region.
func loop(inst *instance, tr *tracer, ref *refKernel, minOps int, seconds float64, period time.Duration, log io.Writer) loopResult {
	var l loopResult
	runtime.ReadMemStats(&l.mem0)
	start := time.Now()
	if ref != nil {
		l.ref = append(l.ref, ref.run())
	}
	lastRef := time.Now()
	var t0 time.Time
	for len(l.lat) < minOps || time.Since(start).Seconds() < seconds {
		if time.Since(start) > maxLoop {
			fmt.Fprintf(log, "dmra-bench: stopped after %d ops, short of %d\n", len(l.lat), minOps)
			break
		}
		tr.nextOp()
		var err error
		if inst.next != nil {
			err = inst.next()
		}
		if len(l.lat) > 0 {
			time.Sleep(time.Until(t0.Add(period)))
		}
		t0 = time.Now()
		events, opErr := inst.op()
		d := msSince(t0)
		l.lat = append(l.lat, d)
		l.busyMs += d
		l.events += events
		if err = errors.Join(err, opErr); err != nil {
			if l.failed < 3 {
				fmt.Fprintf(log, "dmra-bench: op %d failed: %v\n", len(l.lat), err)
			}
			l.failed++
		}
		if ref != nil && time.Since(lastRef) >= refEvery {
			l.ref = append(l.ref, ref.run())
			lastRef = time.Now()
		}
	}
	runtime.ReadMemStats(&l.mem1)
	return l
}

// measure is the untraced run: setupReps set-ups, then the timed loop.
// Each set-up is timed, then the reference kernel, then the heap the
// set-up retains is measured. setup_s is the median over the set-ups,
// scaled by the median kernel time beside them, and retained_heap_mb the
// smallest: the network build packs each worker's links into blocks sized
// for an even share of the UEs, so a build whose workers ran unevenly
// holds one block more, and a busy machine can skew several builds in a
// row.
func measure(w *workload, e *env, o options, rec *record, log io.Writer) error {
	ref, err := newRefKernel()
	if err != nil {
		return err
	}
	defer ref.close()
	var inst *instance
	setups := make([]float64, setupReps)
	setupRefs := make([]float64, setupReps)
	heaps := make([]float64, setupReps)
	for i := range setups {
		inst = nil
		runtime.GC()
		t0 := time.Now()
		if inst, err = setUp(w, e, rec, log); err != nil {
			return err
		}
		setups[i] = time.Since(t0).Seconds()
		setupRefs[i] = ref.run()
		heaps[i] = retainedHeapMB()
		runtime.KeepAlive(inst)
	}
	// The discarded set-ups' memory is returned to the OS now, not by the
	// background scavenger while ops are timed.
	debug.FreeOSMemory()
	l := loop(inst, nil, ref, e.ops, o.seconds, w.period, log)
	rec.Attempted += len(l.lat)
	rec.Failed += l.failed
	if inst.finish != nil {
		if err := inst.finish(); err != nil {
			fmt.Fprintln(log, "dmra-bench: end-of-run check failed:", err)
			rec.Failed++
		}
	}
	profit, served := inst.quality()
	n := len(l.lat)
	rec.Provenance.Ops = n
	add := func(name string, v float64, unit string, samples int) {
		rec.Metrics.set(name, v, unit)
		rec.Provenance.Samples[name] = samples
	}
	rec.Provenance.TailPercentile = w.tail
	rec.Provenance.RefSamples = len(l.ref)
	setup, setupRef := percentile(setups, 50), percentile(setupRefs, 50)
	p50, tail, refMs := percentile(l.lat, 50), percentile(l.lat, w.tail), l.refMs()
	rec.Wall = metrics{}
	rec.Wall.set("setup_s", setup, "s")
	rec.Wall.set("setup_ref_ms", setupRef, "ms")
	rec.Wall.set("op_p50_ms", p50, "ms")
	rec.Wall.set("op_tail_ms", tail, "ms")
	rec.Wall.set("ops_per_s", l.perSecond(float64(n), 1), "1/s")
	rec.Wall.set("events_per_s", l.perSecond(float64(l.events), 1), "1/s")
	rec.Wall.set("ref_ms", refMs, "ms")
	scale := refNominalMs / refMs
	add("setup_s", setup*refNominalMs/setupRef, "s", setupReps)
	add("op_p50_ms", p50*scale, "ms", n)
	add("op_tail_ms", tail*scale, "ms", n)
	add("ops_per_s", l.perSecond(float64(n), scale), "1/s", n)
	add("events_per_s", l.perSecond(float64(l.events), scale), "1/s", n)
	add("profit", profit, "price_units", 1)
	add("served_ues", float64(served), "count", 1)
	add("retained_heap_mb", slices.Min(heaps), "MB", setupReps)
	return nil
}

// measureTraced is the traced run: one set-up with spans, an untraced
// loop, a loop with spans and a CPU profile, then the engine probes. Each
// loop takes half the run's seconds and a quarter of its minimum ops.
func measureTraced(w *workload, e *env, o options, rec *record, log io.Writer) error {
	tr := newTracer()
	e.tr = tr
	inst, err := setUp(w, e, rec, log)
	e.tr = nil
	if err != nil {
		return err
	}
	ref, err := newRefKernel()
	if err != nil {
		return err
	}
	defer ref.close()
	minOps := max(e.ops/4, 1)
	plain := loop(inst, nil, ref, minOps, o.seconds/2, w.period, log)

	var prof bytes.Buffer
	if err := pprof.StartCPUProfile(&prof); err != nil {
		return err
	}
	// No reference kernel here: the profile is of the ops alone.
	e.tr = tr
	traced := loop(inst, tr, nil, minOps, o.seconds/2, w.period, log)
	e.tr = nil
	pprof.StopCPUProfile()

	m := rec.Metrics
	rec.Attempted += len(plain.lat) + len(traced.lat) + 1 // the probe
	rec.Failed += plain.failed + traced.failed
	if err := probeEngine(inst.net, m); err != nil {
		fmt.Fprintln(log, "dmra-bench: engine probe failed:", err)
		rec.Failed++
	}
	if inst.finish != nil {
		if err := inst.finish(); err != nil {
			fmt.Fprintln(log, "dmra-bench: end-of-run check failed:", err)
			rec.Failed++
		}
	}
	plainP50 := percentile(plain.lat, 50)
	if inst.layers != nil {
		if err := inst.layers(m, plainP50); err != nil {
			return err
		}
	}

	ops := len(traced.lat)
	byName := tr.layers(ops)
	for name, st := range byName {
		if _, ok := layerUnits[name+"_ms"]; !ok {
			continue
		}
		if setupSpans[name] {
			m.set(name+"_ms", st.SelfMs/float64(st.Calls), "ms")
		} else {
			m.set(name+"_ms", st.SelfMsPerOp, "ms")
		}
	}
	m.set("wall.op_p50_ms", plainP50, "ms")
	m.set("wall.ref_ms", plain.refMs(), "ms")
	m.set("trace.overhead_ratio", ratio(percentile(traced.lat, 50), plainP50), "ratio")
	n := float64(len(plain.lat))
	m.set("runtime.allocs_per_op", float64(plain.mem1.Mallocs-plain.mem0.Mallocs)/n, "count")
	m.set("runtime.alloc_bytes_per_op", float64(plain.mem1.TotalAlloc-plain.mem0.TotalAlloc)/n, "B")
	m.set("runtime.gc_per_op", float64(plain.mem1.NumGC-plain.mem0.NumGC)/n, "count")
	shares, err := cpuShares(prof.Bytes())
	if err != nil {
		return err
	}
	for k, v := range shares {
		m.set(k, v, "share")
	}
	for name, unit := range layerUnits {
		if _, ok := m[name]; !ok {
			m.set(name, 0, unit)
		}
	}
	rec.Provenance.Ops = ops
	for name := range m {
		rec.Provenance.Samples[name] = ops
	}

	writeLayerTable(log, w.name, byName)
	return writeTrace(filepath.Join(o.traceDir, w.name), tr, prof.Bytes(), map[string]any{
		"workload":     w.name,
		"seed":         o.seed,
		"traced_ops":   ops,
		"untraced_ops": len(plain.lat),
		"layers":       byName,
		"metrics":      m,
	})
}

// probeEngine times engine.Arena.Run on the workload's network at one and
// two propose workers, and checks that both give the same assignment.
func probeEngine(net *mec.Network, m metrics) error {
	const reps = 5
	cfg := engine.Config(alloc.DefaultDMRAConfig())
	var a1, a2 engine.Arena
	var t1, t2 []float64
	var st engine.SoAStats
	for i := -1; i < reps; i++ { // run -1 sizes the arenas, untimed
		t0 := time.Now()
		s, err := a1.Run(net, cfg, 1, nil)
		if err != nil {
			return err
		}
		d1 := msSince(t0)
		t0 = time.Now()
		if _, err := a2.Run(net, cfg, 2, nil); err != nil {
			return err
		}
		if i >= 0 {
			t1, t2 = append(t1, d1), append(t2, msSince(t0))
		}
		st = s
	}
	if !slices.Equal(a1.Serving(), a2.Serving()) {
		return errors.New("arena assignments differ between one and two propose workers")
	}
	w1, w2 := percentile(t1, 50), percentile(t2, 50)
	m.set("engine.arena_w1_ms", w1, "ms")
	m.set("engine.arena_w2_ms", w2, "ms")
	m.set("engine.parallel_efficiency", ratio(w1, 2*w2), "ratio")
	m.set("engine.rounds", float64(st.Rounds), "count")
	m.set("engine.proposals", float64(st.Proposals), "count")
	m.set("engine.accept_ratio", ratio(float64(st.Accepts), float64(st.Proposals)), "ratio")
	return nil
}

// writeTrace writes spans.json, cpu.pprof and layers.json into dir.
func writeTrace(dir string, tr *tracer, prof []byte, layers any) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	spans, err := json.Marshal(tr.spans)
	if err != nil {
		return err
	}
	table, err := json.MarshalIndent(layers, "", "  ")
	if err != nil {
		return err
	}
	for name, data := range map[string][]byte{"spans.json": spans, "cpu.pprof": prof, "layers.json": table} {
		if err := os.WriteFile(filepath.Join(dir, name), data, 0o644); err != nil {
			return err
		}
	}
	return nil
}

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func msSince(t time.Time) float64 { return float64(time.Since(t)) / 1e6 }

// percentile interpolates linearly between the order statistics of xs.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	sort.Float64s(s)
	h := p / 100 * float64(len(s)-1)
	i := int(h)
	if i+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[i] + (h-float64(i))*(s[i+1]-s[i])
}
