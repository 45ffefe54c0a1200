package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"sort"
	"strings"
	"time"
)

// layerUnits lists every per-layer metric of a traced run with its unit.
// Each traced run reports all of them; a layer the workload never enters
// reads 0.
var layerUnits = map[string]string{
	// Self time of each span name below, per op, or per call for the
	// set-up spans.
	"workload.build_ms": "ms",
	"engine.begin_ms":   "ms",
	"alloc.allocate_ms": "ms",
	"mec.report_ms":     "ms",
	"engine.depart_ms":  "ms",
	"engine.arrive_ms":  "ms",
	"engine.settle_ms":  "ms",
	"online.run_ms":     "ms",
	"wire.run_ms":       "ms",

	// The untraced phase's op median and reference kernel median, as
	// measured: the scale the span times above were taken at.
	"wall.op_p50_ms":                   "ms",
	"wall.ref_ms":                      "ms",
	"wire.round_mean_ms":               "ms",
	"engine.arena_w1_ms":               "ms",
	"engine.arena_w2_ms":               "ms",
	"engine.parallel_efficiency":       "ratio",
	"engine.rounds":                    "count",
	"engine.proposals":                 "count",
	"engine.accept_ratio":              "ratio",
	"engine.frontier_per_epoch":        "count",
	"engine.invalidated_per_release":   "count",
	"engine.repair_rounds_per_epoch":   "count",
	"engine.placed_ratio":              "ratio",
	"obs.events_per_op":                "count",
	"obs.sink_bytes_per_op":            "B",
	"obs.tax_ratio":                    "ratio",
	"obs.ns_per_event":                 "ns",
	"online.events_per_op":             "count",
	"online.epochs_per_op":             "count",
	"online.reassign_checks_per_epoch": "count",
	"wire.frames_per_op":               "count",
	"wire.bytes_per_ue":                "B",
	"wire.handoff_ratio":               "ratio",
	"runtime.allocs_per_op":            "count",
	"runtime.alloc_bytes_per_op":       "B",
	"runtime.gc_per_op":                "count",
	"trace.overhead_ratio":             "ratio",
	"cpu.engine":                       "share",
	"cpu.alloc":                        "share",
	"cpu.mec":                          "share",
	"cpu.online":                       "share",
	"cpu.sim":                          "share",
	"cpu.workload":                     "share",
	"cpu.obs":                          "share",
	"cpu.wire":                         "share",
	"cpu.json":                         "share",
	"cpu.net":                          "share",
	"cpu.gc":                           "share",
	"cpu.other":                        "share",
}

// span is one timed call into a layer. Spans of one op share Op; setup
// spans have Op -1.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"`
	Op     int    `json:"op"`
}

// tracer keeps spans in memory until the run ends. A nil tracer records
// nothing.
type tracer struct {
	t0    time.Time
	spans []span
	open  []int
	op    int
}

func newTracer() *tracer { return &tracer{t0: time.Now(), op: -1} }

func nop() {}

// begin opens a span and returns the function that closes it.
func (t *tracer) begin(name string) func() {
	if t == nil {
		return nop
	}
	parent := -1
	if len(t.open) > 0 {
		parent = t.open[len(t.open)-1]
	}
	i := len(t.spans)
	t.spans = append(t.spans, span{Name: name, Start: int64(time.Since(t.t0)), Parent: parent, Op: t.op})
	t.open = append(t.open, i)
	return func() {
		t.spans[i].End = int64(time.Since(t.t0))
		t.open = t.open[:len(t.open)-1]
	}
}

// nextOp starts the spans of a new op.
func (t *tracer) nextOp() {
	if t != nil {
		t.op++
	}
}

// layerStat aggregates the spans of one name.
type layerStat struct {
	Calls   int     `json:"calls"`
	TotalMs float64 `json:"total_ms"`
	SelfMs  float64 `json:"self_ms"`
	// SelfMsPerOp is SelfMs over the traced ops (0 for setup-only spans).
	SelfMsPerOp float64 `json:"self_ms_per_op"`
}

// selfTimes returns each span's duration minus the time its children
// cover, in ms.
func (t *tracer) selfTimes() []float64 {
	self := make([]float64, len(t.spans))
	for i, s := range t.spans {
		d := float64(s.End-s.Start) / 1e6
		self[i] += d
		if s.Parent >= 0 {
			self[s.Parent] -= d
		}
	}
	return self
}

// setupSpans are the spans of a workload's set-up, reported per call.
var setupSpans = map[string]bool{"workload.build": true, "engine.begin": true}

// layers aggregates self time by span name.
func (t *tracer) layers(ops int) map[string]*layerStat {
	self := t.selfTimes()
	byName := map[string]*layerStat{}
	for i, s := range t.spans {
		st := byName[s.Name]
		if st == nil {
			st = &layerStat{}
			byName[s.Name] = st
		}
		st.Calls++
		st.TotalMs += float64(s.End-s.Start) / 1e6
		st.SelfMs += self[i]
		if s.Op >= 0 {
			st.SelfMsPerOp += self[i] / float64(ops)
		}
	}
	return byName
}

// writeLayerTable prints per-layer self time, largest first.
func writeLayerTable(w io.Writer, workload string, byName map[string]*layerStat) {
	names := make([]string, 0, len(byName))
	for n := range byName {
		names = append(names, n)
	}
	sort.Slice(names, func(i, j int) bool { return byName[names[i]].SelfMs > byName[names[j]].SelfMs })
	fmt.Fprintf(w, "%s: self time by layer\n", workload)
	fmt.Fprintf(w, "  %-22s %8s %12s %12s %14s\n", "span", "calls", "total ms", "self ms", "self ms/op")
	for _, n := range names {
		s := byName[n]
		fmt.Fprintf(w, "  %-22s %8d %12.3f %12.3f %14.4f\n", n, s.Calls, s.TotalMs, s.SelfMs, s.SelfMsPerOp)
	}
}

// cpuShares buckets the samples of a gzipped pprof CPU profile by layer
// and returns each layer's share, keyed "cpu.<layer>". A sample goes to
// gc when any frame is a garbage-collector entry point, else to the layer
// of the first frame, from the leaf up, in a bucketed package, else to
// other. Runtime helpers such as memmove thus count for the layer that
// called them.
func cpuShares(gz []byte) (map[string]float64, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	p, err := decodeProfile(raw)
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	shares := map[string]float64{}
	var total float64
	for _, s := range p.samples {
		var stack []string
		for _, loc := range s.locs {
			for _, fn := range p.locFuncs[loc] {
				stack = append(stack, p.str(p.funcName[fn]))
			}
		}
		shares["cpu."+bucket(stack)] += float64(s.count)
		total += float64(s.count)
	}
	for k := range shares {
		shares[k] /= total
	}
	return shares, nil
}

func bucket(stack []string) string {
	for _, f := range stack {
		switch f {
		case "runtime.gcBgMarkWorker", "runtime.gcAssistAlloc", "runtime.bgsweep", "runtime.bgscavenge":
			return "gc"
		}
	}
	for _, f := range stack {
		pkg := funcPackage(f)
		switch {
		case strings.HasPrefix(pkg, "dmra/internal/workload"):
			return "workload"
		case strings.HasPrefix(pkg, "dmra/internal/"):
			switch l := strings.TrimPrefix(pkg, "dmra/internal/"); l {
			case "engine", "alloc", "mec", "online", "sim", "obs", "wire":
				return l
			}
		case pkg == "encoding/json":
			return "json"
		case pkg == "net", pkg == "syscall", pkg == "internal/poll", strings.HasPrefix(pkg, "net/"):
			return "net"
		}
	}
	return "other"
}

// funcPackage returns the import path of a symbol name such as
// "dmra/internal/engine.(*Arena).Run".
func funcPackage(name string) string {
	slash := strings.LastIndexByte(name, '/')
	if dot := strings.IndexByte(name[slash+1:], '.'); dot >= 0 {
		return name[:slash+1+dot]
	}
	return name
}

// profile is the part of a pprof protobuf profile the CPU buckets need.
type profile struct {
	samples  []profSample
	locFuncs map[uint64][]uint64 // location -> functions, innermost first
	funcName map[uint64]int64    // function -> string table index
	strings  []string
}

type profSample struct {
	locs  []uint64 // leaf first
	count int64
}

func (p *profile) str(i int64) string {
	if i < 0 || i >= int64(len(p.strings)) {
		return ""
	}
	return p.strings[i]
}

var errProto = errors.New("malformed protobuf")

// decodeProfile reads the profile.proto fields sample (2), location (4),
// function (5) and string_table (6).
func decodeProfile(b []byte) (*profile, error) {
	p := &profile{locFuncs: map[uint64][]uint64{}, funcName: map[uint64]int64{}}
	err := protoFields(b, func(num, wt int, v uint64, data []byte) error {
		switch num {
		case 2:
			var s profSample
			var vals []uint64
			err := protoFields(data, func(num, wt int, v uint64, data []byte) (err error) {
				switch num {
				case 1:
					s.locs, err = appendUints(s.locs, wt, v, data)
				case 2:
					vals, err = appendUints(vals, wt, v, data)
				}
				return err
			})
			if err != nil || len(vals) == 0 {
				return errProto
			}
			s.count = int64(vals[0])
			p.samples = append(p.samples, s)
		case 4:
			var id uint64
			var fns []uint64
			err := protoFields(data, func(num, wt int, v uint64, data []byte) error {
				switch num {
				case 1:
					id = v
				case 4:
					return protoFields(data, func(num, wt int, v uint64, _ []byte) error {
						if num == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			if err != nil {
				return err
			}
			p.locFuncs[id] = fns
		case 5:
			var id uint64
			var name int64
			err := protoFields(data, func(num, wt int, v uint64, _ []byte) error {
				switch num {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			if err != nil {
				return err
			}
			p.funcName[id] = name
		case 6:
			p.strings = append(p.strings, string(data))
		}
		return nil
	})
	return p, err
}

// protoFields calls fn for every field of a protobuf message: v holds a
// varint or fixed-width value, data a length-delimited one.
func protoFields(b []byte, fn func(num, wt int, v uint64, data []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errProto
		}
		b = b[n:]
		num, wt := int(key>>3), int(key&7)
		var v uint64
		var data []byte
		switch wt {
		case 0:
			v, n = binary.Uvarint(b)
			if n <= 0 {
				return errProto
			}
			b = b[n:]
		case 1, 5:
			w := 8
			if wt == 5 {
				w = 4
			}
			if len(b) < w {
				return errProto
			}
			b = b[w:]
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errProto
			}
			data, b = b[n:n+int(l)], b[n+int(l):]
		default:
			return errProto
		}
		if err := fn(num, wt, v, data); err != nil {
			return err
		}
	}
	return nil
}

// appendUints appends a repeated varint field, packed or not.
func appendUints(dst []uint64, wt int, v uint64, data []byte) ([]uint64, error) {
	if wt == 0 {
		return append(dst, v), nil
	}
	for len(data) > 0 {
		x, n := binary.Uvarint(data)
		if n <= 0 {
			return dst, errProto
		}
		dst = append(dst, x)
		data = data[n:]
	}
	return dst, nil
}
