// Package cliobs wires the shared observability surface into the
// command-line tools: every binary registers the same -obs-addr, -trace
// and -obs-hold flags and materializes one obs.Recorder from them. With
// both flags empty the recorder is nil and every instrumentation hook in
// the runtimes is a no-op, so the default CLI behavior (and output) is
// exactly what it was before the flags existed.
package cliobs

import (
	"bufio"
	"errors"
	"flag"
	"fmt"
	"os"
	"time"

	"dmra/internal/obs"
)

// ringSize bounds the in-memory tail of the event stream; the JSONL file
// (when -trace is set) receives every event regardless.
const ringSize = 4096

// Flags holds the registered observability flag values.
type Flags struct {
	Addr  *string
	Trace *string
	Hold  *time.Duration
}

// Register installs the observability flags on fs.
func Register(fs *flag.FlagSet) *Flags {
	return &Flags{
		Addr:  fs.String("obs-addr", "", "serve /metrics, /debug/vars and /debug/pprof on host:port (empty = off)"),
		Trace: fs.String("trace", "", "write the typed convergence event stream to this JSONL file (empty = off)"),
		Hold:  fs.Duration("obs-hold", 0, "keep the -obs-addr server up this long after the run (for scraping one-shot runs)"),
	}
}

// AppendUsage adds note to the help of the -obs-addr and -trace flags
// Register installed on fs, for tools whose runs telemetry changes.
func AppendUsage(fs *flag.FlagSet, note string) {
	for _, name := range []string{"obs-addr", "trace"} {
		fs.Lookup(name).Usage += "; " + note
	}
}

// Runtime is the materialized observability stack. The zero value (and
// nil) is the disabled state: Rec is nil, Close is a no-op.
type Runtime struct {
	// Rec is the recorder to hand to the runtimes; nil when observability
	// is off, which every instrumentation site treats as "do nothing".
	Rec *obs.Recorder

	reg   *obs.Registry
	sink  *obs.Sink
	srv   *obs.Server
	file  *os.File
	buf   *bufio.Writer
	trace string
	hold  time.Duration
}

// Start builds the runtime the flags describe. When both -obs-addr and
// -trace are empty it returns a disabled Runtime with a nil recorder and
// allocates nothing else. The server address (useful with port 0) is
// announced on stdout.
func (f *Flags) Start() (*Runtime, error) {
	rt := &Runtime{hold: *f.Hold}
	if *f.Addr == "" && *f.Trace == "" {
		return rt, nil
	}
	rt.reg = obs.NewRegistry()
	if *f.Trace != "" {
		fh, err := os.Create(*f.Trace)
		if err != nil {
			return nil, fmt.Errorf("obs trace: %w", err)
		}
		rt.file = fh
		rt.buf = bufio.NewWriter(fh)
		rt.trace = *f.Trace
		rt.sink = obs.NewSink(rt.buf, ringSize)
	} else {
		rt.sink = obs.NewSink(nil, ringSize)
	}
	rt.Rec = obs.NewRecorder(rt.reg, rt.sink)
	if *f.Addr != "" {
		srv, err := obs.StartServer(*f.Addr, rt.reg)
		if err != nil {
			rt.Close()
			return nil, err
		}
		rt.srv = srv
		fmt.Printf("obs: serving /metrics, /debug/vars and /debug/pprof/ on http://%s\n", srv.Addr())
	}
	return rt, nil
}

// WriteManifest stamps the run-identity header as the trace's first
// line; see obs.Sink.WriteManifest. Call it after Start and before the
// run emits events. No-op (and nil error) on a nil or disabled Runtime.
func (rt *Runtime) WriteManifest(m obs.Manifest) error {
	if rt == nil || rt.Rec == nil {
		return nil
	}
	return rt.sink.WriteManifest(m)
}

// Close flushes the trace file, honours -obs-hold, stops the debug
// server, and reports every shutdown error joined with errors.Join —
// a trace-write failure is never masked by a server close failure.
// Safe on nil and on a disabled Runtime.
func (rt *Runtime) Close() error {
	if rt == nil || rt.Rec == nil {
		return nil
	}
	var errs []error
	if rt.srv != nil && rt.hold > 0 {
		fmt.Printf("obs: holding debug server on http://%s for %s\n", rt.srv.Addr(), rt.hold)
		time.Sleep(rt.hold)
	}
	if rt.srv != nil {
		if err := rt.srv.Close(); err != nil {
			errs = append(errs, fmt.Errorf("obs server: %w", err))
		}
		rt.srv = nil
	}
	if rt.buf != nil {
		if err := rt.buf.Flush(); err != nil {
			errs = append(errs, fmt.Errorf("obs trace flush: %w", err))
		}
		rt.buf = nil
	}
	if rt.file != nil {
		if err := rt.file.Close(); err != nil {
			errs = append(errs, fmt.Errorf("obs trace close: %w", err))
		}
		rt.file = nil
		fmt.Printf("obs: wrote %d events to %s\n", rt.sink.Total(), rt.trace)
	}
	if err := rt.sink.Err(); err != nil {
		errs = append(errs, fmt.Errorf("obs trace: %w", err))
	}
	rt.Rec = nil
	return errors.Join(errs...)
}
