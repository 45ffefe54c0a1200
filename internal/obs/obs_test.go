package obs

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"strings"
	"sync"
	"testing"
)

func TestNilSafety(t *testing.T) {
	// Every instrument must be a no-op through nil receivers: this is the
	// disabled-observability contract the hot paths rely on.
	var reg *Registry
	reg.Counter("x").Inc()
	reg.Counter("x").Add(5)
	reg.Gauge("y").Set(3)
	reg.Gauge("y").Add(-1)
	reg.Histogram("z", DefaultLatencyBuckets()).Observe(0.5)
	if v := reg.Counter("x").Value(); v != 0 {
		t.Errorf("nil counter value = %d", v)
	}
	if err := reg.WritePrometheus(io.Discard); err != nil {
		t.Fatal(err)
	}

	var sink *Sink
	sink.Emit(Event{Kind: KindAccept})
	if got := sink.Events(); got != nil {
		t.Errorf("nil sink events = %v", got)
	}
	if sink.Total() != 0 || sink.Err() != nil {
		t.Error("nil sink not inert")
	}

	var rec *Recorder
	rec.Event(KindPropose, 1, 2, 3)
	rec.EventAt(1.5, KindAccept, 1, 2, 3)
	rec.Residual(0, 10, 20)
	rec.Unmatched(7)
	rec.TaskDone(0, 0.1)
	if rec.Registry() != nil || rec.Sink() != nil {
		t.Error("nil recorder leaked parts")
	}
}

func TestCounterGaugeHistogram(t *testing.T) {
	reg := NewRegistry()
	c := reg.Counter("hits")
	c.Inc()
	c.Add(4)
	if c.Value() != 5 {
		t.Errorf("counter = %d, want 5", c.Value())
	}
	if reg.Counter("hits") != c {
		t.Error("counter not deduplicated by name")
	}

	g := reg.Gauge("level")
	g.Set(10)
	g.Add(-2.5)
	if g.Value() != 7.5 {
		t.Errorf("gauge = %g, want 7.5", g.Value())
	}

	h := reg.Histogram("lat", []float64{1, 10})
	for _, v := range []float64{0.5, 0.7, 5, 100} {
		h.Observe(v)
	}
	if h.Count() != 4 {
		t.Errorf("hist count = %d", h.Count())
	}
	if h.Sum() != 106.2 {
		t.Errorf("hist sum = %g", h.Sum())
	}
}

func TestLabel(t *testing.T) {
	if got := Label("m"); got != "m" {
		t.Errorf("Label no-kv = %q", got)
	}
	if got := Label("m", "bs", "3"); got != `m{bs="3"}` {
		t.Errorf("Label = %q", got)
	}
	if got := Label("m", "a", "1", "b", "2"); got != `m{a="1",b="2"}` {
		t.Errorf("Label two pairs = %q", got)
	}
}

func TestWritePrometheus(t *testing.T) {
	reg := NewRegistry()
	reg.Counter(Label("dmra_rejects_total", "type", "trim")).Add(2)
	reg.Counter(Label("dmra_rejects_total", "type", "permanent")).Add(3)
	reg.Gauge(Label("dmra_bs_residual_rrbs", "bs", "0")).Set(55)
	reg.Histogram("lat", []float64{1, 10}).Observe(0.5)

	var buf bytes.Buffer
	if err := reg.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"# TYPE dmra_rejects_total counter",
		`dmra_rejects_total{type="permanent"} 3`,
		`dmra_rejects_total{type="trim"} 2`,
		"# TYPE dmra_bs_residual_rrbs gauge",
		`dmra_bs_residual_rrbs{bs="0"} 55`,
		"# TYPE lat histogram",
		`lat_bucket{le="1"} 1`,
		`lat_bucket{le="+Inf"} 1`,
		"lat_sum 0.5",
		"lat_count 1",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("prometheus output missing %q in:\n%s", want, out)
		}
	}
	// One TYPE header per base name even with several labeled series.
	if n := strings.Count(out, "# TYPE dmra_rejects_total"); n != 1 {
		t.Errorf("%d TYPE headers for dmra_rejects_total", n)
	}
}

func TestWriteJSONDeterministic(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("b").Add(1)
	reg.Gauge("a").Set(2)
	reg.Histogram("c", []float64{1}).Observe(3)

	var first bytes.Buffer
	if err := reg.WriteJSON(&first); err != nil {
		t.Fatal(err)
	}
	var parsed map[string]any
	if err := json.Unmarshal(first.Bytes(), &parsed); err != nil {
		t.Fatalf("not valid JSON: %v\n%s", err, first.String())
	}
	if len(parsed) != 3 {
		t.Errorf("JSON keys = %d, want 3", len(parsed))
	}
	var second bytes.Buffer
	if err := reg.WriteJSON(&second); err != nil {
		t.Fatal(err)
	}
	if first.String() != second.String() {
		t.Error("JSON view not deterministic across renders")
	}
}

func TestEventKindJSONRoundTrip(t *testing.T) {
	for k := KindRound; k <= KindBroadcast; k++ {
		data, err := json.Marshal(k)
		if err != nil {
			t.Fatal(err)
		}
		var back EventKind
		if err := json.Unmarshal(data, &back); err != nil {
			t.Fatal(err)
		}
		if back != k {
			t.Errorf("kind %v round-tripped to %v", k, back)
		}
	}
	var bad EventKind
	if err := json.Unmarshal([]byte(`"nope"`), &bad); err == nil {
		t.Error("unknown kind accepted")
	}
}

func TestSinkRingAndJSONL(t *testing.T) {
	var buf bytes.Buffer
	sink := NewSink(&buf, 3)
	for i := 0; i < 5; i++ {
		sink.Emit(Event{Kind: KindPropose, Round: 1, UE: i, BS: 0})
	}
	if sink.Total() != 5 {
		t.Errorf("total = %d", sink.Total())
	}
	got := sink.Events()
	if len(got) != 3 {
		t.Fatalf("ring kept %d events, want 3", len(got))
	}
	// The ring retains the most recent events with their emission seq.
	for i, e := range got {
		if e.UE != i+2 || e.Seq != int64(i+3) {
			t.Errorf("ring[%d] = %+v", i, e)
		}
	}
	// The JSONL writer saw every event, not just the ring's worth.
	events, err := ReadEvents(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(events) != 5 {
		t.Fatalf("JSONL has %d events, want 5", len(events))
	}
	if events[4].Seq != 5 || events[4].UE != 4 || events[4].Kind != KindPropose {
		t.Errorf("last JSONL event = %+v", events[4])
	}
}

// TestSinkRingGrowsThenWraps checks the on-demand ring at every fill
// level: while it grows it holds every event in order, and once full it
// drops the oldest, through several wraps, never holding more than its
// cap. A large cap stays unallocated until events arrive.
func TestSinkRingGrowsThenWraps(t *testing.T) {
	const size = 300 // grows 64, 192, 300
	sink := NewSink(nil, size)
	if n := cap(sink.ring); n != 0 {
		t.Fatalf("fresh sink holds a %d-event ring", n)
	}
	for i := 1; i <= 4*size+5; i++ {
		sink.Emit(Event{Kind: KindPropose, UE: i})
		got := sink.Events()
		if want := min(i, size); len(got) != want || cap(sink.ring) > size {
			t.Fatalf("after %d events: ring holds %d (cap %d), want %d", i, len(got), cap(sink.ring), want)
		}
		first := i - len(got) + 1
		for k, e := range got {
			if e.UE != first+k || e.Seq != int64(first+k) {
				t.Fatalf("after %d events: ring[%d] = %+v, want UE and seq %d", i, k, e, first+k)
			}
		}
	}
}

// errWriter fails after n writes.
type errWriter struct{ n int }

func (w *errWriter) Write(p []byte) (int, error) {
	if w.n <= 0 {
		return 0, io.ErrClosedPipe
	}
	w.n--
	return len(p), nil
}

func TestSinkWriterErrorDoesNotPanic(t *testing.T) {
	sink := NewSink(&errWriter{n: 1}, 8)
	sink.Emit(Event{Kind: KindRound, Round: 1, UE: -1, BS: -1})
	sink.Emit(Event{Kind: KindAccept, Round: 1, UE: 0, BS: 0})
	sink.Emit(Event{Kind: KindAccept, Round: 1, UE: 1, BS: 0})
	if sink.Err() == nil {
		t.Error("writer error not surfaced")
	}
	// The ring still works after the writer broke.
	if len(sink.Events()) != 3 {
		t.Errorf("ring lost events after writer error")
	}
}

func TestRecorderCountersAndGauges(t *testing.T) {
	reg := NewRegistry()
	sink := NewSink(nil, 16)
	rec := NewRecorder(reg, sink)

	rec.Event(KindRound, 1, -1, -1)
	rec.Event(KindPropose, 1, 4, 2)
	rec.Event(KindAccept, 1, 4, 2)
	rec.Event(KindRejectPermanent, 1, 5, 2)
	rec.Event(KindRejectTrim, 1, 6, 2)
	rec.Event(KindCloudFallback, 2, 7, -1)
	rec.Event(KindBroadcast, 1, -1, 2)
	rec.Residual(2, 40, 9)
	rec.Unmatched(3)
	rec.TaskDone(1, 0.25)

	for name, want := range map[string]int64{
		"dmra_rounds_total":                              1,
		"dmra_proposals_total":                           1,
		"dmra_accepts_total":                             1,
		Label("dmra_rejects_total", "type", "permanent"): 1,
		Label("dmra_rejects_total", "type", "trim"):      1,
		"dmra_cloud_fallbacks_total":                     1,
		"dmra_broadcasts_total":                          1,
	} {
		if got := reg.Counter(name).Value(); got != want {
			t.Errorf("%s = %d, want %d", name, got, want)
		}
	}
	if got := reg.Gauge(Label("dmra_bs_residual_crus", "bs", "2")).Value(); got != 40 {
		t.Errorf("residual crus = %g", got)
	}
	if got := reg.Gauge(Label("dmra_bs_residual_rrbs", "bs", "2")).Value(); got != 9 {
		t.Errorf("residual rrbs = %g", got)
	}
	if got := reg.Gauge("dmra_unmatched_ues").Value(); got != 3 {
		t.Errorf("unmatched = %g", got)
	}
	if got := reg.Gauge(Label("exp_worker_busy_seconds", "worker", "1")).Value(); got != 0.25 {
		t.Errorf("worker busy = %g", got)
	}
	if got := reg.Histogram("exp_task_seconds", nil).Count(); got != 1 {
		t.Errorf("task hist count = %d", got)
	}
	if got := sink.Total(); got != 7 {
		t.Errorf("sink saw %d events, want 7", got)
	}
}

func TestRegistryConcurrency(t *testing.T) {
	reg := NewRegistry()
	rec := NewRecorder(reg, NewSink(io.Discard, 64))
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				rec.Event(KindPropose, 1, i, w)
				rec.Residual(w, i, i)
				rec.TaskDone(w, 0.001)
				reg.Counter("shared").Inc()
			}
		}()
	}
	wg.Wait()
	if got := reg.Counter("shared").Value(); got != 1600 {
		t.Errorf("shared counter = %d", got)
	}
	if got := reg.Counter("dmra_proposals_total").Value(); got != 1600 {
		t.Errorf("proposals = %d", got)
	}
	var buf bytes.Buffer
	if err := reg.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
}

func TestServerEndpoints(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("dmra_rounds_total").Add(7)
	srv, err := StartServer("127.0.0.1:0", reg)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	get := func(path string) (int, string) {
		t.Helper()
		resp, err := http.Get("http://" + srv.Addr() + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		body, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, string(body)
	}

	if code, body := get("/metrics"); code != http.StatusOK || !strings.Contains(body, "dmra_rounds_total 7") {
		t.Errorf("/metrics: code %d body %q", code, body)
	} else {
		// The scrape must also carry the process gauges, each with its
		// TYPE line and a parseable sample.
		for _, g := range []string{"go_goroutines", "go_memstats_heap_alloc_bytes", "go_gc_pause_seconds_total"} {
			if !strings.Contains(body, "# TYPE "+g+" ") || !strings.Contains(body, "\n"+g+" ") {
				t.Errorf("/metrics missing process gauge %s:\n%s", g, body)
			}
		}
	}
	if code, body := get("/debug/vars"); code != http.StatusOK || !strings.Contains(body, `"dmra_rounds_total": 7`) {
		t.Errorf("/debug/vars: code %d body %q", code, body)
	}
	if code, body := get("/debug/pprof/"); code != http.StatusOK || !strings.Contains(body, "goroutine") {
		t.Errorf("/debug/pprof/: code %d body %.80q", code, body)
	}

	if err := srv.Close(); err != nil {
		t.Errorf("close: %v", err)
	}
	var nilSrv *Server
	if nilSrv.Addr() != "" || nilSrv.Close() != nil {
		t.Error("nil server not inert")
	}
}
