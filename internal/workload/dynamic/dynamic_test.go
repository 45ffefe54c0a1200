package dynamic

import (
	"bufio"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"dmra/internal/rng"
)

func sampleSpec() Spec {
	return Spec{
		Version: SpecVersion,
		Cohorts: []Cohort{
			{Name: "steady", PoolShare: 0.6,
				Arrival: ArrivalSpec{Process: ProcessPoisson, RateHz: 2},
				HoldS:   DistSpec{Dist: DistExponential, Mean: 60}},
			{Name: "bursty", PoolShare: 0.4,
				Arrival:      ArrivalSpec{Process: ProcessGamma, RateHz: 1, CV: 3},
				HoldS:        DistSpec{Dist: DistUniform, Min: 10, Max: 30},
				CRUDemandMin: 4, CRUDemandMax: 6, RateMinBps: 1e6, RateMaxBps: 4e6},
		},
	}
}

func TestSpecSaveLoadRoundTrip(t *testing.T) {
	spec := sampleSpec()
	path := filepath.Join(t.TempDir(), "spec.json")
	if err := spec.Save(path); err != nil {
		t.Fatal(err)
	}
	got, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, spec) {
		t.Errorf("round-trip changed the spec:\n got %+v\nwant %+v", got, spec)
	}
}

func TestLoadResolvesRelativeTrace(t *testing.T) {
	dir := t.TempDir()
	writeFile(t, filepath.Join(dir, "trace.csv"), "0.5,all\n1.5,all\n")
	spec := Spec{
		Version: SpecVersion,
		Cohorts: []Cohort{{Name: "all", PoolShare: 1,
			HoldS: DistSpec{Dist: DistConstant, Value: 5}}},
		Trace: "trace.csv",
	}
	path := filepath.Join(dir, "spec.json")
	if err := spec.Save(path); err != nil {
		t.Fatal(err)
	}
	got, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if want := filepath.Join(dir, "trace.csv"); got.Trace != want {
		t.Errorf("Trace = %q, want resolved path %q", got.Trace, want)
	}
	if _, err := LoadTrace(got.Trace); err != nil {
		t.Errorf("resolved trace unreadable: %v", err)
	}
}

// TestParseRejectsUnknownFields is the strictness regression test: a
// typo'd key must fail loudly, not silently fall back to defaults.
func TestParseRejectsUnknownFields(t *testing.T) {
	bad := `{
  "version": 1,
  "cohorts": [{
    "name": "all", "poolShare": 1,
    "arrival": {"process": "poisson", "rate_hz": 2},
    "holdS": {"dist": "exponential", "mean": 60}
  }]
}`
	if _, err := Parse([]byte(bad)); err == nil {
		t.Fatal(`Parse accepted misspelled key "rate_hz"`)
	} else if !strings.Contains(err.Error(), "rate_hz") {
		t.Errorf("error %q does not name the offending key", err)
	}
}

func TestParseRejectsWrongVersion(t *testing.T) {
	if _, err := Parse([]byte(`{"version": 2, "cohorts": []}`)); err == nil {
		t.Fatal("Parse accepted a future schema version")
	}
}

func TestValidateRejections(t *testing.T) {
	base := sampleSpec()
	cases := []struct {
		name string
		mut  func(*Spec)
		want string
	}{
		{"no cohorts", func(s *Spec) { s.Cohorts = nil }, "no cohorts"},
		{"unnamed", func(s *Spec) { s.Cohorts[0].Name = "" }, "no name"},
		{"duplicate name", func(s *Spec) { s.Cohorts[1].Name = "steady" }, "duplicate"},
		{"share zero", func(s *Spec) { s.Cohorts[0].PoolShare = 0 }, "pool share"},
		{"shares not one", func(s *Spec) { s.Cohorts[0].PoolShare = 0.3 }, "sum to"},
		{"zero rate", func(s *Spec) { s.Cohorts[0].Arrival.RateHz = 0 }, "arrival rate"},
		{"unknown process", func(s *Spec) { s.Cohorts[0].Arrival.Process = "pareto" }, "unknown arrival process"},
		{"gamma no cv", func(s *Spec) { s.Cohorts[1].Arrival.CV = 0 }, "cv"},
		{"unknown dist", func(s *Spec) { s.Cohorts[0].HoldS.Dist = "cauchy" }, "unknown distribution"},
		{"uniform inverted", func(s *Spec) { s.Cohorts[1].HoldS = DistSpec{Dist: DistUniform, Min: 30, Max: 10} }, "uniform"},
		{"demand half-set", func(s *Spec) { s.Cohorts[1].CRUDemandMin = 0 }, "half-set"},
		{"demand inverted", func(s *Spec) { s.Cohorts[1].CRUDemandMin = 7 }, "inverted"},
		{"rate half-set", func(s *Spec) { s.Cohorts[1].RateMaxBps = 0 }, "half-set"},
	}
	for _, tt := range cases {
		t.Run(tt.name, func(t *testing.T) {
			s := base
			s.Cohorts = append([]Cohort(nil), base.Cohorts...)
			tt.mut(&s)
			err := s.Validate()
			if err == nil {
				t.Fatal("Validate accepted the broken spec")
			}
			if !strings.Contains(err.Error(), tt.want) {
				t.Errorf("error %q does not mention %q", err, tt.want)
			}
		})
	}
}

func TestDiurnalValidation(t *testing.T) {
	a := ArrivalSpec{Process: ProcessDiurnal, RateHz: 1}
	if err := a.validate(); err == nil {
		t.Error("diurnal with no phases accepted")
	}
	a.Phases = []PhaseSpec{{DurationS: 10, RateFactor: 0}}
	if err := a.validate(); err == nil {
		t.Error("diurnal with all-zero factors accepted")
	}
	a.Phases = []PhaseSpec{{DurationS: 10, RateFactor: 0}, {DurationS: 5, RateFactor: 2}}
	if err := a.validate(); err != nil {
		t.Errorf("valid diurnal rejected: %v", err)
	}
}

func TestDefaultSpecValidates(t *testing.T) {
	s := Default(5, 120)
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	if r := s.AggregateRateHz(); math.Abs(r-5) > 1e-12 {
		t.Errorf("aggregate rate = %g, want 5", r)
	}
}

// TestProcessEmpiricalRates checks each generative process's empirical
// long-run rate against MeanRate over many simulated arrivals.
func TestProcessEmpiricalRates(t *testing.T) {
	cases := []struct {
		name string
		p    Process
	}{
		{"poisson", Poisson{RateHz: 2}},
		{"gamma-bursty", Gamma{RateHz: 2, CV: 3}},
		{"gamma-regular", Gamma{RateHz: 2, CV: 0.5}},
		{"weibull-heavy", Weibull{RateHz: 2, Shape: 0.7}},
		{"weibull-light", Weibull{RateHz: 2, Shape: 2}},
		{"diurnal", Diurnal{RateHz: 2, Phases: []Phase{
			{DurationS: 50, RateFactor: 0.2}, {DurationS: 50, RateFactor: 1.8}}}},
	}
	for _, tt := range cases {
		t.Run(tt.name, func(t *testing.T) {
			src := rng.New(11)
			const n = 200000
			now := 0.0
			for i := 0; i < n; i++ {
				next := tt.p.Next(now, src)
				if next < now {
					t.Fatalf("arrival %d went back in time: %g < %g", i, next, now)
				}
				now = next
			}
			want := MeanRate(tt.p)
			got := float64(n) / now
			if math.Abs(got-want)/want > 0.05 {
				t.Errorf("empirical rate %g, MeanRate says %g", got, want)
			}
		})
	}
}

// TestGammaBurstiness checks that CV > 1 actually yields overdispersed
// inter-arrival times (sample CV near the configured one).
func TestGammaBurstiness(t *testing.T) {
	p := Gamma{RateHz: 1, CV: 3}
	src := rng.New(5)
	const n = 200000
	var sum, sumSq float64
	now := 0.0
	for i := 0; i < n; i++ {
		next := p.Next(now, src)
		d := next - now
		sum += d
		sumSq += d * d
		now = next
	}
	mean := sum / n
	cv := math.Sqrt(sumSq/n-mean*mean) / mean
	if math.Abs(cv-3) > 0.3 {
		t.Errorf("sample CV = %g, want ~3", cv)
	}
}

func TestReplayCursor(t *testing.T) {
	r := NewReplay([]float64{0, 1, 1, 2.5})
	src := rng.New(1)
	var got []float64
	now := 0.0
	for {
		t := r.Next(now, src)
		if math.IsInf(t, 1) {
			break
		}
		got = append(got, t)
		now = t
	}
	// The t=0 event and the duplicate at t=1 must all replay.
	if want := []float64{0, 1, 1, 2.5}; !reflect.DeepEqual(got, want) {
		t.Errorf("replayed %v, want %v", got, want)
	}
	if !math.IsInf(r.Next(now, src), 1) {
		t.Error("exhausted replay did not stay at +Inf")
	}
	if empty := NewReplay(nil); !math.IsInf(empty.Next(0, src), 1) {
		t.Error("empty replay did not return +Inf")
	}
}

func TestSamplerMeans(t *testing.T) {
	cases := []struct {
		name string
		s    Sampler
		want float64
	}{
		{"exp", ExpSampler{Mean: 42}, 42},
		{"uniform", UniformSampler{Min: 10, Max: 30}, 20},
		{"const", ConstSampler{Value: 7}, 7},
		{"lognormal", LognormalSampler{Mean: 20, Sigma: 0.8}, 20},
	}
	for _, tt := range cases {
		t.Run(tt.name, func(t *testing.T) {
			if m, err := samplerMean(tt.s); err != nil || math.Abs(m-tt.want) > 1e-9 {
				t.Errorf("samplerMean = %g, %v; want %g", m, err, tt.want)
			}
			src := rng.New(3)
			const n = 200000
			sum := 0.0
			for i := 0; i < n; i++ {
				v := tt.s.Sample(src)
				if v < 0 {
					t.Fatalf("negative sample %g", v)
				}
				sum += v
			}
			if got := sum / n; math.Abs(got-tt.want)/tt.want > 0.05 {
				t.Errorf("empirical mean %g, want ~%g", got, tt.want)
			}
		})
	}
}

// TestConstSamplerBurnsOneDraw pins the stream-alignment contract: every
// sampler consumes exactly one draw per sample, so swapping distributions
// in a spec never desynchronizes unrelated cohorts.
func TestConstSamplerBurnsOneDraw(t *testing.T) {
	src := rng.New(9)
	ConstSampler{Value: 1}.Sample(src)
	probe := rng.New(9)
	probe.Float64()
	if src.Uint64() != probe.Uint64() {
		t.Error("ConstSampler did not consume exactly one draw")
	}
}

func TestMean64(t *testing.T) {
	m, err := (DistSpec{Dist: DistUniform, Min: 0, Max: 10}).Mean64()
	if err != nil || m != 5 {
		t.Errorf("Mean64 = %g, %v; want 5", m, err)
	}
	if _, err := (DistSpec{Dist: "bogus"}).Mean64(); err == nil {
		t.Error("Mean64 accepted unknown dist")
	}
}

func TestScaleRate(t *testing.T) {
	spec := sampleSpec() // aggregate 3 Hz
	scaled, err := spec.ScaleRate(6)
	if err != nil {
		t.Fatal(err)
	}
	if r := scaled.AggregateRateHz(); math.Abs(r-6) > 1e-9 {
		t.Errorf("scaled aggregate = %g, want 6", r)
	}
	// Relative shares and burst shape preserved.
	if scaled.Cohorts[0].Arrival.RateHz != 4 || scaled.Cohorts[1].Arrival.RateHz != 2 {
		t.Errorf("scaled rates = %g, %g; want 4, 2",
			scaled.Cohorts[0].Arrival.RateHz, scaled.Cohorts[1].Arrival.RateHz)
	}
	if scaled.Cohorts[1].Arrival.CV != 3 {
		t.Error("scaling changed the burst shape")
	}
	if spec.Cohorts[0].Arrival.RateHz != 2 {
		t.Error("ScaleRate mutated its receiver")
	}

	trace := spec
	trace.Trace = "t.csv"
	if _, err := trace.ScaleRate(6); err == nil {
		t.Error("ScaleRate accepted a trace-replay spec")
	}
	if _, err := spec.ScaleRate(0); err == nil {
		t.Error("ScaleRate accepted a zero target")
	}
}

func TestParseTrace(t *testing.T) {
	in := "# recorded 2026-08-01\nt,cohort,demand\n0,web,3\n1.5,web,\n1.5,batch,8\n2,web\n"
	events, err := ParseTrace(bufio.NewScanner(strings.NewReader(in)))
	if err != nil {
		t.Fatal(err)
	}
	want := []TraceEvent{
		{TimeS: 0, Cohort: "web", Demand: 3},
		{TimeS: 1.5, Cohort: "web"},
		{TimeS: 1.5, Cohort: "batch", Demand: 8},
		{TimeS: 2, Cohort: "web"},
	}
	if !reflect.DeepEqual(events, want) {
		t.Errorf("parsed %+v,\nwant %+v", events, want)
	}

	times, demands := SplitTrace(events)
	if !reflect.DeepEqual(times["web"], []float64{0, 1.5, 2}) {
		t.Errorf("web times = %v", times["web"])
	}
	if !reflect.DeepEqual(demands["batch"], []int{8}) {
		t.Errorf("batch demands = %v", demands["batch"])
	}

	spec := Spec{Version: SpecVersion,
		Cohorts: []Cohort{{Name: "web", PoolShare: 1, HoldS: DistSpec{Dist: DistConstant, Value: 1}}}}
	if err := spec.CheckTrace(events); err == nil {
		t.Error("CheckTrace accepted a trace naming an unknown cohort")
	}

	for _, bad := range []string{
		"",                          // no events
		"abc,web\n",                 // bad time
		"-1,web\n",                  // negative time
		"NaN,web\n",                 // not a number
		"inf,web\n",                 // infinite
		"1,web\nnan,web\n0.5,web\n", // NaN hides the unsorted pair
		"1,web\n0.5,web\n",          // unsorted
		"1\n",                       // missing cohort
		"1, ,3\n",                   // empty cohort
		"1,web,many\n",              // bad demand
		"1,web,-2\n",                // negative demand
		"1,web,3,extra\n",           // too many columns
	} {
		if _, err := ParseTrace(bufio.NewScanner(strings.NewReader(bad))); err == nil {
			t.Errorf("ParseTrace accepted %q", bad)
		}
	}
}

func writeFile(t *testing.T, path, content string) {
	t.Helper()
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
}
