package sim

import (
	"sort"
	"testing"
	"testing/quick"

	"dmra/internal/rng"
)

func TestZeroValueUsable(t *testing.T) {
	var e Engine
	ran := false
	e.Schedule(1, func() { ran = true })
	if n := e.Run(); n != 1 || !ran {
		t.Fatalf("Run = %d, ran = %v", n, ran)
	}
	if e.Now() != 1 {
		t.Fatalf("Now = %v, want 1", e.Now())
	}
}

func TestTimeOrdering(t *testing.T) {
	var e Engine
	var order []int
	e.Schedule(3, func() { order = append(order, 3) })
	e.Schedule(1, func() { order = append(order, 1) })
	e.Schedule(2, func() { order = append(order, 2) })
	e.Run()
	for i, v := range []int{1, 2, 3} {
		if order[i] != v {
			t.Fatalf("order = %v", order)
		}
	}
}

func TestFIFOAtEqualTimes(t *testing.T) {
	var e Engine
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		e.Schedule(5, func() { order = append(order, i) })
	}
	e.Run()
	for i, v := range order {
		if v != i {
			t.Fatalf("equal-time events out of scheduling order: %v", order)
		}
	}
}

func TestNestedScheduling(t *testing.T) {
	var e Engine
	var times []float64
	e.Schedule(1, func() {
		times = append(times, e.Now())
		e.Schedule(1, func() {
			times = append(times, e.Now())
		})
	})
	e.Run()
	if len(times) != 2 || times[0] != 1 || times[1] != 2 {
		t.Fatalf("times = %v, want [1 2]", times)
	}
}

func TestNegativeDelayPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("negative delay did not panic")
		}
	}()
	var e Engine
	e.Schedule(-1, func() {})
}

func TestScheduleAtPastPanics(t *testing.T) {
	var e Engine
	e.Schedule(5, func() {})
	e.Run()
	defer func() {
		if recover() == nil {
			t.Fatal("scheduling into the past did not panic")
		}
	}()
	e.ScheduleAt(1, func() {})
}

func TestRunUntil(t *testing.T) {
	var e Engine
	var fired []float64
	for _, d := range []float64{1, 2, 3, 4, 5} {
		d := d
		e.Schedule(d, func() { fired = append(fired, d) })
	}
	if n := e.RunUntil(3); n != 3 {
		t.Fatalf("RunUntil(3) processed %d, want 3", n)
	}
	if e.Now() != 3 {
		t.Fatalf("Now = %v, want 3", e.Now())
	}
	if e.Pending() != 2 {
		t.Fatalf("pending = %d, want 2", e.Pending())
	}
	e.Run()
	if len(fired) != 5 {
		t.Fatalf("fired = %v", fired)
	}
}

func TestRunUntilAdvancesIdleClock(t *testing.T) {
	var e Engine
	e.RunUntil(10)
	if e.Now() != 10 {
		t.Fatalf("Now = %v, want 10", e.Now())
	}
}

func TestRunMaxBoundsSelfPerpetuating(t *testing.T) {
	var e Engine
	var tick func()
	count := 0
	tick = func() {
		count++
		e.Schedule(1, tick)
	}
	e.Schedule(0, tick)
	if ran := e.RunMax(100); ran != 100 {
		t.Fatalf("RunMax ran %d, want 100", ran)
	}
	if count != 100 {
		t.Fatalf("count = %d", count)
	}
	if e.Pending() == 0 {
		t.Fatal("self-perpetuating schedule should still be pending")
	}
}

func TestProcessedCounter(t *testing.T) {
	var e Engine
	for i := 0; i < 7; i++ {
		e.Schedule(float64(i), func() {})
	}
	e.Run()
	if e.Processed() != 7 {
		t.Fatalf("processed = %d, want 7", e.Processed())
	}
}

func TestQuickEventsFireInTimeOrder(t *testing.T) {
	f := func(seed uint64, nRaw uint8) bool {
		n := int(nRaw%50) + 1
		src := rng.New(seed)
		var e Engine
		var fired []float64
		for i := 0; i < n; i++ {
			d := src.Float64() * 100
			e.Schedule(d, func() { fired = append(fired, e.Now()) })
		}
		e.Run()
		if len(fired) != n {
			return false
		}
		for i := 1; i < len(fired); i++ {
			if fired[i] < fired[i-1] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// TestStopEndsRun: a callback that stops the engine ends the drive loop
// once it returns — pending events are discarded and events it schedules
// afterwards never fire.
func TestStopEndsRun(t *testing.T) {
	var e Engine
	var fired []float64
	e.Schedule(1, func() {
		fired = append(fired, e.Now())
		e.Stop()
		e.Schedule(0.5, func() { fired = append(fired, e.Now()) })
	})
	e.Schedule(2, func() { fired = append(fired, e.Now()) })
	if n := e.RunUntil(10); n != 1 {
		t.Fatalf("RunUntil ran %d events, want 1", n)
	}
	if len(fired) != 1 || fired[0] != 1 {
		t.Fatalf("fired at %v, want [1]", fired)
	}
	if e.Pending() != 0 {
		t.Fatalf("%d events pending after Stop", e.Pending())
	}
}

// TestRandomInterleavingMatchesReferenceOrder schedules events from
// inside callbacks and between Steps, drawing timestamps from a handful
// of values so most of them tie, and checks that they fire exactly in
// (time, seq) order — the order a stable sort of the scheduling log by
// time gives.
func TestRandomInterleavingMatchesReferenceOrder(t *testing.T) {
	for seed := uint64(1); seed <= 20; seed++ {
		src := rng.New(seed)
		var e Engine
		type sched struct {
			time float64
			id   int
		}
		var log []sched
		var fired []int
		var schedule func(from float64)
		schedule = func(from float64) {
			id := len(log)
			at := from + float64(src.Intn(4))
			log = append(log, sched{at, id})
			e.ScheduleAt(at, func() {
				fired = append(fired, id)
				for k := src.Intn(3); k > 0 && len(log) < 400; k-- {
					schedule(e.Now())
				}
			})
		}
		for i := 0; i < 50; i++ {
			schedule(e.Now())
			if src.Intn(3) == 0 {
				e.Step()
			}
		}
		e.Run()
		if len(fired) != len(log) {
			t.Fatalf("seed %d: %d events fired, %d scheduled", seed, len(fired), len(log))
		}
		// The log is in scheduling (seq) order, so a stable sort on time
		// yields the reference (time, seq) order.
		want := append([]sched(nil), log...)
		sort.SliceStable(want, func(i, j int) bool { return want[i].time < want[j].time })
		for i := range want {
			if fired[i] != want[i].id {
				t.Fatalf("seed %d: event %d fired %d, want %d (time %g)", seed, i, fired[i], want[i].id, want[i].time)
			}
		}
	}
}

// TestScheduleStepAllocationFree pins the value heap: once the queue has
// grown, scheduling a pre-bound callback and stepping it allocate nothing.
func TestScheduleStepAllocationFree(t *testing.T) {
	var e Engine
	fn := func() {}
	for i := 0; i < 64; i++ {
		e.Schedule(float64(i%7), fn)
	}
	allocs := testing.AllocsPerRun(200, func() {
		e.Schedule(3, fn)
		e.Schedule(0, fn)
		e.Step()
		e.Step()
	})
	if allocs != 0 {
		t.Errorf("schedule+step allocates %.1f times per run, want 0", allocs)
	}
}
