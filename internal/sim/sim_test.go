package sim

import (
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
