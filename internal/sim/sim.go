// Package sim is a deterministic discrete-event simulation engine: a
// virtual clock and a priority queue of timestamped callbacks. Events at
// equal timestamps fire in scheduling order, so a run is a pure function
// of the scheduling sequence — the property the protocol-parity tests in
// internal/protocol rely on.
package sim

import "fmt"

// Engine is a single-threaded discrete-event scheduler. The zero value is
// ready to use. Engines are not safe for concurrent use; the simulated
// concurrency of the actors comes from event interleaving, not goroutines.
type Engine struct {
	now       float64
	seq       uint64
	queue     []event
	processed int
	stopped   bool
}

// event is one scheduled callback. The queue holds events by value, so
// scheduling allocates nothing once the queue's backing array has grown.
type event struct {
	time float64
	seq  uint64
	fn   func()
}

// Now returns the current virtual time in seconds.
func (e *Engine) Now() float64 { return e.now }

// Processed returns the number of events executed so far.
func (e *Engine) Processed() int { return e.processed }

// Pending returns the number of events waiting to fire.
func (e *Engine) Pending() int { return len(e.queue) }

// Schedule enqueues fn to run delay seconds from now. It panics on
// negative delays — scheduling into the past is always a bug.
func (e *Engine) Schedule(delay float64, fn func()) {
	if delay < 0 {
		panic(fmt.Sprintf("sim: negative delay %g", delay))
	}
	e.ScheduleAt(e.now+delay, fn)
}

// ScheduleAt enqueues fn to run at absolute time t, which must not precede
// the current time. After Stop it does nothing.
func (e *Engine) ScheduleAt(t float64, fn func()) {
	if t < e.now {
		panic(fmt.Sprintf("sim: schedule at %g before now %g", t, e.now))
	}
	if e.stopped {
		return
	}
	e.seq++
	e.push(event{time: t, seq: e.seq, fn: fn})
}

// Stop ends the simulation: pending events are discarded and later
// Schedule calls are ignored, so the running Run, RunUntil or RunMax
// returns as soon as the current callback does.
func (e *Engine) Stop() {
	e.stopped = true
	e.queue = nil
}

// Step executes the next event, if any, and reports whether one ran.
func (e *Engine) Step() bool {
	if len(e.queue) == 0 {
		return false
	}
	ev := e.pop()
	e.now = ev.time
	e.processed++
	ev.fn()
	return true
}

// Run executes events until the queue drains and returns the number of
// events processed by this call. Callbacks may schedule further events;
// with self-perpetuating schedules use RunUntil or MaxEvents instead.
func (e *Engine) Run() int {
	start := e.processed
	for e.Step() {
	}
	return e.processed - start
}

// RunUntil executes events with time <= t and then advances the clock to
// t. It returns the number of events processed by this call.
func (e *Engine) RunUntil(t float64) int {
	start := e.processed
	for len(e.queue) > 0 && e.queue[0].time <= t {
		e.Step()
	}
	if t > e.now {
		e.now = t
	}
	return e.processed - start
}

// RunMax executes at most n events and returns how many ran. Use it as a
// watchdog around protocols that should quiesce.
func (e *Engine) RunMax(n int) int {
	ran := 0
	for ran < n && e.Step() {
		ran++
	}
	return ran
}

// The queue is a binary min-heap on (time, seq). Sequence numbers are
// unique, so the order is total and the pop order is fully determined by
// the keys, independent of the heap's internal layout.

// before reports whether a fires before b.
func before(a, b *event) bool {
	if a.time != b.time {
		return a.time < b.time
	}
	return a.seq < b.seq
}

// push inserts ev and sifts it up to its place.
func (e *Engine) push(ev event) {
	e.queue = append(e.queue, ev)
	q := e.queue
	i := len(q) - 1
	for i > 0 {
		p := (i - 1) / 2
		if !before(&ev, &q[p]) {
			break
		}
		q[i] = q[p]
		i = p
	}
	q[i] = ev
}

// pop removes and returns the earliest event; the queue must be non-empty.
func (e *Engine) pop() event {
	q := e.queue
	top := q[0]
	n := len(q) - 1
	last := q[n]
	q[n] = event{} // drop the callback reference for the GC
	q = q[:n]
	e.queue = q
	if n == 0 {
		return top
	}
	// Sift the former last element down from the root.
	i := 0
	for {
		c := 2*i + 1
		if c >= n {
			break
		}
		if r := c + 1; r < n && before(&q[r], &q[c]) {
			c = r
		}
		if !before(&q[c], &last) {
			break
		}
		q[i] = q[c]
		i = c
	}
	q[i] = last
	return top
}
