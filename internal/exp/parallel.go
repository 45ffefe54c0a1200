package exp

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"dmra/internal/metrics"
	"dmra/internal/obs"
)

// ForEach runs fn(i) for every i in [0, n) across at most parallelism
// goroutines. parallelism <= 0 means runtime.GOMAXPROCS(0); parallelism 1
// runs inline with no goroutines (the sequential path).
//
// Determinism contract: tasks write only to their own pre-indexed result
// slot, so callers observe the same data regardless of scheduling. When
// several tasks fail, the error of the lowest task index is returned —
// the same error the sequential path would surface first — so the error
// behavior is schedule-independent too. The parallel path keeps draining
// the remaining tasks after a failure (tasks are independent by
// contract); the sequential path stops at the first failure, which by
// construction is also the lowest-index one.
func ForEach(parallelism, n int, fn func(i int) error) error {
	return ForEachObserved(parallelism, n, nil, fn)
}

// ForEachObserved is ForEach with per-task telemetry: when rec is non-nil,
// every task's wall time lands in the exp_task_seconds histogram and
// accumulates into its worker's exp_worker_busy_seconds gauge, exposing
// grid utilization and task-latency spread. A nil recorder adds no timing
// work, so ForEach pays nothing for the hook. Telemetry never changes
// which slot a task writes or which error is returned.
func ForEachObserved(parallelism, n int, rec *obs.Recorder, fn func(i int) error) error {
	if n <= 0 {
		return nil
	}
	if parallelism <= 0 {
		parallelism = runtime.GOMAXPROCS(0)
	}
	if parallelism > n {
		parallelism = n
	}
	run := func(worker, i int) error { return fn(i) }
	if rec != nil {
		run = func(worker, i int) error {
			start := time.Now()
			err := fn(i)
			rec.TaskDone(worker, time.Since(start).Seconds())
			return err
		}
	}
	if parallelism == 1 {
		for i := 0; i < n; i++ {
			if err := run(0, i); err != nil {
				return err
			}
		}
		return nil
	}

	errs := make([]error, n)
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < parallelism; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				errs[i] = run(w, i)
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// Replicate is the replication grid behind every experiment table: it
// runs fn once for each (row, seed) cell across parallelism workers (see
// ForEachObserved) and returns, per row, the metrics.Summarize of each of
// fn's cols values over the seeds, in seed order. Every cell keeps its
// own pre-indexed slot, so the summaries are bit-identical at any
// parallelism, and the error returned is the lowest-index cell's. A cell
// whose result does not hold exactly cols values is an error.
func Replicate(parallelism, rows, seeds, cols int, rec *obs.Recorder, fn func(row, seed int) ([]float64, error)) ([][]metrics.Summary, error) {
	if seeds < 1 {
		return nil, fmt.Errorf("exp: %d seeds, want at least 1", seeds)
	}
	cells := make([][]float64, rows*seeds)
	err := ForEachObserved(parallelism, len(cells), rec, func(i int) error {
		row, seed := i/seeds, i%seeds
		v, err := fn(row, seed)
		if err != nil {
			return err
		}
		if len(v) != cols {
			return fmt.Errorf("exp: row %d seed %d gave %d values, want %d", row, seed, len(v), cols)
		}
		cells[i] = v
		return nil
	})
	if err != nil {
		return nil, err
	}
	out := make([][]metrics.Summary, rows)
	column := make([]float64, seeds)
	for row := range out {
		out[row] = make([]metrics.Summary, cols)
		for c := range out[row] {
			for seed := range column {
				column[seed] = cells[row*seeds+seed][c]
			}
			out[row][c] = metrics.Summarize(column)
		}
	}
	return out, nil
}
