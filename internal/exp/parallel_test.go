package exp

import (
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"testing"

	"dmra/internal/metrics"
	"dmra/internal/workload"
)

func TestForEachCoversEveryIndexOnce(t *testing.T) {
	for _, p := range []int{0, 1, 2, 7, 100} {
		n := 23
		var mu sync.Mutex
		counts := make([]int, n)
		err := ForEach(p, n, func(i int) error {
			mu.Lock()
			counts[i]++
			mu.Unlock()
			return nil
		})
		if err != nil {
			t.Fatalf("parallelism %d: %v", p, err)
		}
		for i, c := range counts {
			if c != 1 {
				t.Errorf("parallelism %d: index %d ran %d times", p, i, c)
			}
		}
	}
}

func TestForEachEmpty(t *testing.T) {
	if err := ForEach(4, 0, func(int) error { return errors.New("must not run") }); err != nil {
		t.Fatal(err)
	}
	if err := ForEach(4, -3, func(int) error { return errors.New("must not run") }); err != nil {
		t.Fatal(err)
	}
}

func TestForEachSequentialStopsAtFirstError(t *testing.T) {
	boom := errors.New("boom")
	var ran []int
	err := ForEach(1, 10, func(i int) error {
		ran = append(ran, i)
		if i == 3 {
			return boom
		}
		return nil
	})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want boom", err)
	}
	if len(ran) != 4 {
		t.Errorf("sequential run did not stop at the error: ran %v", ran)
	}
}

func TestForEachParallelReturnsLowestIndexError(t *testing.T) {
	// Several tasks fail; the reported error must be the lowest-index one
	// regardless of goroutine scheduling, so error behavior is
	// deterministic.
	for trial := 0; trial < 10; trial++ {
		err := ForEach(4, 50, func(i int) error {
			if i >= 20 && i%7 == 0 {
				return fmt.Errorf("task %d failed", i)
			}
			return nil
		})
		if err == nil || err.Error() != "task 21 failed" {
			t.Fatalf("trial %d: err = %v, want task 21 failed", trial, err)
		}
	}
}

// runParallelisms executes run for each parallelism level and asserts the
// rendered outputs are byte-identical.
func runParallelisms(t *testing.T, run func(parallelism int) (string, error)) {
	t.Helper()
	levels := []int{1, 2, runtime.NumCPU()}
	var want string
	for li, p := range levels {
		got, err := run(p)
		if err != nil {
			t.Fatalf("parallelism %d: %v", p, err)
		}
		if li == 0 {
			want = got
			continue
		}
		if got != want {
			t.Errorf("parallelism %d output differs from sequential:\n--- sequential ---\n%s\n--- parallel ---\n%s", p, want, got)
		}
	}
}

func TestFigureRunParallelIsByteIdentical(t *testing.T) {
	f, err := FigureByID(2)
	if err != nil {
		t.Fatal(err)
	}
	f = shrink(f, []float64{400, 500})
	runParallelisms(t, func(p int) (string, error) {
		tab, err := f.Run(Options{Seeds: 4, Parallelism: p})
		if err != nil {
			return "", err
		}
		return tab.Text() + tab.CSV(), nil
	})
}

func TestProtocolCostsParallelIsByteIdentical(t *testing.T) {
	runParallelisms(t, func(p int) (string, error) {
		tab, err := RunProtocolCosts(Options{Seeds: 3, Parallelism: p}, []int{150, 300})
		if err != nil {
			return "", err
		}
		return tab.Text() + tab.CSV(), nil
	})
}

func TestAblationsParallelIsByteIdentical(t *testing.T) {
	small := workload.Default()
	small.UEs = 300
	runParallelisms(t, func(p int) (string, error) {
		tab, err := RunAblations(Options{Seeds: 2, Parallelism: p, Workload: &small})
		if err != nil {
			return "", err
		}
		return tab.Text() + tab.CSV(), nil
	})
}

// cellValue is a deterministic, non-trivial sample for Replicate tests.
func cellValue(row, seed, col int) float64 {
	return float64(row*100+col) + 1/float64(seed+3)
}

func TestReplicateSummaries(t *testing.T) {
	const rows, seeds, cols = 3, 5, 2
	fn := func(row, seed int) ([]float64, error) {
		return []float64{cellValue(row, seed, 0), cellValue(row, seed, 1)}, nil
	}
	want := make([][]metrics.Summary, rows)
	for r := range want {
		for c := 0; c < cols; c++ {
			var column []float64
			for s := 0; s < seeds; s++ {
				column = append(column, cellValue(r, s, c))
			}
			want[r] = append(want[r], metrics.Summarize(column))
		}
	}
	for _, p := range []int{1, 3} {
		got, err := Replicate(p, rows, seeds, cols, nil, fn)
		if err != nil {
			t.Fatalf("parallelism %d: %v", p, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("parallelism %d: summaries\n%v\nwant\n%v", p, got, want)
		}
	}
}

func TestReplicateReturnsLowestIndexError(t *testing.T) {
	for _, p := range []int{1, 4} {
		for trial := 0; trial < 5; trial++ {
			_, err := Replicate(p, 6, 4, 1, nil, func(row, seed int) ([]float64, error) {
				if row >= 2 && seed%2 == 1 {
					return nil, fmt.Errorf("cell %d/%d failed", row, seed)
				}
				return []float64{1}, nil
			})
			if err == nil || err.Error() != "cell 2/1 failed" {
				t.Fatalf("parallelism %d: err = %v, want cell 2/1 failed", p, err)
			}
		}
	}
}

func TestReplicateRejectsBadShapes(t *testing.T) {
	_, err := Replicate(2, 2, 3, 2, nil, func(row, seed int) ([]float64, error) {
		if row == 1 && seed == 2 {
			return []float64{1, 2, 3}, nil
		}
		return []float64{1, 2}, nil
	})
	if err == nil || !strings.Contains(err.Error(), "gave 3 values, want 2") {
		t.Errorf("wrong-length cell: err = %v", err)
	}
	for _, seeds := range []int{0, -1} {
		if _, err := Replicate(1, 1, seeds, 1, nil, func(int, int) ([]float64, error) {
			return []float64{1}, nil
		}); err == nil {
			t.Errorf("%d seeds accepted", seeds)
		}
	}
}
