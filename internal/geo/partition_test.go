package geo

import (
	"testing"

	"dmra/internal/rng"
)

func TestPartitionBalancedAndComplete(t *testing.T) {
	src := rng.New(11).SplitLabeled("partition-test")
	area := NewArea(1200, 1200)
	for _, n := range []int{1, 2, 9, 25, 240} {
		pts := area.RandomPoints(src, n)
		for _, k := range []int{1, 2, 3, 4, 7} {
			got := mustPartition(t, pts, k)
			if len(got) != n {
				t.Fatalf("n=%d k=%d: %d assignments", n, k, len(got))
			}
			want := k
			if want > n {
				want = n
			}
			counts := make([]int, want)
			for i, r := range got {
				if r < 0 || r >= want {
					t.Fatalf("n=%d k=%d: point %d in region %d, want [0,%d)", n, k, i, r, want)
				}
				counts[r]++
			}
			lo, hi := n, 0
			for r, c := range counts {
				if c == 0 {
					t.Fatalf("n=%d k=%d: region %d empty", n, k, r)
				}
				if c < lo {
					lo = c
				}
				if c > hi {
					hi = c
				}
			}
			if hi-lo > 1 {
				t.Fatalf("n=%d k=%d: region sizes range %d..%d, want near-equal", n, k, lo, hi)
			}
		}
	}
}

func TestPartitionDeterministic(t *testing.T) {
	src := rng.New(5).SplitLabeled("partition-det")
	pts := NewArea(900, 600).RandomPoints(src, 120)
	a := mustPartition(t, pts, 4)
	b := mustPartition(t, pts, 4)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("point %d: region %d then %d across identical calls", i, a[i], b[i])
		}
	}
}

// TestPartitionCoincidentPoints: a degenerate all-identical point set has
// zero extent; the partition must still return balanced regions instead of
// dividing by zero.
func TestPartitionCoincidentPoints(t *testing.T) {
	pts := make([]Point, 10)
	for i := range pts {
		pts[i] = Point{X: 3, Y: 4}
	}
	got := mustPartition(t, pts, 3)
	counts := make([]int, 3)
	for _, r := range got {
		counts[r]++
	}
	for r, c := range counts {
		if c == 0 {
			t.Fatalf("region %d empty for coincident points: %v", r, got)
		}
	}
}

// TestPartitionIsGeographic checks the regions are spatial, not arbitrary:
// on a regular lattice cut into two regions, the mean Y of the two regions
// must differ by at least one row (row-major cell walk makes regions
// horizontal bands).
func TestPartitionIsGeographic(t *testing.T) {
	var pts []Point
	for r := 0; r < 10; r++ {
		for c := 0; c < 10; c++ {
			pts = append(pts, Point{X: float64(c) * 100, Y: float64(r) * 100})
		}
	}
	got := mustPartition(t, pts, 2)
	var sum [2]float64
	var cnt [2]int
	for i, reg := range got {
		sum[reg] += pts[i].Y
		cnt[reg]++
	}
	mean0, mean1 := sum[0]/float64(cnt[0]), sum[1]/float64(cnt[1])
	if diff := mean1 - mean0; diff < 100 && -diff < 100 {
		t.Fatalf("region mean Y %.0f vs %.0f: partition does not separate space", mean0, mean1)
	}
}

func mustPartition(t *testing.T, pts []Point, k int) []int {
	t.Helper()
	region, err := Partition(pts, k)
	if err != nil {
		t.Fatalf("Partition(%d points, %d): %v", len(pts), k, err)
	}
	return region
}
