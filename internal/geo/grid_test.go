package geo

import (
	"math"
	"slices"
	"testing"
	"time"

	"dmra/internal/rng"
)

// bruteNear is the reference: every index whose point lies within radius.
func bruteNear(pts []Point, p Point, radius float64) []int32 {
	var out []int32
	for i, q := range pts {
		if p.DistanceTo(q) <= radius {
			out = append(out, int32(i))
		}
	}
	return out
}

// TestGridIndexNearCoversBruteForce checks the index contract on random
// point sets: Near returns a duplicate-free superset of the in-radius
// points, so a caller that filters by exact distance and sorts the
// survivors reproduces the brute-force scan.
func TestGridIndexNearCoversBruteForce(t *testing.T) {
	src := rng.New(7).SplitLabeled("grid-test")
	area := NewArea(1200, 900)
	for _, n := range []int{0, 1, 5, 40, 300} {
		pts := area.RandomPoints(src, n)
		for _, cell := range []float64{50, 200, 450, 5000} {
			g := mustGrid(t, pts, cell)
			queries := append(area.RandomPoints(src, 20),
				Point{X: -500, Y: -500}, // far outside the bounding box
				Point{X: 3000, Y: 200},  // outside on one axis
				Point{X: 600, Y: 450},   // interior
			)
			for _, q := range queries {
				for _, radius := range []float64{0, 30, 150, 450, 2500} {
					got := g.Near(q, radius, nil)
					seen := make(map[int32]bool, len(got))
					for _, i := range got {
						if seen[i] {
							t.Fatalf("n=%d cell=%g: duplicate index %d", n, cell, i)
						}
						seen[i] = true
					}
					for _, want := range bruteNear(pts, q, radius) {
						if !seen[want] {
							t.Fatalf("n=%d cell=%g q=%v r=%g: index %d within radius but missing from Near",
								n, cell, q, radius, want)
						}
					}
				}
			}
		}
	}
}

// TestGridIndexNearAppends checks that Near appends to the caller's slice
// (the scratch-reuse contract link building relies on).
func TestGridIndexNearAppends(t *testing.T) {
	pts := []Point{{X: 1, Y: 1}, {X: 2, Y: 2}}
	g := mustGrid(t, pts, 10)
	dst := make([]int32, 0, 8)
	dst = append(dst, 99)
	dst = g.Near(Point{X: 1, Y: 1}, 5, dst)
	if dst[0] != 99 {
		t.Fatalf("Near clobbered existing prefix: %v", dst)
	}
	if len(dst) != 3 {
		t.Fatalf("Near appended %d entries, want 2 (got %v)", len(dst)-1, dst)
	}
}

// TestGridIndexSparseHugeExtent checks the cell-table bound: two points a
// continent apart must not allocate a huge grid.
func TestGridIndexSparseHugeExtent(t *testing.T) {
	pts := []Point{{X: 0, Y: 0}, {X: 1e7, Y: 1e7}}
	g := mustGrid(t, pts, 1)
	if got := len(g.cells); got > 4*len(pts)+64 {
		t.Fatalf("grid allocated %d cells for 2 points", got)
	}
	got := g.Near(Point{X: 1e7, Y: 1e7}, 10, nil)
	if !slices.Contains(got, int32(1)) {
		t.Fatalf("Near missed the far point: %v", got)
	}
}

// TestGridIndexExtremeRatioNoOverflow is the regression for the
// cell-coarsening loop's overflow: an extent/cell-size ratio large enough
// that cols*rows overflowed int used to break the loop with a huge (or
// negative) cell table — a panic in make or an unbounded allocation. The
// float-compared bound must instead keep coarsening until the table fits,
// and queries must stay exact.
func TestGridIndexExtremeRatioNoOverflow(t *testing.T) {
	pts := []Point{{X: 0, Y: 0}, {X: 1e9, Y: 1e9}}
	g := mustGrid(t, pts, 1e-9) // raw table would be ~1e18 x 1e18 cells
	if got, bound := len(g.cells), 4*len(pts)+64; got > bound {
		t.Fatalf("grid allocated %d cells, bound %d", got, bound)
	}
	if g.cols < 1 || g.rows < 1 {
		t.Fatalf("degenerate grid %dx%d", g.cols, g.rows)
	}
	for i, p := range pts {
		got := g.Near(p, 1, nil)
		if !slices.Contains(got, int32(i)) {
			t.Fatalf("Near missed point %d after coarsening: %v", i, got)
		}
	}
}

// TestGridIndexOccupancyBounds pins the cell sizing on the layout the
// million-UE scenario uses: a regular BS lattice (300 m spacing) indexed
// at the 450 m coverage radius. Per-cell occupancy and the number of
// points a coverage-radius query visits must both be O(1) — independent
// of the lattice size — or the link build degenerates toward the
// all-pairs scan the grid exists to avoid.
func TestGridIndexOccupancyBounds(t *testing.T) {
	const spacing, coverage = 300.0, 450.0
	for _, edge := range []int{5, 50, 155} { // 155² ≈ the 24k-BS 1M rung
		var pts []Point
		for r := 0; r < edge; r++ {
			for c := 0; c < edge; c++ {
				pts = append(pts, Point{X: float64(c) * spacing, Y: float64(r) * spacing})
			}
		}
		g := mustGrid(t, pts, coverage)
		if len(g.cells) > 4*len(pts)+64 {
			t.Fatalf("edge %d: %d cells for %d points", edge, len(g.cells), len(pts))
		}
		// A 450 m cell over a 300 m lattice holds at most ceil(450/300)²=4
		// points; coarsening (which only fires when the table bound bites,
		// never on a dense lattice) would show up here as a blowup.
		maxBucket := 0
		for _, cell := range g.cells {
			maxBucket = max(maxBucket, len(cell))
		}
		if maxBucket > 4 {
			t.Fatalf("edge %d: densest cell holds %d points, want <= 4", edge, maxBucket)
		}
		// A coverage-radius query overlaps at most a 3×3 cell window.
		got := g.Near(Point{X: spacing * float64(edge) / 2, Y: spacing * float64(edge) / 2}, coverage, nil)
		if len(got) > 9*4 {
			t.Fatalf("edge %d: coverage query visited %d points, want <= 36", edge, len(got))
		}
	}
}

// TestNewGridIndexRejectsNonFinite is the regression for non-finite
// input: a NaN extent never met the cell-table bound, so the coarsening
// loop spun forever, and a NaN cell size panicked. Each case must return
// an error, and promptly.
func TestNewGridIndexRejectsNonFinite(t *testing.T) {
	nan, inf := math.NaN(), math.Inf(1)
	cases := []struct {
		name string
		pts  []Point
		cell float64
	}{
		{"nan-x", []Point{{X: 0, Y: 0}, {X: nan, Y: 5}}, 450},
		{"inf-y", []Point{{X: 0, Y: -inf}, {X: 3, Y: 5}}, 450},
		{"extent-overflow", []Point{{X: -math.MaxFloat64, Y: 0}, {X: math.MaxFloat64, Y: 0}}, 450},
		{"nan-cell", []Point{{X: 0, Y: 0}}, nan},
		{"inf-cell", []Point{{X: 0, Y: 0}}, inf},
		{"zero-cell", []Point{{X: 0, Y: 0}}, 0},
		{"negative-cell", nil, -1},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			done := make(chan error, 1)
			go func() {
				_, err := NewGridIndex(tc.pts, tc.cell)
				done <- err
			}()
			select {
			case err := <-done:
				if err == nil {
					t.Fatal("NewGridIndex accepted the input")
				}
			case <-time.After(5 * time.Second):
				t.Fatal("NewGridIndex did not return within 5 s")
			}
		})
	}
	if _, err := Partition([]Point{{X: nan, Y: 0}, {X: 1, Y: 1}}, 2); err == nil {
		t.Fatal("Partition accepted a NaN point")
	}
	if _, err := Partition([]Point{{X: 0, Y: 0}}, 0); err == nil {
		t.Fatal("Partition accepted k = 0")
	}
}

func mustGrid(t *testing.T, pts []Point, cell float64) *GridIndex {
	t.Helper()
	g, err := NewGridIndex(pts, cell)
	if err != nil {
		t.Fatalf("NewGridIndex(%d points, %g): %v", len(pts), cell, err)
	}
	return g
}
