package geo

import (
	"math"
	"testing"
	"testing/quick"

	"dmra/internal/rng"
)

func TestDistance(t *testing.T) {
	tests := []struct {
		name string
		p, q Point
		want float64
	}{
		{"same point", Point{1, 2}, Point{1, 2}, 0},
		{"unit x", Point{0, 0}, Point{1, 0}, 1},
		{"unit y", Point{0, 0}, Point{0, 1}, 1},
		{"3-4-5", Point{0, 0}, Point{3, 4}, 5},
		{"negative coords", Point{-3, -4}, Point{0, 0}, 5},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := tt.p.DistanceTo(tt.q); math.Abs(got-tt.want) > 1e-12 {
				t.Errorf("DistanceTo = %v, want %v", got, tt.want)
			}
		})
	}
}

func TestDistanceSymmetric(t *testing.T) {
	f := func(ax, ay, bx, by float64) bool {
		if anyNaNInf(ax, ay, bx, by) {
			return true
		}
		p, q := Point{ax, ay}, Point{bx, by}
		return p.DistanceTo(q) == q.DistanceTo(p)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestNewArea(t *testing.T) {
	a := mustArea(t, 1200, 800)
	if a.Width() != 1200 || a.Height() != 800 {
		t.Fatalf("area = %gx%g, want 1200x800", a.Width(), a.Height())
	}
	if c := a.Center(); c.X != 600 || c.Y != 400 {
		t.Fatalf("center = %v", c)
	}
	if want := math.Sqrt(1200*1200 + 800*800); math.Abs(a.Diagonal()-want) > 1e-9 {
		t.Fatalf("diagonal = %v, want %v", a.Diagonal(), want)
	}
}

// mustArea returns NewArea(width, height), failing t on an error.
func mustArea(t testing.TB, width, height float64) Rect {
	t.Helper()
	a, err := NewArea(width, height)
	if err != nil {
		t.Fatal(err)
	}
	return a
}

// TestNewAreaRejectsNonPositive: a dimension that is not positive and
// finite is an error, not a panic or a NaN-sized area.
func TestNewAreaRejectsNonPositive(t *testing.T) {
	for _, d := range [][2]float64{{0, 1}, {1, -5}, {math.NaN(), 1}, {1, math.Inf(1)}, {math.Inf(-1), 1}} {
		if a, err := NewArea(d[0], d[1]); err == nil {
			t.Errorf("NewArea(%g, %g) = %+v, want an error", d[0], d[1], a)
		}
	}
}

func TestContains(t *testing.T) {
	a := mustArea(t, 10, 10)
	tests := []struct {
		p    Point
		want bool
	}{
		{Point{5, 5}, true},
		{Point{0, 0}, true},
		{Point{10, 10}, true},
		{Point{-0.01, 5}, false},
		{Point{5, 10.01}, false},
	}
	for _, tt := range tests {
		if got := a.Contains(tt.p); got != tt.want {
			t.Errorf("Contains(%v) = %v, want %v", tt.p, got, tt.want)
		}
	}
}

func TestRandomPointsInside(t *testing.T) {
	a := mustArea(t, 1200, 1200)
	src := rng.New(1)
	for _, p := range a.RandomPoints(src, 1000) {
		if !a.Contains(p) {
			t.Fatalf("random point %v outside area", p)
		}
	}
}

func TestRandomPointsCoverQuadrants(t *testing.T) {
	a := mustArea(t, 100, 100)
	src := rng.New(2)
	var q [4]int
	for _, p := range a.RandomPoints(src, 400) {
		idx := 0
		if p.X > 50 {
			idx++
		}
		if p.Y > 50 {
			idx += 2
		}
		q[idx]++
	}
	for i, c := range q {
		if c == 0 {
			t.Errorf("quadrant %d never hit", i)
		}
	}
}

func TestGridPlacementCount(t *testing.T) {
	a := mustArea(t, 1200, 1200)
	for _, n := range []int{0, 1, 4, 5, 9, 25, 26} {
		pts, err := GridPlacement(a, n, 300)
		if err != nil {
			t.Fatal(err)
		}
		if len(pts) != n {
			t.Errorf("GridPlacement(n=%d) returned %d points", n, len(pts))
		}
	}
}

func TestGridPlacementSpacing(t *testing.T) {
	a := mustArea(t, 1200, 1200)
	pts, err := GridPlacement(a, 25, 300)
	if err != nil {
		t.Fatal(err)
	}
	if got := MinPairwiseDistance(pts); math.Abs(got-300) > 1e-9 {
		t.Fatalf("min pairwise distance = %v, want 300", got)
	}
}

func TestGridPlacementCentred(t *testing.T) {
	a := mustArea(t, 1200, 1200)
	pts, err := GridPlacement(a, 25, 300)
	if err != nil {
		t.Fatal(err)
	}
	var cx, cy float64
	for _, p := range pts {
		cx += p.X
		cy += p.Y
	}
	cx /= float64(len(pts))
	cy /= float64(len(pts))
	if math.Abs(cx-600) > 1e-9 || math.Abs(cy-600) > 1e-9 {
		t.Fatalf("grid centroid = (%v,%v), want (600,600)", cx, cy)
	}
	// A 5x5 grid at 300 m spacing spans 1200 m and fits in the area.
	for _, p := range pts {
		if !a.Contains(p) {
			t.Fatalf("grid point %v outside area", p)
		}
	}
}

// TestGridPlacementRejectsBadSpacing: an inter-site distance that is not
// positive and finite is an error, not a panic or NaN positions.
func TestGridPlacementRejectsBadSpacing(t *testing.T) {
	a := mustArea(t, 10, 10)
	for _, d := range []float64{0, -300, math.NaN(), math.Inf(1)} {
		if pts, err := GridPlacement(a, 4, d); err == nil {
			t.Errorf("GridPlacement with spacing %g = %v, want an error", d, pts)
		}
	}
}

func TestRandomPlacementDeterministic(t *testing.T) {
	a := mustArea(t, 1200, 1200)
	p1 := RandomPlacement(a, 25, rng.New(99))
	p2 := RandomPlacement(a, 25, rng.New(99))
	for i := range p1 {
		if p1[i] != p2[i] {
			t.Fatalf("placement not deterministic at %d: %v vs %v", i, p1[i], p2[i])
		}
	}
}

func TestMinPairwiseDistanceEdgeCases(t *testing.T) {
	if !math.IsInf(MinPairwiseDistance(nil), 1) {
		t.Error("empty slice should give +Inf")
	}
	if !math.IsInf(MinPairwiseDistance([]Point{{1, 1}}), 1) {
		t.Error("single point should give +Inf")
	}
	if got := MinPairwiseDistance([]Point{{0, 0}, {3, 4}, {100, 100}}); got != 5 {
		t.Errorf("MinPairwiseDistance = %v, want 5", got)
	}
}

func anyNaNInf(vs ...float64) bool {
	for _, v := range vs {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return true
		}
	}
	return false
}

func TestHexPlacementCount(t *testing.T) {
	a := mustArea(t, 1200, 1200)
	for _, n := range []int{0, 1, 7, 25} {
		pts, err := HexPlacement(a, n, 300)
		if err != nil {
			t.Fatal(err)
		}
		if got := len(pts); got != n {
			t.Errorf("HexPlacement(n=%d) returned %d points", n, got)
		}
	}
}

func TestHexPlacementSpacing(t *testing.T) {
	// Every pair on a hex lattice is at least interSite apart, and nearest
	// neighbours are exactly interSite apart.
	a := mustArea(t, 1200, 1200)
	pts, err := HexPlacement(a, 25, 300)
	if err != nil {
		t.Fatal(err)
	}
	if d := MinPairwiseDistance(pts); math.Abs(d-300) > 1e-9 {
		t.Fatalf("hex min spacing = %v, want 300", d)
	}
}

func TestHexPlacementRowsOffset(t *testing.T) {
	a := mustArea(t, 1200, 1200)
	pts, err := HexPlacement(a, 25, 300)
	if err != nil {
		t.Fatal(err)
	}
	// Rows 0 and 1 differ in X by half a site.
	dx := math.Abs(pts[5].X - pts[0].X)
	if math.Abs(dx-150) > 1e-9 {
		t.Fatalf("row offset = %v, want 150", dx)
	}
	dy := pts[5].Y - pts[0].Y
	if math.Abs(dy-300*math.Sqrt(3)/2) > 1e-9 {
		t.Fatalf("row gap = %v, want %v", dy, 300*math.Sqrt(3)/2)
	}
}

// TestHexPlacementRejectsBadSpacing: an inter-site distance that is not
// positive and finite is an error, not a panic or NaN positions.
func TestHexPlacementRejectsBadSpacing(t *testing.T) {
	a := mustArea(t, 10, 10)
	for _, d := range []float64{0, -300, math.NaN(), math.Inf(1)} {
		if pts, err := HexPlacement(a, 4, d); err == nil {
			t.Errorf("HexPlacement with spacing %g = %v, want an error", d, pts)
		}
	}
}
