// Package geo provides the 2-D geometry used by the MEC simulation:
// points, distances, rectangular deployment areas, and the two base-station
// placement strategies evaluated in the paper (regular grid with fixed
// inter-site distance, and uniform random placement).
package geo

import (
	"fmt"
	"math"

	"dmra/internal/rng"
)

// Point is a position in metres within the deployment area.
type Point struct {
	X float64 `json:"x"`
	Y float64 `json:"y"`
}

// DistanceTo returns the Euclidean distance in metres between p and q.
func (p Point) DistanceTo(q Point) float64 {
	dx, dy := p.X-q.X, p.Y-q.Y
	return math.Sqrt(dx*dx + dy*dy)
}

// String renders the point as "(x, y)" with centimetre precision.
func (p Point) String() string {
	return fmt.Sprintf("(%.2f, %.2f)", p.X, p.Y)
}

// Rect is an axis-aligned rectangle. Min is the lower-left corner and Max
// the upper-right corner.
type Rect struct {
	Min Point `json:"min"`
	Max Point `json:"max"`
}

// NewArea returns the rectangle [0,width] x [0,height], or an error when a
// dimension is not positive and finite.
func NewArea(width, height float64) (Rect, error) {
	if !positiveFinite(width) || !positiveFinite(height) {
		return Rect{}, fmt.Errorf("geo: area %gx%g, want positive finite dimensions", width, height)
	}
	return Rect{Max: Point{X: width, Y: height}}, nil
}

// positiveFinite reports whether x is a positive, finite number.
func positiveFinite(x float64) bool {
	return x > 0 && !math.IsInf(x, 1)
}

// Width returns the horizontal extent of r.
func (r Rect) Width() float64 { return r.Max.X - r.Min.X }

// Height returns the vertical extent of r.
func (r Rect) Height() float64 { return r.Max.Y - r.Min.Y }

// Contains reports whether p lies inside r (inclusive of the boundary).
func (r Rect) Contains(p Point) bool {
	return p.X >= r.Min.X && p.X <= r.Max.X && p.Y >= r.Min.Y && p.Y <= r.Max.Y
}

// Center returns the midpoint of r.
func (r Rect) Center() Point {
	return Point{X: (r.Min.X + r.Max.X) / 2, Y: (r.Min.Y + r.Max.Y) / 2}
}

// Diagonal returns the length of r's diagonal, the maximum distance between
// two points of the area. Useful as an upper bound on UE-BS distance.
func (r Rect) Diagonal() float64 {
	return r.Min.DistanceTo(r.Max)
}

// RandomPoint returns a uniformly distributed point inside r.
func (r Rect) RandomPoint(src *rng.Source) Point {
	return Point{
		X: src.FloatBetween(r.Min.X, r.Max.X),
		Y: src.FloatBetween(r.Min.Y, r.Max.Y),
	}
}

// RandomPoints returns n independent uniform points inside r.
func (r Rect) RandomPoints(src *rng.Source, n int) []Point {
	pts := make([]Point, n)
	for i := range pts {
		pts[i] = r.RandomPoint(src)
	}
	return pts
}

// GridPlacement places n points on a regular square lattice with the given
// inter-site distance, centred inside area. This models the paper's
// "regular" BS placement with a 300 m inter-site distance. Points are
// emitted row-major; if the lattice implied by n (the smallest square
// lattice with at least n sites) does not fit inside the area, the lattice
// is still centred and outer points may fall outside — callers that require
// containment should size the area accordingly. For n > 0, an inter-site
// distance that is not positive and finite is an error.
func GridPlacement(area Rect, n int, interSite float64) ([]Point, error) {
	if n <= 0 {
		return nil, nil
	}
	if !positiveFinite(interSite) {
		return nil, fmt.Errorf("geo: inter-site distance %g, want positive and finite", interSite)
	}
	cols := int(math.Ceil(math.Sqrt(float64(n))))
	rows := (n + cols - 1) / cols
	gridW := float64(cols-1) * interSite
	gridH := float64(rows-1) * interSite
	origin := Point{
		X: area.Center().X - gridW/2,
		Y: area.Center().Y - gridH/2,
	}
	pts := make([]Point, 0, n)
	for r := 0; r < rows && len(pts) < n; r++ {
		for c := 0; c < cols && len(pts) < n; c++ {
			pts = append(pts, Point{
				X: origin.X + float64(c)*interSite,
				Y: origin.Y + float64(r)*interSite,
			})
		}
	}
	return pts, nil
}

// RandomPlacement places n points uniformly at random inside area. This
// models the paper's "random" BS placement within the 1200 m x 1200 m
// rectangle.
func RandomPlacement(area Rect, n int, src *rng.Source) []Point {
	return area.RandomPoints(src, n)
}

// HexPlacement places n points on a hexagonal (triangular) lattice with
// the given inter-site distance, centred inside area: rows are
// interSite*sqrt(3)/2 apart and odd rows are offset by half a site. This
// is the canonical cellular deployment pattern; it is an extension beyond
// the paper's two placements. For n > 0, an inter-site distance that is
// not positive and finite is an error.
func HexPlacement(area Rect, n int, interSite float64) ([]Point, error) {
	if n <= 0 {
		return nil, nil
	}
	if !positiveFinite(interSite) {
		return nil, fmt.Errorf("geo: inter-site distance %g, want positive and finite", interSite)
	}
	cols := int(math.Ceil(math.Sqrt(float64(n))))
	rows := (n + cols - 1) / cols
	rowGap := interSite * math.Sqrt(3) / 2
	gridW := float64(cols-1)*interSite + interSite/2 // odd-row offset widens the hull
	gridH := float64(rows-1) * rowGap
	origin := Point{
		X: area.Center().X - gridW/2,
		Y: area.Center().Y - gridH/2,
	}
	pts := make([]Point, 0, n)
	for r := 0; r < rows && len(pts) < n; r++ {
		offset := 0.0
		if r%2 == 1 {
			offset = interSite / 2
		}
		for c := 0; c < cols && len(pts) < n; c++ {
			pts = append(pts, Point{
				X: origin.X + float64(c)*interSite + offset,
				Y: origin.Y + float64(r)*rowGap,
			})
		}
	}
	return pts, nil
}

// MinPairwiseDistance returns the smallest distance between any two of the
// given points, or +Inf for fewer than two points. The experiment harness
// uses it to sanity-check placements.
func MinPairwiseDistance(pts []Point) float64 {
	min := math.Inf(1)
	for i := 0; i < len(pts); i++ {
		for j := i + 1; j < len(pts); j++ {
			if d := pts[i].DistanceTo(pts[j]); d < min {
				min = d
			}
		}
	}
	return min
}
