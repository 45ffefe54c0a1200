package geo

import (
	"fmt"
	"math"
)

// Partition splits a point set into k contiguous geographic regions and
// returns the region id (0..k-1) of every point. It is how the
// multi-coordinator cluster assigns base stations to region coordinators:
// deterministic, balanced, and geographic, so the BSs a coordinator owns
// sit next to each other and most UE coverage stays inside one region.
//
// The partition rides the same uniform grid the link builder queries: a
// coarse GridIndex (cell edge sized so the table holds on the order of k
// cells) buckets the points, the cells are walked in row-major order, and
// the resulting point sequence is cut into k runs of near-equal length.
// Row-major runs make regions horizontal bands (splitting a band
// vertically where a cut lands mid-row), each spatially connected through
// the cell walk.
//
// Every region is non-empty when k <= len(points). It returns an error
// for k < 1 and for the point sets NewGridIndex rejects (non-finite
// coordinates, an overflowing extent).
func Partition(points []Point, k int) ([]int, error) {
	if k < 1 {
		return nil, fmt.Errorf("geo: partition into %d regions", k)
	}
	region := make([]int, len(points))
	if k == 1 || len(points) == 0 {
		return region, nil
	}
	if k > len(points) {
		k = len(points)
	}

	// Cell edge ~ extent/sqrt(k) gives on the order of k cells, so each
	// region spans a handful of cells; the grid's own table bound keeps a
	// degenerate extent from blowing the cell count up.
	minX, minY := math.Inf(1), math.Inf(1)
	maxX, maxY := math.Inf(-1), math.Inf(-1)
	for _, p := range points {
		minX = math.Min(minX, p.X)
		minY = math.Min(minY, p.Y)
		maxX = math.Max(maxX, p.X)
		maxY = math.Max(maxY, p.Y)
	}
	extent := math.Max(maxX-minX, maxY-minY)
	cell := extent / math.Ceil(math.Sqrt(float64(k)))
	if cell <= 0 || math.IsNaN(cell) {
		cell = 1 // all points coincide: one cell, the count cut still balances
	}
	g, err := NewGridIndex(points, cell)
	if err != nil {
		return nil, err
	}

	// Walk cells row-major and cut the flattened point sequence at the
	// exact k-quantiles of the count, so region sizes differ by at most
	// one point no matter how lopsided the cell occupancy is.
	n := len(points)
	seen := 0
	for _, bucket := range g.cells {
		for _, idx := range bucket {
			region[idx] = seen * k / n
			seen++
		}
	}
	return region, nil
}
