package geo

import (
	"fmt"
	"math"
)

// GridIndex is a uniform spatial hash over a fixed point set: points are
// bucketed into square cells of a configurable size, so radius queries
// touch only the cells overlapping the query disk instead of the whole
// set. Scenario construction uses it to find the base stations near a UE
// in time proportional to local coverage density rather than |BS|.
//
// The index is immutable after construction and safe for concurrent
// readers, which is what lets link building fan out across UEs.
type GridIndex struct {
	cellSize   float64
	minX, minY float64
	cols, rows int
	// cells is row-major; each bucket holds point indices in ascending
	// order (points are inserted in index order).
	cells [][]int32
}

// NewGridIndex buckets points into square cells of the given size. The
// cell size is a tuning knob, not a correctness bound — queries of any
// radius are answered exactly — but it should be on the order of the
// typical query radius so a query touches O(1) cells. It returns an error
// for a cell size that is not a positive finite number, a point with a
// NaN or infinite coordinate, and a point set whose extent overflows
// float64: no cell table can bucket those.
func NewGridIndex(points []Point, cellSize float64) (*GridIndex, error) {
	if !(cellSize > 0) || math.IsInf(cellSize, 1) {
		return nil, fmt.Errorf("geo: grid cell size %g, want positive and finite", cellSize)
	}
	g := &GridIndex{cellSize: cellSize}
	if len(points) == 0 {
		g.cols, g.rows = 1, 1
		g.cells = make([][]int32, 1)
		return g, nil
	}
	g.minX, g.minY = math.Inf(1), math.Inf(1)
	maxX, maxY := math.Inf(-1), math.Inf(-1)
	for i, p := range points {
		if !finite(p.X) || !finite(p.Y) {
			return nil, fmt.Errorf("geo: point %d at (%g, %g), want finite coordinates", i, p.X, p.Y)
		}
		g.minX = math.Min(g.minX, p.X)
		g.minY = math.Min(g.minY, p.Y)
		maxX = math.Max(maxX, p.X)
		maxY = math.Max(maxY, p.Y)
	}
	if !finite(maxX-g.minX) || !finite(maxY-g.minY) {
		return nil, fmt.Errorf("geo: point extent %gx%g overflows", maxX-g.minX, maxY-g.minY)
	}
	// Bound the cell table by the point count: a sparse set scattered over
	// a huge extent would otherwise allocate millions of empty buckets.
	// Doubling the cell size only coarsens queries, never their results.
	// The table size is compared in float64: an extreme extent/cell-size
	// ratio makes the int conversion (and the cols*rows product) overflow,
	// which used to break the loop with a huge or negative cell table.
	// Floats cannot overflow here — an oversized (even infinite) product
	// just fails the bound and coarsens again — and with a finite extent
	// the doubling reaches one cell before the cell size can overflow.
	maxCells := 4*len(points) + 64
	for {
		cols := math.Floor((maxX-g.minX)/g.cellSize) + 1
		rows := math.Floor((maxY-g.minY)/g.cellSize) + 1
		if cols*rows <= float64(maxCells) {
			g.cols = int(cols)
			g.rows = int(rows)
			break
		}
		g.cellSize *= 2
	}
	g.cells = make([][]int32, g.cols*g.rows)
	for i, p := range points {
		c := g.cellCol(p.X)
		r := g.cellRow(p.Y)
		g.cells[r*g.cols+c] = append(g.cells[r*g.cols+c], int32(i))
	}
	return g, nil
}

func finite(x float64) bool { return !math.IsNaN(x) && !math.IsInf(x, 0) }

// cellCol maps an x coordinate to a column, clamped to the grid. Indexed
// points always map without clamping; clamping only matters for query
// coordinates outside the point set's bounding box.
func (g *GridIndex) cellCol(x float64) int {
	c := int(math.Floor((x - g.minX) / g.cellSize))
	if c < 0 {
		return 0
	}
	if c >= g.cols {
		return g.cols - 1
	}
	return c
}

func (g *GridIndex) cellRow(y float64) int {
	r := int(math.Floor((y - g.minY) / g.cellSize))
	if r < 0 {
		return 0
	}
	if r >= g.rows {
		return g.rows - 1
	}
	return r
}

// Near appends to dst the indices of every point whose cell overlaps the
// disk of the given radius around p, and returns the extended slice. The
// result is a superset of the points within radius, each index once, in
// cell order rather than index order: callers filter by exact distance
// and sort what survives, which is cheaper than sorting every point the
// cells hold.
func (g *GridIndex) Near(p Point, radius float64, dst []int32) []int32 {
	if radius < 0 {
		return dst
	}
	reach := int(math.Ceil(radius / g.cellSize))
	// Unclamped cell coordinates keep the window correct for query points
	// outside the indexed bounding box.
	cx := int(math.Floor((p.X - g.minX) / g.cellSize))
	cy := int(math.Floor((p.Y - g.minY) / g.cellSize))
	c0, c1 := max(cx-reach, 0), min(cx+reach, g.cols-1)
	r0, r1 := max(cy-reach, 0), min(cy+reach, g.rows-1)
	if c0 > c1 || r0 > r1 {
		return dst
	}
	for r := r0; r <= r1; r++ {
		row := g.cells[r*g.cols : (r+1)*g.cols]
		for c := c0; c <= c1; c++ {
			dst = append(dst, row[c]...)
		}
	}
	return dst
}
