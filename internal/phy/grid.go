package phy

import "math"

// CellIndex is an immutable uniform grid over a fixed slice of
// positions — the neighbor index the medium uses to find every radio a
// transmission could possibly matter to without touching the radios it
// cannot, and the one the static route compiler and nearest-station
// pairing query. An index names a position by its index in the slice
// it was built from; a caller whose positions change builds a new one.
//
// Cells are squares aligned to multiples of the cell size, so a
// position's cell is the floor of each coordinate divided by the cell
// size. Only the cells of the positions' bounding box exist, numbered
// row-major from its lowest cell, and one counting sort fills them:
// ids[start[c]:start[c+1]] are the positions of cell c, ascending.
// Queries visit cells in row-major order (cy, then cx, ascending), so
// every query's output is a pure function of the positions — which is
// what lets fixed-seed simulation runs stay bit-identical.
//
// The grid holds at most about four cells per position: when the
// bounding box would need more at the requested cell size, the size
// doubles until it does not. A large empty field therefore costs
// memory proportional to the station count, not the field area, and a
// query's cell walk is bounded by the grid however wide its radius.
type CellIndex struct {
	cell       float64
	kx0, ky0   float64 // cell coordinates of column 0 and row 0
	cols, rows int
	start      []int32
	ids        []uint32
}

// NewCellIndex buckets positions into cells of the given size in
// meters, doubled as often as the four-cells-per-position budget needs.
// The medium picks the size from its query radius (the maximum
// relevance radius), so a query touches at most a 3×3 block of cells.
// A size that is not positive starts from the smallest float, so the
// doubling picks the finest grid within budget; an infinite one is
// taken as the largest float. Non-finite coordinates do not widen the
// bounding box: such a position lands in an edge cell (a NaN one in the
// first).
//
// Cell coordinates are exact while a coordinate divided by the cell
// size stays under 2^53 in magnitude; beyond that, queries still end
// but may over- or under-report at cell granularity.
func NewCellIndex(positions []Position, cellSize float64) *CellIndex {
	ix := &CellIndex{cell: cellSize}
	switch {
	case !(cellSize > 0):
		ix.cell = math.SmallestNonzeroFloat64
	case math.IsInf(cellSize, 1):
		ix.cell = math.MaxFloat64
	}
	x0, x1 := math.Inf(1), math.Inf(-1)
	y0, y1 := math.Inf(1), math.Inf(-1)
	for _, p := range positions {
		if !math.IsInf(p.X, 0) && !math.IsNaN(p.X) {
			x0, x1 = min(x0, p.X), max(x1, p.X)
		}
		if !math.IsInf(p.Y, 0) && !math.IsNaN(p.Y) {
			y0, y1 = min(y0, p.Y), max(y1, p.Y)
		}
	}
	if x0 > x1 {
		x0, x1 = 0, 0
	}
	if y0 > y1 {
		y0, y1 = 0, 0
	}
	budget := 4*float64(len(positions)) + 4
	for {
		ix.kx0, ix.ky0 = math.Floor(x0/ix.cell), math.Floor(y0/ix.cell)
		cols := math.Floor(x1/ix.cell) - ix.kx0 + 1
		rows := math.Floor(y1/ix.cell) - ix.ky0 + 1
		// Past half the largest float the next doubling would be
		// infinite; every finite field then spans at most 5×5 cells.
		if cols*rows <= budget || ix.cell > math.MaxFloat64/2 {
			ix.cols, ix.rows = int(cols), int(rows)
			break
		}
		ix.cell *= 2
	}

	ix.start = make([]int32, ix.cols*ix.rows+1)
	for _, p := range positions {
		ix.start[ix.cellOf(p)+1]++
	}
	for c := 1; c < len(ix.start); c++ {
		ix.start[c] += ix.start[c-1]
	}
	// Filling advances each cell's start to the next cell's; shifting
	// the offsets up one slot restores them.
	ix.ids = make([]uint32, len(positions))
	for i, p := range positions {
		c := ix.cellOf(p)
		ix.ids[ix.start[c]] = uint32(i)
		ix.start[c]++
	}
	copy(ix.start[1:], ix.start)
	ix.start[0] = 0
	return ix
}

// CellSize returns the cell edge length in meters, after any doubling.
func (ix *CellIndex) CellSize() float64 { return ix.cell }

// cellOf returns the row-major cell holding p, clamped into the grid.
func (ix *CellIndex) cellOf(p Position) int {
	cx := clampCell(math.Floor(p.X/ix.cell)-ix.kx0, ix.cols)
	cy := clampCell(math.Floor(p.Y/ix.cell)-ix.ky0, ix.rows)
	return cy*ix.cols + cx
}

// clampCell clamps a grid column or row into [0, n-1]; NaN maps to 0.
func clampCell(v float64, n int) int {
	if !(v > 0) {
		return 0
	}
	if v >= float64(n-1) {
		return n - 1
	}
	return int(v)
}

// cellSpan returns the grid columns (or rows) [i0, i1] that the
// coordinate interval [lo, hi] overlaps, given the axis's first cell
// coordinate k0 and its cell count n; i0 > i1 when it misses the grid.
func (ix *CellIndex) cellSpan(lo, hi, k0 float64, n int) (i0, i1 int) {
	a := math.Floor(lo/ix.cell) - k0
	b := math.Floor(hi/ix.cell) - k0
	if !(b >= 0) || !(a < float64(n)) {
		return 0, -1
	}
	return clampCell(a, n), clampCell(b, n)
}

// AppendWithin appends to dst the ids of every indexed position within
// radius meters of center, and returns the extended slice. It
// over-approximates at cell granularity: every id within the radius is
// returned, plus possibly some ids in partially-overlapping cells that
// lie just beyond it — callers that need the exact disc filter by true
// distance (the medium does so implicitly through the received-power
// cut). Passing a reused buffer as dst makes the query allocation-free.
//
// Cells are visited in row-major (cy, cx) order and each cell's ids are
// ascending, so the output order is deterministic.
func (ix *CellIndex) AppendWithin(dst []uint32, center Position, radius float64) []uint32 {
	if !(radius >= 0) {
		return dst
	}
	cx0, cx1 := ix.cellSpan(center.X-radius, center.X+radius, ix.kx0, ix.cols)
	cy0, cy1 := ix.cellSpan(center.Y-radius, center.Y+radius, ix.ky0, ix.rows)
	c := ix.cell
	r2 := radius * radius
	for cy := cy0; cy <= cy1; cy++ {
		// Skip cells whose nearest point is beyond the radius: the
		// bounding box visits corner cells the disc cannot touch.
		ky := ix.ky0 + float64(cy)
		dy := clampF(center.Y, ky*c, (ky+1)*c) - center.Y
		row := cy * ix.cols
		for cx := cx0; cx <= cx1; cx++ {
			lo, hi := ix.start[row+cx], ix.start[row+cx+1]
			if lo == hi {
				continue
			}
			kx := ix.kx0 + float64(cx)
			dx := clampF(center.X, kx*c, (kx+1)*c) - center.X
			if dx*dx+dy*dy <= r2 {
				dst = append(dst, ix.ids[lo:hi]...)
			}
		}
	}
	return dst
}

// clampF clamps v into [lo, hi].
func clampF(v, lo, hi float64) float64 {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}
