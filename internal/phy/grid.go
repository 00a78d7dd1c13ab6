package phy

import (
	"fmt"
	"math"
	"slices"
)

// cellKey addresses one square cell of a CellIndex: the integer floor of
// the position divided by the cell size, per axis.
type cellKey struct{ cx, cy int32 }

// CellIndex is a uniform spatial hash grid over identified positions —
// the neighbor index the medium uses to find every radio a transmission
// could possibly matter to without touching the radios it cannot.
//
// The grid is unbounded: cells exist only while occupied, so the index
// costs memory proportional to the station count, not the field area.
// Within each cell, ids are kept sorted ascending; queries visit cells
// in deterministic row-major order (cy, then cx, ascending). Together
// this makes every query's output a pure function of the current
// id→position map — independent of insertion history, Go map iteration
// order, and past Move calls — which is what lets fixed-seed simulation
// runs stay bit-identical.
//
// CellIndex is not safe for concurrent use, matching the
// single-goroutine simulation kernel it serves.
//
// Above the fine cells sits a coarse layer of supercells, each covering
// a coarseSize×coarseSize block of cells, holding only an occupancy
// count. Wide queries — a radius spanning many cells, or a sparse
// clustered field where most of the bounding box is empty space —
// consult the coarse layer to skip whole supercell rows and row
// segments without probing each fine cell. The skip only ever elides
// provably empty cells, so query output (and its deterministic row-
// major order) is the same as the flat scan's, which small boxes use.
type CellIndex struct {
	cell   float64
	cells  map[cellKey][]uint32
	where  map[uint32]cellKey
	coarse map[cellKey]int32 // supercell → indexed-id count
}

const (
	// coarseShift is the log2 edge ratio between a supercell and a
	// cell: supercells cover 8×8 cells, a balance between skip reach
	// and coarse-layer probe cost.
	coarseShift = 3
	coarseSize  = 1 << coarseShift
	// coarseMinCells is the bounding-box area (in cells) below which a
	// query walks the flat grid directly: a handful of probes is
	// cheaper than any amount of skipping.
	coarseMinCells = 32
)

// superKey maps a cell to its supercell. Arithmetic shift floors
// toward negative infinity, which is the correct block assignment for
// negative coordinates too.
func superKey(k cellKey) cellKey {
	return cellKey{cx: k.cx >> coarseShift, cy: k.cy >> coarseShift}
}

// NewCellIndex returns an empty index with the given cell size in
// meters. The caller picks the cell size from its query radius; the
// medium uses the maximum relevance radius, so any query touches at
// most a 3×3 block of cells.
func NewCellIndex(cellSize float64) *CellIndex {
	if !(cellSize > 0) || math.IsInf(cellSize, 1) {
		panic(fmt.Sprintf("phy: cell size %v must be positive and finite", cellSize))
	}
	return &CellIndex{
		cell:   cellSize,
		cells:  make(map[cellKey][]uint32),
		where:  make(map[uint32]cellKey),
		coarse: make(map[cellKey]int32),
	}
}

// CellSize returns the cell edge length in meters.
func (ix *CellIndex) CellSize() float64 { return ix.cell }

// Len returns the number of indexed ids.
func (ix *CellIndex) Len() int { return len(ix.where) }

// keyFor maps a position to its cell.
func (ix *CellIndex) keyFor(p Position) cellKey {
	return cellKey{
		cx: int32(math.Floor(p.X / ix.cell)),
		cy: int32(math.Floor(p.Y / ix.cell)),
	}
}

// Insert adds id at position p. Inserting an id twice panics: the caller
// owns id uniqueness (the medium enforces it at AddRadio).
func (ix *CellIndex) Insert(id uint32, p Position) {
	if _, ok := ix.where[id]; ok {
		panic(fmt.Sprintf("phy: CellIndex already holds id %d", id))
	}
	k := ix.keyFor(p)
	ix.where[id] = k
	ix.cells[k] = insertSorted(ix.cells[k], id)
	ix.coarse[superKey(k)]++
}

// Move updates id's position, relocating it between cells only when the
// move actually crosses a cell boundary — the common mobility tick stays
// O(1) with no slice churn.
func (ix *CellIndex) Move(id uint32, p Position) {
	old, ok := ix.where[id]
	if !ok {
		panic(fmt.Sprintf("phy: CellIndex.Move of unknown id %d", id))
	}
	k := ix.keyFor(p)
	if k == old {
		return
	}
	ix.cells[old] = removeSorted(ix.cells[old], id)
	if len(ix.cells[old]) == 0 {
		delete(ix.cells, old)
	}
	ix.where[id] = k
	ix.cells[k] = insertSorted(ix.cells[k], id)
	if os, ns := superKey(old), superKey(k); os != ns {
		ix.coarseDec(os)
		ix.coarse[ns]++
	}
}

// coarseDec drops one occupant from a supercell, deleting the entry at
// zero so the coarse map stays proportional to the occupied area.
func (ix *CellIndex) coarseDec(sk cellKey) {
	if n := ix.coarse[sk] - 1; n == 0 {
		delete(ix.coarse, sk)
	} else {
		ix.coarse[sk] = n
	}
}

// AppendWithin appends to dst the ids of every indexed position within
// radius meters of center, and returns the extended slice. It
// over-approximates at cell granularity: every id within the radius is
// returned, plus possibly some ids in partially-overlapping cells that
// lie just beyond it — callers that need the exact disc filter by true
// distance (the medium does so implicitly through the received-power
// cut). Passing a reused buffer as dst makes the query allocation-free
// in steady state.
//
// Cells are visited in row-major (cy, cx) order and each cell's ids are
// sorted ascending, so the output order is deterministic.
func (ix *CellIndex) AppendWithin(dst []uint32, center Position, radius float64) []uint32 {
	if !(radius >= 0) {
		return dst
	}
	c := ix.cell
	cx0 := int32(math.Floor((center.X - radius) / c))
	cx1 := int32(math.Floor((center.X + radius) / c))
	cy0 := int32(math.Floor((center.Y - radius) / c))
	cy1 := int32(math.Floor((center.Y + radius) / c))
	r2 := radius * radius
	// The coarse layer pays only on wide boxes: a 3×3 query is cheaper
	// probed directly.
	useCoarse := (int64(cx1-cx0)+1)*(int64(cy1-cy0)+1) >= coarseMinCells
	for cy := cy0; cy <= cy1; cy++ {
		if useCoarse && cy&(coarseSize-1) == 0 && cy1-cy >= coarseSize-1 &&
			ix.coarseRowEmpty(cy>>coarseShift, cx0, cx1) {
			// A fully empty supercell row, and the box covers all of it:
			// skip its remaining coarseSize-1 cell rows too.
			cy += coarseSize - 1
			continue
		}
		cx := cx0
		for cx <= cx1 {
			if useCoarse && ix.coarse[superKey(cellKey{cx, cy})] == 0 {
				// Empty supercell: jump to its right edge.
				cx = (cx>>coarseShift + 1) << coarseShift
				continue
			}
			ids := ix.cells[cellKey{cx, cy}]
			if len(ids) > 0 {
				// Skip cells whose nearest point is beyond the radius: the
				// bounding box visits corner cells the disc cannot touch.
				nx := clampF(center.X, float64(cx)*c, float64(cx+1)*c)
				ny := clampF(center.Y, float64(cy)*c, float64(cy+1)*c)
				dx, dy := nx-center.X, ny-center.Y
				if dx*dx+dy*dy <= r2 {
					dst = append(dst, ids...)
				}
			}
			cx++
		}
	}
	return dst
}

// coarseRowEmpty reports whether every supercell of row sy overlapping
// the cell-column range [cx0, cx1] is empty.
func (ix *CellIndex) coarseRowEmpty(sy, cx0, cx1 int32) bool {
	for sx := cx0 >> coarseShift; sx <= cx1>>coarseShift; sx++ {
		if ix.coarse[cellKey{sx, sy}] != 0 {
			return false
		}
	}
	return true
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

// insertSorted inserts id into the ascending slice ids.
func insertSorted(ids []uint32, id uint32) []uint32 {
	i, _ := slices.BinarySearch(ids, id)
	return slices.Insert(ids, i, id)
}

// removeSorted deletes id from the ascending slice ids.
func removeSorted(ids []uint32, id uint32) []uint32 {
	i, found := slices.BinarySearch(ids, id)
	if !found {
		return ids
	}
	return slices.Delete(ids, i, i+1)
}
