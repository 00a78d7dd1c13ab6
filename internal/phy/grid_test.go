package phy

import (
	"cmp"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"testing"
	"time"

	"adhocsim/internal/sim"
)

// bruteWithin is the reference the index must never under-report: all
// ids within radius of center, by exact distance.
func bruteWithin(pos []Position, center Position, radius float64) map[uint32]bool {
	out := map[uint32]bool{}
	for id, p := range pos {
		if Dist(center, p) <= radius {
			out[uint32(id)] = true
		}
	}
	return out
}

// withinCells is the query reference: every id whose cell lies in the
// query's cell box (the cells holding center ± radius on each axis) and
// whose cell's nearest point lies within radius of center, ordered by
// (cy, cx, id) — the output AppendWithin promises, computed from the
// positions alone. Cell coordinates stay floats, so fields past the
// int32 range work.
func withinCells(pos []Position, cell float64, center Position, radius float64) []uint32 {
	type hit struct {
		cx, cy float64
		id     uint32
	}
	var hits []hit
	r2 := radius * radius
	inBox := func(k, c float64) bool {
		return k >= math.Floor((c-radius)/cell) && k <= math.Floor((c+radius)/cell)
	}
	for id, p := range pos {
		cx, cy := math.Floor(p.X/cell), math.Floor(p.Y/cell)
		if !inBox(cx, center.X) || !inBox(cy, center.Y) {
			continue
		}
		nx := clampF(center.X, cx*cell, (cx+1)*cell)
		ny := clampF(center.Y, cy*cell, (cy+1)*cell)
		if dx, dy := nx-center.X, ny-center.Y; dx*dx+dy*dy <= r2 {
			hits = append(hits, hit{cx, cy, uint32(id)})
		}
	}
	slices.SortFunc(hits, func(a, b hit) int {
		return cmp.Or(cmp.Compare(a.cy, b.cy), cmp.Compare(a.cx, b.cx), cmp.Compare(a.id, b.id))
	})
	out := make([]uint32, len(hits))
	for i, h := range hits {
		out[i] = h.id
	}
	return out
}

// checkCellSize holds the index to its sizing rule: the cell is the
// requested size doubled k ≥ 0 times, and doubled only while the
// positions' bounding box needed more than 4n+4 cells.
func checkCellSize(t *testing.T, ix *CellIndex, pos []Position, requested float64) {
	t.Helper()
	cells := func(c float64) float64 {
		x0, x1, y0, y1 := pos[0].X, pos[0].X, pos[0].Y, pos[0].Y
		for _, p := range pos {
			x0, x1, y0, y1 = min(x0, p.X), max(x1, p.X), min(y0, p.Y), max(y1, p.Y)
		}
		return (math.Floor(x1/c) - math.Floor(x0/c) + 1) * (math.Floor(y1/c) - math.Floor(y0/c) + 1)
	}
	got := ix.CellSize()
	if k := math.Log2(got / requested); k != math.Trunc(k) || k < 0 {
		t.Fatalf("cell size %g is not a power-of-two multiple of the requested %g", got, requested)
	}
	budget := 4*float64(len(pos)) + 4
	if cells(got) > budget {
		t.Fatalf("cell size %g leaves %g cells, over the %g budget", got, cells(got), budget)
	}
	if got > requested && cells(got/2) <= budget {
		t.Fatalf("cell size %g doubled past %g, which fits the budget", got, got/2)
	}
}

// TestCellIndexMatchesReference is the grid's bit-identity check: on
// clustered sparse fields (where the cell doubles), stacked stations,
// a single row, positions moved and rebuilt over, and fields whose cell
// coordinates pass the int32 range, every query — narrow, wide,
// off-field, covering everything — returns exactly the reference id
// sequence for the index's cell size.
func TestCellIndexMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	uniform := func(n int, x0, y0, w, h float64) []Position {
		out := make([]Position, n)
		for i := range out {
			out[i] = Position{X: x0 + rng.Float64()*w, Y: y0 + rng.Float64()*h}
		}
		return out
	}
	// A few tight clusters far apart, plus scattered singletons, over a
	// ~20 km field: at 50 m cells the box would need 160,000 cells.
	var clustered []Position
	for c := 0; c < 6; c++ {
		clustered = append(clustered, uniform(40, rng.Float64()*20000, rng.Float64()*20000, 800, 800)...)
	}
	clustered = append(clustered, uniform(20, 0, 0, 20000, 20000)...)
	// Stacked stations, some of them on cell corners.
	var coincident []Position
	for i := 0; i < 60; i++ {
		coincident = append(coincident, Pos(float64(i%3)*50, 100), Pos(75, 75))
	}
	row := uniform(200, -3000, 42, 6000, 0)
	// The medium's pattern: one slice, moved in place and indexed anew.
	moved := uniform(150, 0, 0, 2000, 2000)
	NewCellIndex(moved, 50)
	for i := range moved {
		if i%3 == 0 {
			moved[i] = Position{X: rng.Float64() * 2000, Y: rng.Float64() * 2000}
		}
	}
	// Two stations 10 m apart whose cell column is the largest int32,
	// and a cluster 2^50 cells out.
	edge := (math.MaxInt32 - 0.5) * 17100
	huge := uniform(50, math.Ldexp(17100, 50), -math.Ldexp(17100, 50), 20*17100, 20*17100)

	for _, tc := range []struct {
		name string
		pos  []Position
		cell float64
	}{
		{"clustered", clustered, 50},
		{"coincident", coincident, 50},
		{"one-row", row, 100},
		{"moved-then-rebuilt", moved, 50},
		{"int32-edge", []Position{Pos(edge, 0), Pos(edge+10, 0)}, 17100},
		{"huge", huge, 17100},
	} {
		ix := NewCellIndex(tc.pos, tc.cell)
		checkCellSize(t, ix, tc.pos, tc.cell)
		x0, y0, x1, y1 := tc.pos[0].X, tc.pos[0].Y, tc.pos[0].X, tc.pos[0].Y
		for _, p := range tc.pos {
			x0, x1, y0, y1 = min(x0, p.X), max(x1, p.X), min(y0, p.Y), max(y1, p.Y)
		}
		w, h := x1-x0+1, y1-y0+1
		check := func(center Position, radius float64) {
			t.Helper()
			got := ix.AppendWithin(nil, center, radius)
			want := withinCells(tc.pos, ix.CellSize(), center, radius)
			if !slices.Equal(got, want) {
				t.Fatalf("%s: query (%.0f,%.0f) r=%.0f: index %v, reference %v",
					tc.name, center.X, center.Y, radius, got, want)
			}
		}
		for i := 0; i < 60; i++ {
			center := Position{X: x0 - w/10 + rng.Float64()*w*1.2, Y: y0 - h/10 + rng.Float64()*h*1.2}
			check(center, []float64{0, tc.cell / 2, tc.cell, 4 * tc.cell, max(w, h) / 3}[i%5])
		}
		for _, p := range tc.pos[:min(3, len(tc.pos))] {
			check(p, 0)
			check(p, tc.cell)
		}
		check(Position{X: x0 - 5*w, Y: y0 - 5*h}, w)       // fully off-field
		check(Position{X: x0 + w/2, Y: y0 + h/2}, 2*(w+h)) // covers everything
		check(Position{X: x0, Y: y0}, math.Inf(1))
		if got := ix.AppendWithin(nil, tc.pos[0], math.NaN()); got != nil {
			t.Fatalf("%s: NaN radius returned %v", tc.name, got)
		}
	}
}

// TestCellIndexNeverMissesInRange is the index's core contract: for
// random point sets, radii and cell sizes, every id within the query
// radius appears in the query result (the over-approximation may add
// neighbors just beyond it, never drop one inside it).
func TestCellIndexNeverMissesInRange(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 50; trial++ {
		pos := make([]Position, 1+rng.Intn(200))
		for i := range pos {
			pos[i] = Pos(rng.Float64()*2000-500, rng.Float64()*2000-500)
		}
		ix := NewCellIndex(pos, 10+rng.Float64()*500)
		cell := ix.CellSize()
		for q := 0; q < 20; q++ {
			center := Pos(rng.Float64()*2000-500, rng.Float64()*2000-500)
			radius := rng.Float64() * 800
			got := map[uint32]bool{}
			for _, id := range ix.AppendWithin(nil, center, radius) {
				if got[id] {
					t.Fatalf("id %d reported twice", id)
				}
				got[id] = true
				if d := Dist(center, pos[id]); d > radius+cell*1.4143 {
					t.Fatalf("id %d at distance %.1f reported for radius %.1f (cell %.1f): over-approximation exceeds one cell diagonal", id, d, radius, cell)
				}
			}
			for id := range bruteWithin(pos, center, radius) {
				if !got[id] {
					t.Fatalf("trial %d: id %d at %.1f m missing from radius-%.1f query (cell %.1f)", trial, id, Dist(center, pos[id]), radius, cell)
				}
			}
		}
	}
}

// TestCellIndexDeterministicOrder: the query output is a pure function
// of the positions — an index built over a slice that reached its
// positions through a history of moves answers every query exactly like
// one built over a fresh copy, and ids come out in row-major cell order,
// ascending within a cell.
func TestCellIndexDeterministicOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	pos := make([]Position, 100)
	for i := range pos {
		pos[i] = Pos(rng.Float64()*1000, rng.Float64()*1000)
	}
	moved := make([]Position, len(pos))
	for i := range moved {
		moved[i] = Pos(rng.Float64()*1000, rng.Float64()*1000)
	}
	NewCellIndex(moved, 150)
	copy(moved, pos)
	fresh, rebuilt := NewCellIndex(slices.Clone(pos), 150), NewCellIndex(moved, 150)

	for q := 0; q < 30; q++ {
		center := Pos(rng.Float64()*1000, rng.Float64()*1000)
		radius := rng.Float64() * 400
		want := fresh.AppendWithin(nil, center, radius)
		if got := rebuilt.AppendWithin(nil, center, radius); !reflect.DeepEqual(got, want) {
			t.Fatalf("rebuilt index query differs:\n got %v\nwant %v", got, want)
		}
		key := func(id uint32) [3]float64 {
			p := pos[id]
			return [3]float64{math.Floor(p.Y / 150), math.Floor(p.X / 150), float64(id)}
		}
		for i := 1; i < len(want); i++ {
			if a, b := key(want[i-1]), key(want[i]); slices.Compare(a[:], b[:]) >= 0 {
				t.Fatalf("ids %d and %d out of (cy, cx, id) order", want[i-1], want[i])
			}
		}
	}
}

// TestCellIndexMoveAcrossCells: a position moved in its slice across
// two cell boundaries is reported from its new cell, and not from its
// old one, by the index rebuilt over the slice — the medium's pattern.
func TestCellIndexMoveAcrossCells(t *testing.T) {
	pos := []Position{Pos(250, 50), Pos(50, 50)}
	if got := NewCellIndex(pos, 100).AppendWithin(nil, Pos(50, 50), 10); !slices.Equal(got, []uint32{1}) {
		t.Fatalf("initial query = %v, want [1]", got)
	}
	pos[1] = Pos(260, 50)
	ix := NewCellIndex(pos, 100)
	if got := ix.AppendWithin(nil, Pos(255, 50), 20); !slices.Equal(got, []uint32{0, 1}) {
		t.Fatalf("post-move query = %v, want [0 1]", got)
	}
	if got := ix.AppendWithin(nil, Pos(50, 50), 60); len(got) != 0 {
		t.Fatalf("old cell still reports %v after the move", got)
	}
}

// BenchmarkNewCellIndex measures one build over a 25,000-station
// clustered field at a 120 m cell.
func BenchmarkNewCellIndex(b *testing.B) {
	rng := rand.New(rand.NewSource(5))
	pos := make([]Position, 25000)
	for i := range pos {
		c := float64(i % 100)
		pos[i] = Pos(math.Mod(c, 10)*1000+rng.Float64()*300, math.Floor(c/10)*1000+rng.Float64()*300)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		NewCellIndex(pos, 120)
	}
}

// TestReachRangeBoundsInstantaneousPower: no (link, epoch) draw may
// deliver power ≥ threshold from beyond ReachRange(threshold) — the
// soundness condition for the medium's spatial pruning.
func TestReachRangeBoundsInstantaneousPower(t *testing.T) {
	p := DefaultProfile()
	p.Fading.SigmaDB = 6
	p.Fading.StaticSigmaDB = 2
	src := sim.NewSource(99)
	threshold := p.NoiseFloorDBm - 20
	reach := p.ReachRange(threshold)

	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 5000; i++ {
		d := reach * (1 + rng.Float64()*3)
		tx, rx := uint64(rng.Intn(1000)), uint64(rng.Intn(1000))
		now := time.Duration(rng.Int63n(int64(10 * time.Second)))
		if got := p.RxPowerDBm(src, tx, rx, d, now); got >= threshold {
			t.Fatalf("power %.2f dBm ≥ threshold %.2f dBm at %.1f m, beyond reach %.1f m", got, threshold, d, reach)
		}
	}

	// And the bound is not vacuous: just inside the mean-power range the
	// threshold is reachable.
	meanRange := p.PathLoss.RangeFor(p.TxPowerDBm - threshold)
	if got := p.MeanRxPowerDBm(meanRange * 0.99); got < threshold {
		t.Fatalf("mean power %.2f dBm below threshold just inside the mean range", got)
	}
	if reach <= meanRange {
		t.Fatalf("reach %.1f m must exceed the fade-free range %.1f m when fading is on", reach, meanRange)
	}
}

// TestMaxShadowDBBoundsShadowDB samples the fading process and checks
// the documented bound holds with headroom.
func TestMaxShadowDBBoundsShadowDB(t *testing.T) {
	f := Fading{SigmaDB: 4, Coherence: 50 * time.Millisecond, StaticSigmaDB: 3}
	src := sim.NewSource(1)
	bound := f.MaxShadowDB()
	if want := float64(MaxShadowSigmas) * 7; bound != want {
		t.Fatalf("MaxShadowDB = %v, want %v", bound, want)
	}
	for i := uint64(0); i < 20000; i++ {
		db := f.ShadowDB(src, i, i+1, time.Duration(i)*time.Millisecond)
		if db > bound || db < -bound {
			t.Fatalf("ShadowDB %v exceeds bound %v", db, bound)
		}
	}
}
