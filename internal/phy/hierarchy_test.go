package phy

import (
	"cmp"
	"math"
	"math/rand"
	"slices"
	"testing"
)

// withinCells is the query reference: every id whose cell's nearest
// point lies within radius of center, ordered by (cy, cx, id) — the
// output AppendWithin promises, computed from the positions alone.
func withinCells(pos map[uint32]Position, cell float64, center Position, radius float64) []uint32 {
	type hit struct {
		cx, cy int32
		id     uint32
	}
	var hits []hit
	r2 := radius * radius
	for id, p := range pos {
		cx, cy := int32(math.Floor(p.X/cell)), int32(math.Floor(p.Y/cell))
		nx := clampF(center.X, float64(cx)*cell, float64(cx+1)*cell)
		ny := clampF(center.Y, float64(cy)*cell, float64(cy+1)*cell)
		if dx, dy := nx-center.X, ny-center.Y; dx*dx+dy*dy <= r2 {
			hits = append(hits, hit{cx, cy, id})
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

// TestHierarchyMatchesFlat is the coarse layer's bit-identity check:
// on clustered sparse fields (the layout the supercell skip exists
// for), every query — wide ones that take the coarse skip, narrow ones
// that walk the flat grid, off-field, straddling empty supercell rows
// — returns exactly the reference id sequence, across interleaved Move
// churn.
func TestHierarchyMatchesFlat(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	ix := NewCellIndex(50) // 50 m cells, 400 m supercells
	pos := make(map[uint32]Position)
	id := uint32(1)
	// A few tight clusters far apart, plus scattered singletons, over
	// a ~20 km field: most supercells stay empty.
	for c := 0; c < 6; c++ {
		cx := rng.Float64() * 20000
		cy := rng.Float64() * 20000
		for i := 0; i < 40; i++ {
			p := Position{X: cx + rng.Float64()*800, Y: cy + rng.Float64()*800}
			ix.Insert(id, p)
			pos[id] = p
			id++
		}
	}
	for i := 0; i < 20; i++ {
		p := Position{X: rng.Float64() * 20000, Y: rng.Float64() * 20000}
		ix.Insert(id, p)
		pos[id] = p
		id++
	}

	check := func(center Position, radius float64) {
		t.Helper()
		got := ix.AppendWithin(nil, center, radius)
		want := withinCells(pos, ix.CellSize(), center, radius)
		if len(got) != len(want) {
			t.Fatalf("query (%.0f,%.0f) r=%.0f: index %d ids, reference %d ids",
				center.X, center.Y, radius, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("query (%.0f,%.0f) r=%.0f: id %d is %d from the index, %d in the reference",
					center.X, center.Y, radius, i, got[i], want[i])
			}
		}
	}

	queries := func() {
		for i := 0; i < 50; i++ {
			center := Position{X: rng.Float64()*24000 - 2000, Y: rng.Float64()*24000 - 2000}
			check(center, []float64{30, 200, 1500, 6000}[i%4])
		}
		check(Position{X: -5000, Y: -5000}, 1000)  // fully off-field
		check(Position{X: 10000, Y: 10000}, 40000) // covers everything
	}
	queries()

	// Churn: move a third of the ids anywhere on the field (most across
	// supercells, emptying some) and a few by a meter, then re-check.
	for mv := uint32(1); mv < id; mv++ {
		switch mv % 3 {
		case 0:
			p := Position{X: rng.Float64() * 20000, Y: rng.Float64() * 20000}
			ix.Move(mv, p)
			pos[mv] = p
		case 1:
			if mv%9 == 1 {
				p := Position{X: pos[mv].X + 1, Y: pos[mv].Y}
				ix.Move(mv, p)
				pos[mv] = p
			}
		}
	}
	queries()
}

// TestHierarchyCoarseCounts checks the supercell occupancy bookkeeping
// directly: after arbitrary insert/move churn the coarse map must hold
// exactly one count per occupied supercell, each matching the ids
// beneath it. Long jumps across the field empty supercells, so the
// delete-at-zero path runs too.
func TestHierarchyCoarseCounts(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	ix := NewCellIndex(10)
	live := map[uint32]Position{}
	for op := 0; op < 5000; op++ {
		switch r := rng.Intn(10); {
		case r < 5 || len(live) == 0:
			id := uint32(op + 1)
			p := Position{X: rng.Float64()*2000 - 1000, Y: rng.Float64()*2000 - 1000}
			ix.Insert(id, p)
			live[id] = p
		default:
			for id := range live {
				p := Position{X: rng.Float64()*2000 - 1000, Y: rng.Float64()*2000 - 1000}
				if r >= 8 {
					p.X += 5000 // out to a second, sparser field
				}
				ix.Move(id, p)
				live[id] = p
				break
			}
		}
	}
	want := map[cellKey]int32{}
	for _, p := range live {
		want[superKey(ix.keyFor(p))]++
	}
	if len(want) != len(ix.coarse) {
		t.Fatalf("coarse layer has %d supercells, want %d", len(ix.coarse), len(want))
	}
	for sk, n := range want {
		if ix.coarse[sk] != n {
			t.Fatalf("supercell %v count %d, want %d", sk, ix.coarse[sk], n)
		}
	}
}

// BenchmarkAppendWithinSparseHierarchy measures the wide-query case the
// coarse layer targets: a clustered field where the query box spans
// hundreds of mostly-empty cells.
func BenchmarkAppendWithinSparseHierarchy(b *testing.B) {
	rng := rand.New(rand.NewSource(5))
	ix := NewCellIndex(100)
	id := uint32(1)
	centers := make([]Position, 0, 8)
	for c := 0; c < 8; c++ {
		cc := Position{X: rng.Float64() * 30000, Y: rng.Float64() * 30000}
		centers = append(centers, cc)
		for i := 0; i < 128; i++ {
			ix.Insert(id, Position{X: cc.X + rng.Float64()*1000, Y: cc.Y + rng.Float64()*1000})
			id++
		}
	}
	var buf []uint32
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf = ix.AppendWithin(buf[:0], centers[i%len(centers)], 8000)
	}
}
