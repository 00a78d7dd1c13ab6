package phy

import (
	"math/rand"
	"testing"
)

// withFlatScan runs fn with the coarse layer disabled, restoring it
// afterwards.
func withFlatScan(fn func()) {
	SetHierarchy(false)
	defer SetHierarchy(true)
	fn()
}

// TestHierarchyMatchesFlat is the coarse layer's bit-identity check:
// on clustered sparse fields (the layout the supercell skip exists
// for), every query — wide, narrow, off-field, straddling empty
// supercell rows — returns the identical id sequence with the
// hierarchy on and off, across interleaved Move and Remove churn.
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
		fast := ix.AppendWithin(nil, center, radius)
		var flat []uint32
		withFlatScan(func() { flat = ix.AppendWithin(nil, center, radius) })
		if len(fast) != len(flat) {
			t.Fatalf("query (%.0f,%.0f) r=%.0f: hierarchy %d ids, flat %d ids",
				center.X, center.Y, radius, len(fast), len(flat))
		}
		for i := range flat {
			if fast[i] != flat[i] {
				t.Fatalf("query (%.0f,%.0f) r=%.0f: id %d is %d with hierarchy, %d flat",
					center.X, center.Y, radius, i, fast[i], flat[i])
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

	// Churn: move a third of the ids (some across supercells), remove a
	// few, and re-check.
	ids := make([]uint32, 0, len(pos))
	for i := range pos {
		ids = append(ids, i)
	}
	for i, mv := range ids {
		switch i % 3 {
		case 0:
			p := Position{X: rng.Float64() * 20000, Y: rng.Float64() * 20000}
			ix.Move(mv, p)
			pos[mv] = p
		case 1:
			if i%9 == 1 {
				ix.Remove(mv)
				delete(pos, mv)
			}
		}
	}
	queries()
}

// TestHierarchyCoarseCounts checks the supercell occupancy bookkeeping
// directly: after arbitrary insert/move/remove churn the coarse map
// must hold exactly one count per occupied supercell, each matching
// the ids beneath it.
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
		case r < 8:
			for id := range live {
				p := Position{X: rng.Float64()*2000 - 1000, Y: rng.Float64()*2000 - 1000}
				ix.Move(id, p)
				live[id] = p
				break
			}
		default:
			for id := range live {
				ix.Remove(id)
				delete(live, id)
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

// BenchmarkAppendWithinSparse measures the wide-query case the coarse
// layer targets: a clustered field where the query box spans hundreds
// of mostly-empty cells.
func benchmarkAppendWithinSparse(b *testing.B, hierarchy bool) {
	if !hierarchy {
		SetHierarchy(false)
		defer SetHierarchy(true)
	}
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

func BenchmarkAppendWithinSparseHierarchy(b *testing.B) { benchmarkAppendWithinSparse(b, true) }
func BenchmarkAppendWithinSparseFlat(b *testing.B)      { benchmarkAppendWithinSparse(b, false) }
