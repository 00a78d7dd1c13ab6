package phy

import (
	"math/rand"
	"reflect"
	"testing"
	"time"

	"adhocsim/internal/sim"
)

// bruteWithin is the reference the index must never under-report: all
// ids within radius of center, by exact distance.
func bruteWithin(pos map[uint32]Position, center Position, radius float64) map[uint32]bool {
	out := map[uint32]bool{}
	for id, p := range pos {
		if Dist(center, p) <= radius {
			out[id] = true
		}
	}
	return out
}

// TestCellIndexNeverMissesInRange is the index's core contract: for
// random point sets, radii and cell sizes, every id within the query
// radius appears in the query result (the over-approximation may add
// neighbors just beyond it, never drop one inside it).
func TestCellIndexNeverMissesInRange(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 50; trial++ {
		cell := 10 + rng.Float64()*500
		ix := NewCellIndex(cell)
		pos := map[uint32]Position{}
		n := 1 + rng.Intn(200)
		for id := uint32(1); id <= uint32(n); id++ {
			p := Pos(rng.Float64()*2000-500, rng.Float64()*2000-500)
			pos[id] = p
			ix.Insert(id, p)
		}
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

// TestCellIndexDeterministicOrder: the query output order is a pure
// function of the id→position map — rebuilding the same point set in a
// different insertion order, or reaching it through a history of moves,
// yields byte-identical query results.
func TestCellIndexDeterministicOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	pos := map[uint32]Position{}
	for id := uint32(1); id <= 100; id++ {
		pos[id] = Pos(rng.Float64()*1000, rng.Float64()*1000)
	}

	forward := NewCellIndex(150)
	for id := uint32(1); id <= 100; id++ {
		forward.Insert(id, pos[id])
	}
	backward := NewCellIndex(150)
	for id := uint32(100); id >= 1; id-- {
		backward.Insert(id, pos[id])
	}
	moved := NewCellIndex(150)
	for id := uint32(1); id <= 100; id++ {
		moved.Insert(id, Pos(rng.Float64()*1000, rng.Float64()*1000))
	}
	for id := uint32(1); id <= 100; id++ {
		moved.Move(id, pos[id])
	}

	for q := 0; q < 30; q++ {
		center := Pos(rng.Float64()*1000, rng.Float64()*1000)
		radius := rng.Float64() * 400
		want := forward.AppendWithin(nil, center, radius)
		for name, ix := range map[string]*CellIndex{"backward": backward, "moved": moved} {
			if got := ix.AppendWithin(nil, center, radius); !reflect.DeepEqual(got, want) {
				t.Fatalf("%s-built index query differs:\n got %v\nwant %v", name, got, want)
			}
		}
	}
}

func TestCellIndexMoveAcrossCells(t *testing.T) {
	ix := NewCellIndex(100)
	ix.Insert(1, Pos(50, 50))
	ix.Insert(2, Pos(250, 50))
	if got := ix.AppendWithin(nil, Pos(50, 50), 10); len(got) != 1 || got[0] != 1 {
		t.Fatalf("initial query = %v, want [1]", got)
	}
	ix.Move(1, Pos(260, 50)) // crosses two cell boundaries
	if got := ix.AppendWithin(nil, Pos(255, 50), 20); len(got) != 2 || got[0] != 1 || got[1] != 2 {
		t.Fatalf("post-move query = %v, want [1 2]", got)
	}
	if got := ix.AppendWithin(nil, Pos(50, 50), 60); len(got) != 0 {
		t.Fatalf("old cell still reports %v after move", got)
	}
	ix.Move(1, Pos(261, 50)) // same cell: no relocation
	if ix.Len() != 2 {
		t.Fatalf("Len() = %d, want 2", ix.Len())
	}
}

func TestCellIndexDuplicateInsertPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate insert did not panic")
		}
	}()
	ix := NewCellIndex(10)
	ix.Insert(1, Pos(0, 0))
	ix.Insert(1, Pos(5, 5))
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
