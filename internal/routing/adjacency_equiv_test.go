package routing

import (
	"math"
	"reflect"
	"testing"

	"adhocsim/internal/phy"
	"adhocsim/internal/sim"
)

// TestIndexedAdjacencyMatchesBrute pins the grid edge discovery
// against an all-pairs scan the test runs itself: identical adjacency
// lists (order included, so BFS tie-breaks agree), and identical
// next-hop tables and hop counts when both graphs are solved. It runs
// on a 1024-station field and on a small one with stacked stations,
// including link radii of 0 (only stacked stations link) and +Inf
// (every pair links).
func TestIndexedAdjacencyMatchesBrute(t *testing.T) {
	rng := sim.NewSource(7).Stream("routing.adjacency-test")
	field := make([]phy.Position, 1024)
	for i := range field {
		field[i] = phy.Pos(rng.Float64()*3000, rng.Float64()*3000)
	}
	small := append([]phy.Position(nil), field[:10]...)
	small = append(small, small[3], small[7])
	for _, tc := range []struct {
		positions []phy.Position
		linkRange float64
		minEdges  int
	}{
		{field, 130, 1},
		{small, 900, 1},
		{small, 0, 4},
		{small, math.Inf(1), 12 * 11},
	} {
		checkAdjacency(t, tc.positions, tc.linkRange, tc.minEdges)
	}
}

func checkAdjacency(t *testing.T, positions []phy.Position, linkRange float64, minEdges int) {
	t.Helper()
	n := len(positions)
	indexed := NewGraph(positions, linkRange)
	brute := &Graph{
		n:         n,
		linkRange: linkRange,
		adj:       make([][]int32, n),
		next:      make([][]int32, n),
		hops:      make([][]int32, n),
	}
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if phy.Dist(positions[i], positions[j]) <= linkRange {
				brute.adj[i] = append(brute.adj[i], int32(j))
				brute.adj[j] = append(brute.adj[j], int32(i))
			}
		}
	}
	brute.solve()

	edges := 0
	for i := range indexed.adj {
		edges += len(indexed.adj[i])
	}
	if edges < minEdges {
		t.Fatalf("%d stations, link range %g: %d adjacency entries, want at least %d", n, linkRange, edges, minEdges)
	}
	if !reflect.DeepEqual(indexed.adj, brute.adj) {
		t.Errorf("%d stations, link range %g: adjacency lists differ between grid discovery and the all-pairs scan", n, linkRange)
	}
	if !reflect.DeepEqual(indexed.next, brute.next) {
		t.Errorf("%d stations, link range %g: next-hop tables differ between grid discovery and the all-pairs scan", n, linkRange)
	}
	if !reflect.DeepEqual(indexed.hops, brute.hops) {
		t.Errorf("%d stations, link range %g: hop counts differ between grid discovery and the all-pairs scan", n, linkRange)
	}
}
