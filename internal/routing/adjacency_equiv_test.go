package routing

import (
	"reflect"
	"testing"

	"adhocsim/internal/phy"
	"adhocsim/internal/sim"
)

// TestIndexedAdjacencyMatchesBrute pins the spatial-hash edge discovery
// against an all-pairs scan the test runs itself, on a field big enough
// to take the indexed path: identical adjacency lists (order included,
// so BFS tie-breaks agree), and identical next-hop tables and hop
// counts when both graphs are solved.
func TestIndexedAdjacencyMatchesBrute(t *testing.T) {
	rng := sim.NewSource(7).Stream("routing.adjacency-test")
	n := 4 * indexedAdjacencyMin
	positions := make([]phy.Position, n)
	for i := range positions {
		positions[i] = phy.Pos(rng.Float64()*3000, rng.Float64()*3000)
	}
	const linkRange = 130.0

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
	if edges == 0 {
		t.Fatal("graph has no edges: the field does not exercise edge discovery")
	}
	if !reflect.DeepEqual(indexed.adj, brute.adj) {
		t.Error("adjacency lists differ between indexed discovery and the all-pairs scan")
	}
	if !reflect.DeepEqual(indexed.next, brute.next) {
		t.Error("next-hop tables differ between indexed discovery and the all-pairs scan")
	}
	if !reflect.DeepEqual(indexed.hops, brute.hops) {
		t.Error("hop counts differ between indexed discovery and the all-pairs scan")
	}
}
