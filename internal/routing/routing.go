// Package routing is the route control plane of the simulator: it
// decides, per station, which next hop carries a packet toward each
// destination, and installs those decisions into the network layer's
// route table (network.Stack.AddRoute).
//
// Two protocols are provided, matching the two classic ways ad hoc
// networks obtain routes:
//
//   - a static shortest-path compiler (InstallStatic): the omniscient
//     baseline. It derives the connectivity graph from station
//     positions and a link radius, runs a BFS per source, and installs
//     min-hop next hops at build time. No control traffic, no
//     convergence delay, no reaction to topology change.
//
//   - DSDV (New/Start), the sequence-numbered distance-vector protocol
//     of Perkins & Bhagwat: periodic and triggered route
//     advertisements broadcast over network.ProtoRouting, freshest-
//     sequence-number-wins route selection, and route invalidation
//     driven by MAC transmit-failure feedback (mac.TxObserver).
//
// Both protocols flip the stacks they manage into RequireRoutes mode:
// the route table becomes the single source of reachability truth, and
// sending to an unresolved destination fails with network.ErrNoRoute
// instead of gambling on a direct transmission.
package routing

import (
	"fmt"
	"slices"

	"adhocsim/internal/mac"
	"adhocsim/internal/network"
	"adhocsim/internal/phy"
)

// Protocol names, as scenario specs spell them.
const (
	// ProtocolStatic selects the build-time shortest-path compiler.
	ProtocolStatic = "static"
	// ProtocolDSDV selects the dynamic distance-vector protocol.
	ProtocolDSDV = "dsdv"
)

// Protocols lists the route control planes a scenario can select.
func Protocols() []string { return []string{ProtocolStatic, ProtocolDSDV} }

// Node is one station as the routing subsystem sees it: its network
// address, a position (for the static compiler), and the stack and MAC
// the control plane hooks into.
type Node struct {
	Addr  network.Addr
	Pos   phy.Position
	Stack *network.Stack
	MAC   *mac.MAC
}

// Graph is a station connectivity graph plus its all-pairs min-hop
// routing solution. Stations are vertices; an undirected edge joins
// every pair closer than the link radius. Ties between equal-length
// paths break toward the lowest next-hop index, so the compiled routes
// are a pure function of the positions — no randomness, no map-order
// dependence.
type Graph struct {
	n         int
	linkRange float64
	adj       [][]int32 // ascending neighbor indices
	next      [][]int32 // next[src][dst] = first hop index, -1 unreachable
	hops      [][]int32 // hops[src][dst] = path length, -1 unreachable
}

// NewGraph builds the connectivity graph over the given positions with
// the given link radius (meters) and solves min-hop paths between every
// pair.
func NewGraph(positions []phy.Position, linkRange float64) *Graph {
	n := len(positions)
	g := &Graph{
		n:         n,
		linkRange: linkRange,
		adj:       make([][]int32, n),
		next:      make([][]int32, n),
		hops:      make([][]int32, n),
	}
	// Edge discovery through a spatial grid with the link radius as
	// cell size: each station probes its 3×3 cell neighborhood instead
	// of the whole field, O(n·earshot) against an all-pairs scan's
	// O(n²). The candidate list is sorted and filtered to j>i, so every
	// adjacency append happens in exactly the order an all-pairs loop
	// over i<j performs it — identical lists, identical BFS tie-breaks.
	ix := phy.NewCellIndex(positions, linkRange)
	var buf []uint32
	for i := 0; i < n; i++ {
		buf = ix.AppendWithin(buf[:0], positions[i], linkRange)
		slices.Sort(buf)
		for _, v := range buf {
			j := int(v)
			if j > i && phy.Dist(positions[i], positions[j]) <= linkRange {
				g.adj[i] = append(g.adj[i], int32(j))
				g.adj[j] = append(g.adj[j], int32(i))
			}
		}
	}
	g.solve()
	return g
}

// solve fills the next-hop and hop-count tables from the adjacency
// lists by one BFS per source. The i<j discovery order in NewGraph
// leaves every adjacency list ascending (a vertex receives all smaller
// neighbors before any larger one), so BFS visits neighbors in index
// order and tie-breaks are stable.
func (g *Graph) solve() {
	n := g.n
	queue := make([]int32, 0, n)
	for src := 0; src < n; src++ {
		next := make([]int32, n)
		hops := make([]int32, n)
		for i := range next {
			next[i], hops[i] = -1, -1
		}
		hops[src] = 0
		queue = queue[:0]
		queue = append(queue, int32(src))
		for len(queue) > 0 {
			u := queue[0]
			queue = queue[1:]
			for _, v := range g.adj[u] {
				if hops[v] >= 0 {
					continue
				}
				hops[v] = hops[u] + 1
				if u == int32(src) {
					next[v] = v
				} else {
					next[v] = next[u]
				}
				queue = append(queue, v)
			}
		}
		g.next[src] = next
		g.hops[src] = hops
	}
}

// LinkRange returns the link radius the graph was built with.
func (g *Graph) LinkRange() float64 { return g.linkRange }

// Degree returns the number of direct neighbors of station i.
func (g *Graph) Degree(i int) int { return len(g.adj[i]) }

// Hops returns the min-hop distance from src to dst, or -1 when dst is
// unreachable.
func (g *Graph) Hops(src, dst int) int { return int(g.hops[src][dst]) }

// NextHop returns the first-hop station index on the min-hop path from
// src to dst, or -1 when dst is unreachable.
func (g *Graph) NextHop(src, dst int) int { return int(g.next[src][dst]) }

// InstallStatic derives the connectivity graph from the nodes'
// positions and the link radius, solves min-hop paths, and installs the
// resulting next hops into every node's route table. Forwarding is
// enabled and the stacks are switched to RequireRoutes mode, so
// unreachable destinations fail fast with network.ErrNoRoute. Existing
// routes are cleared first, which is what makes the call idempotent and
// lets a reused (Reset) network be recompiled against re-drawn
// positions.
//
// The returned graph reports hop counts and reachability; callers
// validate their traffic matrix against it.
func InstallStatic(nodes []Node, linkRange float64) *Graph {
	positions := make([]phy.Position, len(nodes))
	for i, nd := range nodes {
		positions[i] = nd.Pos
	}
	g := NewGraph(positions, linkRange)
	g.Install(nodes)
	return g
}

// Install writes the graph's min-hop next hops into every node's route
// table (clearing existing routes first) and switches the stacks into
// forwarding + RequireRoutes mode. Callers that already hold a solved
// graph — a validation pass, say — install it directly instead of
// paying InstallStatic's recompute; nodes must be indexed like the
// positions the graph was built from.
func (g *Graph) Install(nodes []Node) {
	for src, nd := range nodes {
		nd.Stack.Forwarding = true
		nd.Stack.RequireRoutes = true
		nd.Stack.ClearRoutes()
		for dst := range nodes {
			if dst == src {
				continue
			}
			if via := g.NextHop(src, dst); via >= 0 {
				nd.Stack.AddRoute(nodes[dst].Addr, nodes[via].Addr)
			}
		}
	}
}

// DefaultLinkRange returns the link radius the static compiler uses
// when the scenario does not pin one: the profile's median transmission
// range at the given data rate — the paper's TX_range, the distance at
// which half the frames survive. Beyond it a link loses most frames, so
// min-hop paths over this graph are paths the MAC can actually sustain.
//
// Profile.ReachRange — the spatial index's relevance radius — is NOT a
// usable link predicate here: it answers "could a frame ever arrive
// under the luckiest fade?" (a ±8σ bound), which would connect station
// pairs whose links lose essentially every packet. See DESIGN.md.
func DefaultLinkRange(p *phy.Profile, rate phy.Rate) float64 {
	return p.MedianRange(rate)
}

// String renders a compact description of the graph for logs and
// errors.
func (g *Graph) String() string {
	edges := 0
	for _, a := range g.adj {
		edges += len(a)
	}
	return fmt.Sprintf("routing.Graph{%d stations, %d links, range %.1fm}", g.n, edges/2, g.linkRange)
}
