package phy

import (
	"fmt"
	"math"
	"sort"
	"time"
)

// This file derives the conservative-lookahead geometry for the
// space-partitioned parallel event kernel (sim.Exec). DESIGN.md carries
// the prose version of the derivation:
//
//  1. Regions interact only through the medium: the single way one
//     region's state can influence another's is a transmission, and
//     every transmission's indications (CCA edges, arrivals) reach any
//     receiver no earlier than PropDelay after it starts — the model's
//     one-way propagation bound. So ANY cross-region influence is
//     delayed by at least PropDelay, whatever the geometry: a uniform
//     one-bound lookahead between all region pairs is unconditionally
//     sound.
//  2. Distance buys more. The medium never propagates a transmission
//     beyond the field's relevance radius `reach` (Profile.ReachRange
//     against the lowest noise floor minus medium.IrrelevantMarginDB —
//     past it, no shadowing draw can shift any CCA, preamble-lock, or
//     SINR decision). Influence covering a distance D therefore needs a
//     chain of at least ceil(D/reach) transmissions — each hop of the
//     chain moves at most `reach` meters — and each chain link costs at
//     least PropDelay, even if every intermediate station reacts
//     instantly (a CCA edge can trigger a same-instant transmit
//     decision, so no larger per-link bound is sound).
//
// Hence a region may safely execute every event strictly earlier than
//
//	min over other regions R of (clock(R) + delay(R, self))
//	delay(R, S) = max(1, ceil(minDist(R, S)/reach)) · PropDelay
//
// where minDist is the minimum separation of the two regions'
// rectangles. This is exactly the horizon sim.Exec computes from the
// published region clocks, via MinPropagationDelay. On fields smaller
// than `reach` — the calibrated 802.11b model's worst-case relevance
// radius spans kilometers — every pair degenerates to the uniform
// one-PropDelay lookahead of step 1, which the event sparsity of the
// workloads (frame exchanges are tens of microseconds apart, PropDelay
// is one) still turns into usable parallelism.

// RegionGrid partitions the field into Cols×Rows axis-aligned
// rectangular regions for the parallel event kernel. Regions are
// numbered row-major: region = row·Cols + col. Any grid is sound (see
// the derivation above); its shape only moves the performance
// trade-off between load balance and cross-region traffic.
//
// The regions are bounded by explicit interior cut lines: XCuts holds
// Cols−1 ascending x coordinates and YCuts Rows−1 y coordinates (nil on
// an axis with a single slot), placed wherever the partitioner wants
// them — FitWeightedRegionGrid puts them at station weight quantiles.
// Slot k of an axis spans (cuts[k−1], cuts[k]], and the outer slots
// extend to infinity, so every position maps to a region. Neighbors
// share a cut line, which is all the lookahead derivation above needs:
// MinRegionDist measures the true gap between the two rectangles, and
// the closure prices influence chains across it.
type RegionGrid struct {
	Cols, Rows int

	// XCuts/YCuts are the interior cut lines in ascending order. Cuts
	// may coincide (a zero-width region) — sound, because a zero gap
	// only tightens the lookahead to the unconditional single
	// propagation bound.
	XCuts, YCuts []float64
}

// Regions returns the number of regions in the grid.
func (g RegionGrid) Regions() int { return g.Cols * g.Rows }

// RegionOf maps a position to its region index. The outer slots are
// unbounded, so a position off the field lands in a border region and
// never indexes out of range.
func (g RegionGrid) RegionOf(p Position) int {
	return sort.SearchFloat64s(g.YCuts, p.Y)*g.Cols + sort.SearchFloat64s(g.XCuts, p.X)
}

// MinRegionDist returns the minimum separation in meters between the
// two regions' rectangles (zero for the same or adjacent regions).
func (g RegionGrid) MinRegionDist(a, b int) float64 {
	ax, ay := a%g.Cols, a/g.Cols
	bx, by := b%g.Cols, b/g.Cols
	return math.Hypot(axisGap(ax, bx, g.XCuts), axisGap(ay, by, g.YCuts))
}

// axisGap is the one-axis separation between region slots a and b: the
// distance between their facing cut lines. Same or adjacent slots touch
// (gap zero).
func axisGap(a, b int, cuts []float64) float64 {
	if a > b {
		a, b = b, a
	}
	if b-a <= 1 {
		return 0
	}
	// Slot k spans (cuts[k-1], cuts[k]]: the gap between a and b is from
	// a's upper cut to b's lower cut. Cuts ascend, so it is non-negative
	// (coincident cuts give a zero gap, which only tightens the
	// lookahead toward the unconditional bound).
	return cuts[b-1] - cuts[a]
}

// String renders the grid compactly for diagnostics.
func (g RegionGrid) String() string {
	return fmt.Sprintf("%dx%d regions", g.Cols, g.Rows)
}

// MinPropagationDelay returns the minimum simulated time any influence
// needs to cover distM meters when a single transmission carries it at
// most reachM meters: one one-way propagation bound per chain link
// (step 2 of the derivation above), never less than one bound total
// (step 1). It is the per-region-pair lookahead of the conservative
// window protocol; a non-positive or non-finite reach degrades to the
// unconditional single bound.
func MinPropagationDelay(distM, reachM float64) time.Duration {
	links := 1.0
	if distM > 0 && reachM > 0 && !math.IsInf(reachM, 1) {
		links = math.Ceil(distM / reachM)
		if links < 1 {
			links = 1
		}
	}
	return time.Duration(links) * PropDelay
}

// FitWeightedRegionGrid is the occupancy-balanced partitioner: a
// cols×rows region grid (values below 1 clamp to 1) whose cut lines sit
// at weight quantiles of each axis's marginal, so every region column
// and row carries roughly the same share of the total station weight.
// A nil weights slice means unit weights (every station counts 1);
// callers that can predict where the event load will concentrate (the
// scenario layer weights flow endpoints) pass heavier weights there,
// and the cuts crowd around the hot spots. The product of the two
// marginals is not a perfect 2D equalizer, but it is exact for
// separable densities.
//
// Each cut falls at the midpoint between the two stations it separates,
// so boundary stations sit strictly inside their region whenever the
// coordinates differ. Degenerate inputs stay sound: coincident or
// collinear positions produce coincident cuts (zero-width regions,
// which only tighten the lookahead), and fewer than two positions,
// which no cut can separate, get the single-region layout. The
// assignment is a pure function of the positions and weights — no
// randomness, no iteration order.
func FitWeightedRegionGrid(positions []Position, weights []float64, cols, rows int) RegionGrid {
	if len(positions) < 2 || (cols <= 1 && rows <= 1) {
		return RegionGrid{Cols: 1, Rows: 1}
	}
	g := RegionGrid{Cols: max(cols, 1), Rows: max(rows, 1)}
	pts := make([]weightedCoord, len(positions))
	fill := func(coord func(Position) float64) {
		for i, p := range positions {
			w := 1.0
			if weights != nil {
				w = weights[i]
			}
			pts[i] = weightedCoord{c: coord(p), w: w}
		}
		sort.Slice(pts, func(i, j int) bool {
			if pts[i].c != pts[j].c {
				return pts[i].c < pts[j].c
			}
			return pts[i].w < pts[j].w
		})
	}
	if g.Cols > 1 {
		fill(func(p Position) float64 { return p.X })
		g.XCuts = quantileCuts(pts, g.Cols)
	}
	if g.Rows > 1 {
		fill(func(p Position) float64 { return p.Y })
		g.YCuts = quantileCuts(pts, g.Rows)
	}
	return g
}

// weightedCoord is one station's projection onto a partitioning axis.
type weightedCoord struct{ c, w float64 }

// quantileCuts places slots−1 interior cuts over the coordinate list
// (sorted ascending), each at the midpoint between the last station of
// one slot's weight share and the first of the next: cut c goes after
// the longest prefix whose weight does not exceed c/slots of the
// total. With unit weights that prefix is exactly ⌊c·n/slots⌋
// stations. The list holds at least two entries.
func quantileCuts(sorted []weightedCoord, slots int) []float64 {
	n := len(sorted)
	var total float64
	for _, p := range sorted {
		total += p.w
	}
	cuts := make([]float64, slots-1)
	k, prefix := 0, 0.0
	for c := 1; c < slots; c++ {
		target := total * float64(c) / float64(slots)
		for k < n && prefix+sorted[k].w <= target {
			prefix += sorted[k].w
			k++
		}
		j := k
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		cuts[c-1] = sorted[j-1].c + (sorted[j].c-sorted[j-1].c)/2
	}
	// Quantile midpoints of a sorted list ascend by construction, but
	// float rounding on near-equal neighbors could wobble; clamp so the
	// RegionOf binary search sees a sorted sequence no matter what.
	for i := 1; i < len(cuts); i++ {
		if cuts[i] < cuts[i-1] {
			cuts[i] = cuts[i-1]
		}
	}
	return cuts
}
