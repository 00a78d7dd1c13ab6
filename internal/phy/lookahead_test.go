package phy

import (
	"math"
	"slices"
	"testing"
	"time"
)

func TestRegionOfClamping(t *testing.T) {
	g := RegionGrid{Cols: 3, Rows: 2, XCuts: []float64{100, 200}, YCuts: []float64{100}}
	for _, tc := range []struct {
		pos  Position
		want int
	}{
		{Position{X: 50, Y: 50}, 0},
		{Position{X: 150, Y: 50}, 1},
		{Position{X: 250, Y: 150}, 5},
		// Off-field positions clamp to border regions, never index out.
		{Position{X: -40, Y: 50}, 0},
		{Position{X: 1e6, Y: 1e6}, 5},
		{Position{X: 150, Y: -3}, 1},
		// The far edge itself belongs to the last region.
		{Position{X: 300, Y: 200}, 5},
	} {
		if got := g.RegionOf(tc.pos); got != tc.want {
			t.Errorf("RegionOf(%+v) = %d, want %d", tc.pos, got, tc.want)
		}
	}
}

func TestRegionOfDegenerateCells(t *testing.T) {
	// A zero-extent dimension (all stations on one line) must map
	// everything into the first row: with a single row there is no y
	// cut at all, and with several the cuts coincide on the line.
	for _, g := range []RegionGrid{
		{Cols: 2, Rows: 1, XCuts: []float64{10}},
		{Cols: 2, Rows: 3, XCuts: []float64{10}, YCuts: []float64{5, 5}},
	} {
		if got := g.RegionOf(Position{X: 15, Y: 5}); got != 1 {
			t.Errorf("RegionOf on zero-height %dx%d grid = %d, want 1", g.Cols, g.Rows, got)
		}
	}
}

func TestMinRegionDist(t *testing.T) {
	g := RegionGrid{Cols: 4, Rows: 3, XCuts: []float64{100, 200, 300}, YCuts: []float64{50, 100}}
	for _, tc := range []struct {
		a, b int
		want float64
	}{
		{0, 0, 0},
		{0, 1, 0}, // adjacent: rectangles touch
		{0, 5, 0}, // diagonal neighbors touch at the corner
		{0, 2, 100},
		{0, 3, 200},
		{0, 8, 50},                   // two rows down: one full cell height apart
		{0, 10, math.Hypot(100, 50)}, // (2,2): one cell gap each way
	} {
		if got := g.MinRegionDist(tc.a, tc.b); math.Abs(got-tc.want) > 1e-9 {
			t.Errorf("MinRegionDist(%d,%d) = %v, want %v", tc.a, tc.b, got, tc.want)
		}
		if sym := g.MinRegionDist(tc.b, tc.a); sym != g.MinRegionDist(tc.a, tc.b) {
			t.Errorf("MinRegionDist(%d,%d) not symmetric", tc.a, tc.b)
		}
	}
}

func TestMinPropagationDelay(t *testing.T) {
	for _, tc := range []struct {
		dist, reach float64
		want        time.Duration
	}{
		// Step 1 of the derivation: one bound, whatever the geometry.
		{0, 500, PropDelay},
		{100, 500, PropDelay},
		{500, 500, PropDelay},
		// Step 2: distance buys whole extra links.
		{501, 500, 2 * PropDelay},
		{1500, 500, 3 * PropDelay},
		// Degenerate radio models degrade to the unconditional bound.
		{1000, 0, PropDelay},
		{1000, -1, PropDelay},
		{1000, math.Inf(1), PropDelay},
		{-5, 500, PropDelay},
	} {
		if got := MinPropagationDelay(tc.dist, tc.reach); got != tc.want {
			t.Errorf("MinPropagationDelay(%v, %v) = %v, want %v", tc.dist, tc.reach, got, tc.want)
		}
	}
}

// TestFitRegionGrid pins the fitter's shape handling: every input
// position lands inside the grid, dimensions below one region clamp to
// one, and fewer than two positions — nothing a cut could separate —
// get the single-region layout.
func TestFitRegionGrid(t *testing.T) {
	pos := []Position{{X: 10, Y: 20}, {X: 110, Y: 70}, {X: 60, Y: 45}}
	g := FitWeightedRegionGrid(pos, nil, 2, 2)
	if g.Cols != 2 || g.Rows != 2 || len(g.XCuts) != 1 || len(g.YCuts) != 1 {
		t.Errorf("fitted grid = %+v, want 2x2 with one cut per axis", g)
	}
	for _, p := range pos {
		r := g.RegionOf(p)
		if r < 0 || r >= g.Regions() {
			t.Errorf("RegionOf(%+v) = %d out of range", p, r)
		}
	}
	if g := FitWeightedRegionGrid(pos, nil, 0, -2); g.Cols != 1 || g.Rows != 1 || g.XCuts != nil || g.YCuts != nil {
		t.Errorf("clamped grid = %+v, want 1x1 without cuts", g)
	}
	for _, few := range [][]Position{nil, {{X: 5, Y: 5}}} {
		if g := FitWeightedRegionGrid(few, nil, 3, 3); g.Regions() != 1 || g.RegionOf(Position{X: 1e9}) != 0 {
			t.Errorf("fit of %d positions = %+v, want a single region", len(few), g)
		}
	}
}

// TestFitRegionGridDegenerate pins the degenerate bounding boxes: every
// station at one point (zero extent both ways), a single row
// (zero-height box) and a single station. Unit and weighted fits must
// produce grids whose RegionOf stays in range for the stations
// themselves and for off-field positions — an unclamped index here
// would crash the parallel kernel's station placement.
func TestFitRegionGridDegenerate(t *testing.T) {
	fitters := []struct {
		name string
		fit  func([]Position, int, int) RegionGrid
	}{
		{"unit", func(pos []Position, c, r int) RegionGrid { return FitWeightedRegionGrid(pos, nil, c, r) }},
		{"weighted", func(pos []Position, c, r int) RegionGrid {
			w := make([]float64, len(pos))
			for i := range w {
				w[i] = float64(1 + i%3)
			}
			return FitWeightedRegionGrid(pos, w, c, r)
		}},
	}
	onePoint := []Position{{X: 7, Y: 7}, {X: 7, Y: 7}, {X: 7, Y: 7}}
	row := []Position{{X: 0, Y: 3}, {X: 10, Y: 3}, {X: 20, Y: 3}, {X: 30, Y: 3}}
	one := []Position{{X: 5, Y: 5}}
	probes := []Position{{X: 7, Y: 7}, {X: -100, Y: 50}, {X: 1e9, Y: -1e9}, {}}
	for _, f := range fitters {
		for name, pos := range map[string][]Position{"one-point": onePoint, "single-row": row, "one-station": one} {
			g := f.fit(pos, 4, 4)
			for _, p := range append(append([]Position{}, pos...), probes...) {
				if r := g.RegionOf(p); r < 0 || r >= g.Regions() {
					t.Errorf("%s/%s: RegionOf(%+v) = %d out of [0,%d)", f.name, name, p, r, g.Regions())
				}
			}
			// The degenerate geometry must also keep the lookahead inputs
			// finite and non-negative.
			for a := 0; a < g.Regions(); a++ {
				for b := 0; b < g.Regions(); b++ {
					if d := g.MinRegionDist(a, b); math.IsNaN(d) || d < 0 {
						t.Fatalf("%s/%s: MinRegionDist(%d,%d) = %v", f.name, name, a, b, d)
					}
				}
			}
		}
		// All stations coincident: everything lands in one region.
		g := f.fit(onePoint, 4, 4)
		want := g.RegionOf(onePoint[0])
		for _, p := range onePoint {
			if g.RegionOf(p) != want {
				t.Errorf("%s: coincident stations split across regions", f.name)
			}
		}
		// A single station: no cut can separate anything, so the grid
		// is one region whatever shape was asked for.
		if g := f.fit(one, 2, 2); g.Regions() != 1 {
			t.Errorf("%s: one-station fit has %d regions, want 1", f.name, g.Regions())
		}
	}
	// A single row on a multi-row grid: the zero-height box puts every
	// station in row 0, and columns still split by X.
	g := FitWeightedRegionGrid(row, nil, 2, 3)
	if r := g.RegionOf(row[0]); r != 0 {
		t.Errorf("single-row leftmost station in region %d, want 0", r)
	}
	if r := g.RegionOf(row[3]); r != 1 {
		t.Errorf("single-row rightmost station in region %d, want 1", r)
	}
}

// TestFitWeightedRegionGridQuantiles pins the quantile cut placement: a
// clustered field splits so each column holds an equal share of
// stations, with each cut at the midpoint between the stations it
// separates.
func TestFitWeightedRegionGridQuantiles(t *testing.T) {
	// 6 stations on a line: 4 crowded left, 2 far right. Equal-width
	// cells would put 4 of 6 in the left region; the quantile cut
	// splits 3/3.
	pos := []Position{
		{X: 0}, {X: 1}, {X: 2}, {X: 3}, {X: 100}, {X: 101},
	}
	g := FitWeightedRegionGrid(pos, nil, 2, 1)
	if len(g.XCuts) != 1 || g.YCuts != nil {
		t.Fatalf("cuts = %v / %v, want one x cut", g.XCuts, g.YCuts)
	}
	// The cut separates sorted[2]=2 from sorted[3]=3: midpoint 2.5.
	if got := g.XCuts[0]; got != 2.5 {
		t.Errorf("cut at %v, want 2.5", got)
	}
	var left, right int
	for _, p := range pos {
		if g.RegionOf(p) == 0 {
			left++
		} else {
			right++
		}
	}
	if left != 3 || right != 3 {
		t.Errorf("balanced split %d/%d, want 3/3", left, right)
	}

	// On an evenly spaced field the quantile cuts fall halfway between
	// stations, so each 4x2 region gets an equal share.
	var even []Position
	for i := 0; i < 16; i++ {
		even = append(even, Position{X: float64(i), Y: float64(i % 4)})
	}
	bal := FitWeightedRegionGrid(even, nil, 4, 2)
	if want := []float64{3.5, 7.5, 11.5}; !slices.Equal(bal.XCuts, want) {
		t.Errorf("even field: x cuts %v, want %v", bal.XCuts, want)
	}
	if want := []float64{1.5}; !slices.Equal(bal.YCuts, want) {
		t.Errorf("even field: y cuts %v, want %v", bal.YCuts, want)
	}
	per := make([]int, bal.Regions())
	for _, p := range even {
		per[bal.RegionOf(p)]++
	}
	for r, n := range per {
		if n != 2 {
			t.Errorf("even field: region %d holds %d stations, want 2", r, n)
		}
	}

	// A station exactly on a cut belongs to the left/lower region
	// (slot k spans (cut[k-1], cut[k]]).
	onCut := RegionGrid{Cols: 2, Rows: 1, XCuts: []float64{10}}
	if r := onCut.RegionOf(Position{X: 10}); r != 0 {
		t.Errorf("station on the cut in region %d, want 0", r)
	}
	if r := onCut.RegionOf(Position{X: 10.001}); r != 1 {
		t.Errorf("station past the cut in region %d, want 1", r)
	}
}

// TestBalancedMinRegionDist pins the lookahead geometry on explicit
// cut lines: the gap between non-adjacent regions is the distance
// between their facing cuts and adjacent regions touch.
func TestBalancedMinRegionDist(t *testing.T) {
	// Columns cut at 10 and 80, rows at 30.
	g := RegionGrid{Cols: 3, Rows: 2, XCuts: []float64{10, 80}, YCuts: []float64{30}}
	if d := g.MinRegionDist(0, 1); d != 0 {
		t.Errorf("adjacent balanced regions: dist %v, want 0", d)
	}
	// Regions 0 and 2: the gap is the middle column's width, 80-10.
	if d := g.MinRegionDist(0, 2); math.Abs(d-70) > 1e-9 {
		t.Errorf("gap across the middle column = %v, want 70", d)
	}
	// Diagonal: region 0 (row 0) to region 5 (row 1, col 2) — x gap 70,
	// y gap 0 (rows are adjacent).
	if d := g.MinRegionDist(0, 5); math.Abs(d-70) > 1e-9 {
		t.Errorf("diagonal balanced dist = %v, want 70", d)
	}
	// Coincident cuts: a zero-width region yields a zero gap — sound,
	// it only tightens the lookahead to the unconditional bound.
	z := RegionGrid{Cols: 3, Rows: 1, XCuts: []float64{5, 5}}
	if d := z.MinRegionDist(0, 2); d != 0 {
		t.Errorf("zero-width middle region: dist %v, want 0", d)
	}
}
