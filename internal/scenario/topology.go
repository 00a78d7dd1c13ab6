package scenario

import (
	"fmt"
	"math"

	"adhocsim/internal/phy"
	"adhocsim/internal/sim"
)

// Topology kinds.
const (
	// KindExplicit places stations at Positions verbatim.
	KindExplicit = "explicit"
	// KindLine places N stations on the x-axis, spaced by Spacing or by
	// the per-hop Spacings list (the paper's four-station layout).
	KindLine = "line"
	// KindGrid places Rows×Cols stations with Spacing meters between
	// neighbors.
	KindGrid = "grid"
	// KindRing places N stations evenly on a circle of Radius meters.
	KindRing = "ring"
	// KindRandomUniform draws N stations uniformly over a Width×Height
	// field, deterministically from the spec seed.
	KindRandomUniform = "random-uniform"
	// KindClusteredBlocks scatters N stations into Rows×Cols dense
	// clusters ("city blocks") spread over a Width×Height field, each
	// station within Radius meters of its block center. Stations are
	// assigned to blocks consecutively — stations i and i+1 almost
	// always share a block — so index locality is spatial locality,
	// which is what the kernel's SoA hot state and the parallel
	// partition both want at city scale.
	KindClusteredBlocks = "clustered-blocks"
)

// MaxStations is the most stations a topology may place: ten times the
// largest preset, the 100k block city. A count past it fails at
// validation, before Expand allocates a position per station, instead
// of exhausting memory or panicking at Build.
const MaxStations = 1 << 20

// tooMany is the error for a topology of n stations over MaxStations.
func tooMany(kind string, n int) error {
	return fmt.Errorf("scenario: %s topology of %d stations exceeds the %d-station limit", kind, n, MaxStations)
}

// TopologyKinds lists the supported generators.
func TopologyKinds() []string {
	return []string{KindExplicit, KindLine, KindGrid, KindRing, KindRandomUniform, KindClusteredBlocks}
}

// Topology describes where the stations stand. Kind selects the
// generator; the other fields parameterize it (unused fields are
// ignored).
type Topology struct {
	Kind string `json:"kind"`

	// N is the station count for line, ring, random-uniform and
	// clustered-blocks. For explicit it is implied by Positions, for
	// grid by Rows×Cols.
	N int `json:"n,omitempty"`

	// Positions are explicit [x, y] station coordinates in meters.
	Positions [][2]float64 `json:"positions,omitempty"`

	// Spacing is the uniform neighbor distance for line and grid.
	Spacing float64 `json:"spacing,omitempty"`
	// Spacings gives per-hop distances for line (length N-1), overriding
	// Spacing; the paper's 25/82.5/25 m four-station line uses this.
	Spacings []float64 `json:"spacings,omitempty"`

	// Rows and Cols shape the grid, or the block grid of
	// clustered-blocks.
	Rows int `json:"rows,omitempty"`
	Cols int `json:"cols,omitempty"`

	// Radius is the ring's circumradius, or the cluster radius of
	// clustered-blocks, in meters.
	Radius float64 `json:"radius,omitempty"`

	// Width and Height bound the random-uniform field in meters.
	Width  float64 `json:"width,omitempty"`
	Height float64 `json:"height,omitempty"`
}

// Expand generates the topology's station coordinates. Random
// topologies draw from a stream derived from seed, so the same spec
// always lays out the same field.
func (t Topology) Expand(seed uint64) ([]phy.Position, error) {
	switch t.Kind {
	case KindExplicit:
		if len(t.Positions) == 0 {
			return nil, fmt.Errorf("scenario: explicit topology without positions")
		}
		if t.N != 0 && t.N != len(t.Positions) {
			return nil, fmt.Errorf("scenario: explicit n=%d contradicts %d positions", t.N, len(t.Positions))
		}
		if len(t.Positions) > MaxStations {
			return nil, tooMany(t.Kind, len(t.Positions))
		}
		out := make([]phy.Position, len(t.Positions))
		for i, p := range t.Positions {
			out[i] = phy.Pos(p[0], p[1])
		}
		return out, nil

	case KindLine:
		n := t.N
		if n == 0 && len(t.Spacings) > 0 {
			n = len(t.Spacings) + 1
		}
		if n < 2 {
			return nil, fmt.Errorf("scenario: line topology needs n ≥ 2, got %d", n)
		}
		if n > MaxStations {
			return nil, tooMany(t.Kind, n)
		}
		hops := t.Spacings
		if len(hops) == 0 {
			if t.Spacing < 0 {
				return nil, fmt.Errorf("scenario: line topology needs non-negative spacing")
			}
			hops = make([]float64, n-1)
			for i := range hops {
				hops[i] = t.Spacing
			}
		}
		if len(hops) != n-1 {
			return nil, fmt.Errorf("scenario: line topology has %d spacings for %d stations (want %d)", len(hops), n, n-1)
		}
		out := make([]phy.Position, n)
		x := 0.0
		out[0] = phy.Pos(0, 0)
		// Zero-length hops are legal (colocated stations); only negative
		// distances are geometry errors.
		for i, h := range hops {
			if h < 0 {
				return nil, fmt.Errorf("scenario: line spacing %d is negative", i)
			}
			x += h
			out[i+1] = phy.Pos(x, 0)
		}
		return out, nil

	case KindGrid:
		if t.Rows < 1 || t.Cols < 1 {
			return nil, fmt.Errorf("scenario: grid topology needs rows ≥ 1 and cols ≥ 1")
		}
		if t.Rows > MaxStations/t.Cols {
			return nil, fmt.Errorf("scenario: grid topology of %d×%d stations exceeds the %d-station limit", t.Rows, t.Cols, MaxStations)
		}
		if t.Spacing <= 0 {
			return nil, fmt.Errorf("scenario: grid topology needs positive spacing")
		}
		if t.N != 0 && t.N != t.Rows*t.Cols {
			return nil, fmt.Errorf("scenario: grid n=%d contradicts rows×cols=%d", t.N, t.Rows*t.Cols)
		}
		out := make([]phy.Position, 0, t.Rows*t.Cols)
		for r := 0; r < t.Rows; r++ {
			for c := 0; c < t.Cols; c++ {
				out = append(out, phy.Pos(float64(c)*t.Spacing, float64(r)*t.Spacing))
			}
		}
		return out, nil

	case KindRing:
		if t.N < 3 {
			return nil, fmt.Errorf("scenario: ring topology needs n ≥ 3, got %d", t.N)
		}
		if t.N > MaxStations {
			return nil, tooMany(t.Kind, t.N)
		}
		if t.Radius <= 0 {
			return nil, fmt.Errorf("scenario: ring topology needs positive radius")
		}
		out := make([]phy.Position, t.N)
		for i := range out {
			theta := 2 * math.Pi * float64(i) / float64(t.N)
			// Center at (R, R) so coordinates stay non-negative.
			out[i] = phy.Pos(t.Radius*(1+math.Cos(theta)), t.Radius*(1+math.Sin(theta)))
		}
		return out, nil

	case KindRandomUniform:
		if t.N < 1 {
			return nil, fmt.Errorf("scenario: random-uniform topology needs n ≥ 1, got %d", t.N)
		}
		if t.N > MaxStations {
			return nil, tooMany(t.Kind, t.N)
		}
		if t.Width <= 0 || t.Height <= 0 {
			return nil, fmt.Errorf("scenario: random-uniform topology needs positive width and height")
		}
		rng := sim.NewSource(seed).Stream("scenario.topology")
		out := make([]phy.Position, t.N)
		for i := range out {
			out[i] = phy.Pos(rng.Float64()*t.Width, rng.Float64()*t.Height)
		}
		return out, nil

	case KindClusteredBlocks:
		if t.N < 1 {
			return nil, fmt.Errorf("scenario: clustered-blocks topology needs n ≥ 1, got %d", t.N)
		}
		if t.N > MaxStations {
			return nil, tooMany(t.Kind, t.N)
		}
		if t.Rows < 1 || t.Cols < 1 {
			return nil, fmt.Errorf("scenario: clustered-blocks topology needs rows ≥ 1 and cols ≥ 1")
		}
		if t.Width <= 0 || t.Height <= 0 {
			return nil, fmt.Errorf("scenario: clustered-blocks topology needs positive width and height")
		}
		if t.Radius <= 0 {
			return nil, fmt.Errorf("scenario: clustered-blocks topology needs positive radius")
		}
		blocks := t.Rows * t.Cols
		bw, bh := t.Width/float64(t.Cols), t.Height/float64(t.Rows)
		rng := sim.NewSource(seed).Stream("scenario.topology")
		out := make([]phy.Position, t.N)
		for i := range out {
			// Consecutive assignment: station i belongs to block
			// i·blocks/N, so each block holds one contiguous index range
			// (see the kind's doc comment). Draws are clamped to the
			// field so positions stay non-negative whatever the radius.
			b := i * blocks / t.N
			cx := (float64(b%t.Cols) + 0.5) * bw
			cy := (float64(b/t.Cols) + 0.5) * bh
			x := cx + (2*rng.Float64()-1)*t.Radius
			y := cy + (2*rng.Float64()-1)*t.Radius
			out[i] = phy.Pos(
				math.Min(math.Max(x, 0), t.Width),
				math.Min(math.Max(y, 0), t.Height),
			)
		}
		return out, nil
	}
	return nil, fmt.Errorf("scenario: unknown topology kind %q (want one of %v)", t.Kind, TopologyKinds())
}
