package scenario

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"testing"
	"time"

	"adhocsim/internal/phy"
)

// The city-scale equivalence suite: the city presets' bytes are pinned
// by goldens (TestCityGolden, golden_calendar.json), and the parallel
// kernel must reproduce the sequential kernel on them, not just on the
// small unit fixtures. The presets are far too large for the
// full-horizon preset sweeps (parallel_equiv_test.go skips N > 2048),
// so those checks run here at a short horizon instead.

// cityShortSpec returns the named city preset with its horizon cut to
// something a test can afford — these checks care about
// event-order agreement, not steady-state throughput.
func cityShortSpec(t *testing.T, name string, horizon time.Duration) Spec {
	t.Helper()
	spec, err := Preset(name)
	if err != nil {
		t.Fatal(err)
	}
	spec.Duration = Duration(horizon)
	return spec
}

// TestRandom16kKernelToggles requires random-16k at 50 ms to
// reproduce the result the retired calendar-queue backend recorded
// (checkCalendarDigest). The spatial grid and the incremental sums it
// also runs are pinned mechanism by mechanism by the phy and medium
// oracle tests.
func TestRandom16kKernelToggles(t *testing.T) {
	if testing.Short() {
		t.Skip("city-scale preset run: skipped in -short")
	}
	spec := cityShortSpec(t, "random-16k", 50*time.Millisecond)
	base := runJSON(t, spec)

	t.Run("calendar-vs-heap", func(t *testing.T) {
		checkCalendarDigest(t, spec.Name, base)
	})
}

// TestRandom16kParallelToggles extends the city toggle matrix with the
// parallel-kernel axis: the space-partitioned kernel must be
// byte-identical to the sequential kernel. Every scheduler, sequential
// and per-region, runs on the 4-ary heap, which the subtest name keeps.
// The 16k field auto-fits an 8x8 grid, so this is the first
// multi-region equivalence check at city scale — the preset sweeps cap
// at 2048 stations.
func TestRandom16kParallelToggles(t *testing.T) {
	if testing.Short() {
		t.Skip("city-scale preset run: skipped in -short")
	}
	spec := cityShortSpec(t, "random-16k", 50*time.Millisecond)
	seq := runJSON(t, spec)
	t.Run("balanced-heap", func(t *testing.T) {
		p := spec
		p.Parallel = &ParallelParams{}
		if got := runJSON(t, p); !bytes.Equal(seq, got) {
			t.Errorf("random-16k: parallel differs from sequential")
		}
	})
}

// quarterCity shrinks a clustered-blocks city to a quarter of its
// blocks — half the rows, half the columns and half the field on each
// side — keeping the block size, the stations per block and the flows,
// whose sources are spread over the smaller city.
func quarterCity(s *Spec) {
	t := &s.Topology
	t.N, t.Rows, t.Cols = t.N/4, t.Rows/2, t.Cols/2
	t.Width, t.Height = t.Width/2, t.Height/2
	for i := range s.Flows {
		s.Flows[i].Src = i * t.N / len(s.Flows)
	}
}

// TestCityGolden pins the city tier's output bytes: random-16k and the
// quartered clustered-blocks-100k city (25 000 stations) at seed 42
// over a 2 s horizon, each on the sequential kernel and on the parallel
// kernel with two region workers. A city Result runs to megabytes (one
// entry per station), so the golden records the SHA-256 of its JSON
// encoding rather than the bytes themselves. Re-bless with -update only
// for a change that is meant to alter simulation results, and say so in
// the commit message.
func TestCityGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("city-scale preset runs: skipped in -short")
	}
	r16k := cityShortSpec(t, "random-16k", 2*time.Second)
	blocks := cityShortSpec(t, "clustered-blocks-100k", 2*time.Second)
	quarterCity(&blocks)
	got := map[string]string{}
	for _, c := range []struct {
		name string
		spec Spec
	}{{"random-16k", r16k}, {"blocks-25k", blocks}} {
		for _, par := range []*ParallelParams{nil, {Workers: 2}} {
			s := c.spec
			s.Seed = 42
			s.Parallel = par
			key := c.name + "/sequential"
			if par != nil {
				key = c.name + "/parallel-2"
			}
			sum := sha256.Sum256(runJSON(t, s))
			got[key] = hex.EncodeToString(sum[:])
		}
	}
	buf, err := json.MarshalIndent(got, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	buf = append(buf, '\n')
	path := filepath.Join("testdata", "golden_city.json")
	if *updatePresetGolden {
		if err := os.WriteFile(path, buf, 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("recorded %s", path)
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read golden (run with -update to record): %v", err)
	}
	if !bytes.Equal(buf, want) {
		t.Errorf("city results diverged from the recorded golden:\ngot:  %s\nwant: %s", buf, want)
	}
}

// TestClusteredBlocks100kEndToEnd builds and runs the 100k preset at a
// short horizon: construction completes, the run fires events, and the
// paced flows actually deliver — each block's nearest-neighbor pair is
// a live link, not a stranded one.
func TestClusteredBlocks100kEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("city-scale preset run: skipped in -short")
	}
	spec := cityShortSpec(t, "clustered-blocks-100k", 100*time.Millisecond)
	res, err := Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Flows) != len(spec.Flows) {
		t.Fatalf("got %d flow results, want %d", len(res.Flows), len(spec.Flows))
	}
	delivered := 0
	for _, f := range res.Flows {
		if f.GoodputKbps > 0 {
			delivered++
		}
	}
	if delivered < len(res.Flows) {
		t.Errorf("only %d/%d flows delivered within %v", delivered, len(res.Flows), spec.Duration.D())
	}
}

// TestRandom16kBuildBudget pins the satellite fix that made the city
// tier possible at all: constructing a 16384-station network must cost
// seconds, not the minutes the old O(stations²) neighbor wiring and
// linear nearest-destination scans would take. The budget is generous —
// it guards against an accidental return of a quadratic build step, not
// against a slow machine.
func TestRandom16kBuildBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("city-scale preset build: skipped in -short")
	}
	spec, err := Preset("random-16k")
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	if _, err := Build(spec); err != nil {
		t.Fatal(err)
	}
	if elapsed := time.Since(start); elapsed > 30*time.Second {
		t.Errorf("Build(random-16k) took %v; a quadratic construction step is back", elapsed)
	}
}

// TestNearestDstIndexedMatchesBrute pins the grid nearest-neighbor
// resolver against a linear scan the test runs itself, on a
// 4096-station field: every resolved destination is the first station
// at the minimum distance from the source, the scan's answer, so
// equidistant ties break toward the lowest index.
func TestNearestDstIndexedMatchesBrute(t *testing.T) {
	topo := Topology{Kind: KindRandomUniform, N: 4096, Width: 8000, Height: 8000}
	positions, err := topo.Expand(1234)
	if err != nil {
		t.Fatal(err)
	}
	var flows []Flow
	for i := 0; i < 64; i++ {
		flows = append(flows, Flow{
			Src:        i * len(positions) / 64,
			NearestDst: true,
			Transport:  TransportUDP,
			PacketSize: 256,
			Interval:   Duration(time.Second),
			Port:       uint16(9000 + i),
		})
	}
	indexed, err := resolveFlows(flows, positions)
	if err != nil {
		t.Fatal(err)
	}
	for i, f := range flows {
		brute, best := -1, math.Inf(1)
		for j, p := range positions {
			if j == f.Src {
				continue
			}
			if d := phy.Dist(positions[f.Src], p); d < best {
				brute, best = j, d
			}
		}
		if got := indexed[i]; got.Dst != brute || got.NearestDst {
			t.Errorf("flow %d (src %d): indexed dst %d (nearest_dst still %v), linear scan dst %d",
				i, f.Src, got.Dst, got.NearestDst, brute)
		}
	}
}

// TestNearestDstGridTies runs the grid resolver on fields built to
// tie: a unit lattice, where most stations have four equidistant
// nearest neighbors, with some stations stacked on others; a line of
// stations that makes the grid a single row; a five-station corner of
// the lattice; and two stations at opposite ends of the float range,
// whose distance overflows to +Inf. Every resolved destination must be
// the linear scan's: the lowest index at the minimum distance.
func TestNearestDstGridTies(t *testing.T) {
	var lattice, line []phy.Position
	for i := 0; i < 1600; i++ {
		lattice = append(lattice, phy.Pos(float64(i%40), float64(i/40)))
		line = append(line, phy.Pos(float64(i/2)*3, 7))
	}
	for i := 0; i < 100; i++ {
		lattice = append(lattice, lattice[i*13])
	}
	fields := map[string][]phy.Position{
		"lattice": lattice,
		"line":    line,
		"small":   {lattice[0], lattice[1], lattice[40], lattice[41], lattice[0]},
		"extreme": {phy.Pos(-math.MaxFloat64, -math.MaxFloat64), phy.Pos(math.MaxFloat64, math.MaxFloat64)},
	}
	for name, positions := range fields {
		var flows []Flow
		for i := 0; i < min(64, len(positions)); i++ {
			flows = append(flows, Flow{
				Src:        i * len(positions) / min(64, len(positions)),
				NearestDst: true,
				Port:       uint16(9000 + i),
			})
		}
		got, err := resolveFlows(flows, positions)
		if err != nil {
			t.Fatal(err)
		}
		for i, f := range flows {
			brute, best := -1, math.Inf(1)
			for j, p := range positions {
				if d := phy.Dist(positions[f.Src], p); j != f.Src && (brute < 0 || d < best) {
					brute, best = j, d
				}
			}
			if got[i].Dst != brute {
				t.Errorf("%s flow %d (src %d): grid dst %d, linear scan dst %d", name, i, f.Src, got[i].Dst, brute)
			}
		}
	}
}
