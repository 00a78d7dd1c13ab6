package scenario

import (
	"bytes"
	"encoding/json"
	"reflect"
	"testing"
	"time"

	"adhocsim/internal/phy"
)

// The parallel-kernel equivalence suite: the space-partitioned executor
// must produce results indistinguishable from the sequential kernel.
//
// The guarantees, strongest first:
//
//  1. Worker-count invariance (hard, every spec): a parallel run's
//     result is byte-identical across 1/2/4/8 workers, the 1-worker run
//     servicing every region from one goroutine. The executor's
//     canonical message ordering makes this exact, never statistical.
//  2. Sequential equivalence (hard for almost every preset): a parallel
//     run is byte-identical to the plain sequential kernel. For
//     single-region fits this is structural (same scheduler, same event
//     order); grid-32x32 partitions into 16 regions and still matches
//     byte for byte.
//  3. Tie equivalence (random-1024, documented): cross-region
//     transmissions starting at the same instant reach a common
//     receiver in canonical (send-time, source) order, where the
//     sequential kernel uses global scheduling order. At seed 42 that
//     flips a handful of preamble-capture ties at idle bystander
//     stations — a few ±1 eifs_deferrals/phy_errors counters — while
//     every flow metric, every goodput byte and the fairness index stay
//     identical. assertTieEquivalent pins exactly that shape, and
//     TestParallelGoldenRandom1024 pins the parallel bytes themselves.
//
// Mobility presets exercise the documented fallback: Build ignores the
// parallel block, so equivalence is trivially exact — asserting it pins
// the fallback itself.

// tieTolerant lists the presets where multi-region parallel execution
// is allowed to differ from sequential in same-instant-arrival tie
// resolution (guarantee 3 above) rather than byte-for-byte.
var tieTolerant = map[string]bool{"random-1024": true}

// runJSON runs the spec and returns its Result as canonical JSON.
func runJSON(t *testing.T, spec Spec) []byte {
	t.Helper()
	res, err := Run(spec)
	if err != nil {
		t.Fatalf("Run(%s): %v", spec.Name, err)
	}
	buf, err := json.Marshal(res)
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	return buf
}

// parallelGrid reports the region grid the spec's parallel block would
// fit, so tests can tell single-region fits from real partitions.
func parallelGrid(t *testing.T, spec Spec) phy.RegionGrid {
	t.Helper()
	s := spec
	if s.Parallel == nil {
		s.Parallel = &ParallelParams{}
	}
	inst, err := Build(s)
	if err != nil {
		t.Fatalf("Build(%s): %v", s.Name, err)
	}
	return inst.Net.Grid
}

// assertTieEquivalent checks guarantee 3: flows, fairness and routing
// byte-identical, station counters equal except for a handful of ±1
// eifs_deferrals/phy_errors tie flips at bystander stations.
func assertTieEquivalent(t *testing.T, name string, seq, par []byte) {
	t.Helper()
	var a, b Result
	if err := json.Unmarshal(seq, &a); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(par, &b); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a.Flows, b.Flows) {
		t.Errorf("%s: flow metrics differ between sequential and parallel", name)
	}
	if a.Fairness != b.Fairness {
		t.Errorf("%s: fairness %v (sequential) vs %v (parallel)", name, a.Fairness, b.Fairness)
	}
	if a.Routing != b.Routing || len(a.Stations) != len(b.Stations) {
		t.Fatalf("%s: result shapes differ", name)
	}
	const maxTieFlips = 8
	flips := 0
	for i := range a.Stations {
		if a.Stations[i] == b.Stations[i] {
			continue
		}
		flips++
		x, y := a.Stations[i], b.Stations[i]
		x.EIFSDeferrals, y.EIFSDeferrals = 0, 0
		x.PHYErrors, y.PHYErrors = 0, 0
		if x != y {
			t.Errorf("%s: station %d differs beyond tie counters:\nseq: %+v\npar: %+v",
				name, i, a.Stations[i], b.Stations[i])
		}
	}
	if flips > maxTieFlips {
		t.Errorf("%s: %d stations flipped tie counters, want <= %d", name, flips, maxTieFlips)
	}
}

// TestParallelMatchesSequentialPresets runs every preset through the
// parallel kernel at 1/2/4/8 workers against the plain sequential
// kernel: byte-identical result JSON, except the tie-tolerant presets,
// which must satisfy the documented tie equivalence instead.
func TestParallelMatchesSequentialPresets(t *testing.T) {
	for _, p := range Presets() {
		p := p
		if p.Topology.N > 2048 {
			// The city-scale presets (random-16k, clustered-blocks-100k)
			// are far too large for a 5-way full-horizon sweep; their
			// kernel-toggle equivalences run at short horizons in
			// city_equiv_test.go instead.
			continue
		}
		t.Run(p.Name, func(t *testing.T) {
			t.Parallel()
			base := runJSON(t, p)
			workers := []int{1, 2, 4, 8}
			if testing.Short() {
				workers = []int{1, 4}
			}
			for _, w := range workers {
				s := p
				s.Parallel = &ParallelParams{Workers: w}
				got := runJSON(t, s)
				if bytes.Equal(base, got) {
					continue
				}
				if tieTolerant[p.Name] {
					assertTieEquivalent(t, p.Name, base, got)
					continue
				}
				t.Errorf("%s: %d-worker parallel result differs from sequential\nsequential: %s\nparallel:   %s",
					p.Name, w, base, got)
			}
		})
	}
}

// TestParallelWorkerInvariance pins guarantee 1 on the preset that is
// not byte-identical to sequential: whatever the tie resolution is, it
// must be exactly the same at every worker count.
func TestParallelWorkerInvariance(t *testing.T) {
	spec, err := Preset("random-1024")
	if err != nil {
		t.Fatal(err)
	}
	if g := parallelGrid(t, spec); g.Regions() < 4 {
		t.Fatalf("random-1024 fit only %s; want a real partition", g)
	}
	base := spec
	base.Parallel = &ParallelParams{Workers: 1}
	want := runJSON(t, base)
	workers := []int{2, 4, 8}
	if testing.Short() {
		workers = []int{4}
	}
	for _, w := range workers {
		s := spec
		s.Parallel = &ParallelParams{Workers: w}
		if got := runJSON(t, s); !bytes.Equal(want, got) {
			t.Errorf("random-1024: %d-worker result differs from 1-worker", w)
		}
	}
}

// TestParallelForcedGrid forces a multi-region partition onto a field
// that auto-fits a single region, so cross-region handoff runs where
// every station hears every other — the worst case for boundary
// traffic, and (with DSDV adverts crossing every boundary) well past
// the tie-equivalence regime the auto-fitted grids stay in. The
// executor's hard guarantee is what is asserted: the result is exactly
// the same at 1 and 4 workers, for every forced shape.
func TestParallelForcedGrid(t *testing.T) {
	spec, err := Preset("mesh-5x5-multihop")
	if err != nil {
		t.Fatal(err)
	}
	for _, dims := range [][2]int{{2, 1}, {2, 2}, {5, 5}} {
		s := spec
		s.Parallel = &ParallelParams{Cols: dims[0], Rows: dims[1], Workers: 4}
		if g := parallelGrid(t, s); g.Regions() != dims[0]*dims[1] {
			t.Fatalf("forced %dx%d grid fit %s", dims[0], dims[1], g)
		}
		got := runJSON(t, s)
		s.Parallel = &ParallelParams{Cols: dims[0], Rows: dims[1], Workers: 1}
		if one := runJSON(t, s); !bytes.Equal(got, one) {
			t.Errorf("mesh-5x5-multihop: forced %dx%d grid not worker-invariant", dims[0], dims[1])
		}
	}
}

// TestParallelGridFits documents the auto-sizing policy: the two big
// fields partition (their spans hold several carrier-sense ranges), the
// one-contention-domain presets collapse to a single region, where
// parallel equals sequential structurally.
func TestParallelGridFits(t *testing.T) {
	multi := map[string]bool{"grid-32x32": true, "random-1024": true}
	for _, p := range Presets() {
		if p.Mobility != nil || p.Topology.N > 2048 {
			// City-scale presets would partition too (their fields span
			// dozens of carrier-sense ranges); building 16k/100k stations
			// here per test run is not worth re-proving it.
			continue
		}
		g := parallelGrid(t, p)
		if multi[p.Name] && g.Regions() < 4 {
			t.Errorf("%s: fitted %s, want >= 4 regions", p.Name, g)
		}
		if !multi[p.Name] && g.Regions() != 1 {
			t.Errorf("%s: fitted %s, want exactly 1 region (field spans too few carrier-sense ranges)", p.Name, g)
		}
	}
}

// TestParallelGoldenRandom1024 pins the multi-region parallel result of
// random-1024 byte for byte — the other half of the tie-equivalence
// contract: sequential differs only in documented tie flips
// (TestParallelMatchesSequentialPresets), and the parallel bytes
// themselves never drift.
func TestParallelGoldenRandom1024(t *testing.T) {
	spec, err := Preset("random-1024")
	if err != nil {
		t.Fatal(err)
	}
	spec.Parallel = &ParallelParams{Workers: 4}
	runGolden(t, "random-1024", spec)
}

// TestSplitWorkers pins the hybrid sweep's worker arithmetic: the
// budget goes to replications first, any surplus becomes region
// workers, and an explicit ParallelParams.Workers pins the region
// count regardless of the derived split.
func TestSplitWorkers(t *testing.T) {
	cases := []struct {
		reps, total, par     int
		wantReps, wantRegion int
	}{
		{reps: 4, total: 8, par: 0, wantReps: 4, wantRegion: 2},
		{reps: 8, total: 4, par: 0, wantReps: 4, wantRegion: 1},
		{reps: 1, total: 6, par: 0, wantReps: 1, wantRegion: 6},
		{reps: 3, total: 3, par: 0, wantReps: 3, wantRegion: 1},
		{reps: 2, total: 5, par: 0, wantReps: 2, wantRegion: 2},
		{reps: 4, total: 8, par: 3, wantReps: 4, wantRegion: 3},
		{reps: 1, total: 1, par: 0, wantReps: 1, wantRegion: 1},
	}
	for _, c := range cases {
		gotReps, gotRegion := splitWorkers(c.reps, c.total, c.par)
		if gotReps != c.wantReps || gotRegion != c.wantRegion {
			t.Errorf("splitWorkers(%d, %d, %d) = (%d, %d); want (%d, %d)",
				c.reps, c.total, c.par, gotReps, gotRegion, c.wantReps, c.wantRegion)
		}
	}
	// A non-positive budget defaults to GOMAXPROCS; the split must
	// still be well-formed.
	r, g := splitWorkers(2, 0, 0)
	if r < 1 || g < 1 {
		t.Errorf("splitWorkers(2, 0, 0) = (%d, %d); want both >= 1", r, g)
	}
}

// TestReplicateHybridWorkerInvariance pins the hybrid scheduling
// contract: a replication sweep over a parallel spec must produce the
// same summary whatever the worker budget — the budget only moves work
// between replication workers and region workers, never changes the
// event order. The exec block's worker split legitimately varies with
// the budget, so it is normalized before comparison while the run
// results and the folded executor counters (windows, messages,
// per-region fired histogram) must match exactly.
func TestReplicateHybridWorkerInvariance(t *testing.T) {
	spec, err := Preset("random-1024")
	if err != nil {
		t.Fatal(err)
	}
	spec.Duration = Duration(500 * time.Millisecond)
	spec.Parallel = &ParallelParams{}
	const reps = 2

	normalize := func(s Summary) []byte {
		t.Helper()
		if s.Exec == nil {
			t.Fatal("hybrid sweep produced no exec block")
		}
		es := *s.Exec
		es.RegionWorkers, es.ReplicationWorkers = 0, 0
		s.Exec = &es
		b, err := json.Marshal(s)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}

	base, err := Replicate(spec, reps, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	want := normalize(base)
	for _, budget := range []int{2, 5} {
		got, err := Replicate(spec, reps, budget, nil)
		if err != nil {
			t.Fatal(err)
		}
		if b := normalize(got); !bytes.Equal(want, b) {
			t.Errorf("hybrid sweep with budget %d diverged from budget 1:\nbudget 1: %s\nbudget %d: %s",
				budget, want, budget, b)
		}
	}
}
