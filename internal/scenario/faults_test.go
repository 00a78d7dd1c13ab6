package scenario

import (
	"bytes"
	"testing"
	"time"

	"adhocsim/internal/runner"
)

// The fault-engine equivalence suite: injected faults are ordinary
// scheduler events compiled from the Spec, so every determinism
// guarantee the kernel gives a fault-free run must survive unchanged
// with faults active — arena reuse, worker count and region
// partitioning may change speed, never a byte of output.

// faultedSpecs returns the fault presets with horizons cut so each
// fault class is genuinely active inside the test budget: churn and a
// degradation episode on the mesh, a regional partition on the chain.
func faultedSpecs(t *testing.T) []Spec {
	t.Helper()
	mesh, err := Preset("churn-mesh-5x5")
	if err != nil {
		t.Fatal(err)
	}
	mesh.Duration = Duration(2500 * time.Millisecond) // degradation window opens at 2s
	chain, err := Preset("partition-heal-chain-8")
	if err != nil {
		t.Fatal(err)
	}
	chain.Duration = Duration(4 * time.Second) // partition opens at 3s
	return []Spec{mesh, chain}
}

// TestReplicateReuseWithFaults extends the arena-reuse equivalence to
// faulted runs: Reset must recompile the fault schedule against the new
// replication's seed and reinstall the degradation timeline, so a
// re-seeded arena sweeps byte-identically to rebuilding every network —
// and the worker count stays irrelevant.
func TestReplicateReuseWithFaults(t *testing.T) {
	const reps = 3
	for _, spec := range faultedSpecs(t) {
		spec := spec
		t.Run(spec.Name, func(t *testing.T) {
			// workers=1 forces one worker through several replications
			// back to back, so the faulted Reset path actually runs.
			reuse, err := Replicate(spec, reps, 1, nil)
			if err != nil {
				t.Fatal(err)
			}
			rebuild := summarize(spec, replicateRebuild(runner.Config{Workers: 1}, spec, reps))
			a, b := marshalSummary(t, reuse), marshalSummary(t, rebuild)
			if !bytes.Equal(a, b) {
				t.Fatalf("faulted arena reuse diverged from rebuild-per-rep:\nreuse:   %s\nrebuild: %s", a, b)
			}
			parallel, err := Replicate(spec, reps, 3, nil)
			if err != nil {
				t.Fatal(err)
			}
			if c := marshalSummary(t, parallel); !bytes.Equal(a, c) {
				t.Fatalf("faulted summary depends on worker count:\n1 worker:  %s\n3 workers: %s", a, c)
			}
		})
	}
}

// TestFaultedSchedulerBackends runs each faulted spec on the 4-ary heap
// and checks it against the calendar queue's result: fault events ride
// the same scheduler as every other event, so the backend must not
// change a byte. The result digests of these runs, and of
// TestRandom16kKernelToggles', were recorded by the calendar-queue
// backend before it was retired in favour of the heap; their event
// counts were added later, on the heap.
func TestFaultedSchedulerBackends(t *testing.T) {
	for _, spec := range faultedSpecs(t) {
		spec := spec
		t.Run(spec.Name, func(t *testing.T) {
			runGolden(t, spec.Name, spec)
		})
	}
}

// TestFaultedParallelEquivalence forces a 2x2 region grid onto the
// faulted mesh — crashes and churn restarts land on region schedulers,
// the partition timeline is evaluated concurrently by region goroutines
// — and requires the hard parallel guarantee to hold: byte-identical
// results at every worker count, one included. (The auto-fit preset sweep in parallel_equiv_test.go already
// pins faulted parallel == plain sequential for the single-region fit.)
func TestFaultedParallelEquivalence(t *testing.T) {
	spec := faultedSpecs(t)[0] // churn-mesh-5x5, shortened
	spec.Parallel = &ParallelParams{Cols: 2, Rows: 2, Workers: 1}
	if g := parallelGrid(t, spec); g.Regions() != 4 {
		t.Fatalf("forced 2x2 grid fit %s", g)
	}
	want := runJSON(t, spec)
	workers := []int{2, 4, 8}
	if testing.Short() {
		workers = []int{4}
	}
	for _, w := range workers {
		s := spec
		s.Parallel = &ParallelParams{Cols: 2, Rows: 2, Workers: w}
		if got := runJSON(t, s); !bytes.Equal(want, got) {
			t.Errorf("churn-mesh-5x5: %d-worker faulted result differs from 1-worker", w)
		}
	}
}

// TestFaultMetricsSurface pins the graceful-degradation metrics on a
// hand-built scenario whose outcome is fully predictable: a three-hop
// DSDV chain whose relay crashes for one second mid-run. The flow must
// lose traffic while the relay is down, recover after DSDV re-converges,
// and every bookkeeping identity must hold exactly.
func TestFaultMetricsSurface(t *testing.T) {
	spec := Spec{
		Name:     "fault-metrics-chain",
		Seed:     42,
		Duration: Duration(10 * time.Second),
		// 20 m spacing with the +3 dB margin (as in chain-8) keeps the
		// 40 m end-to-end shortcut out of the DSDV tables, so the relay
		// genuinely carries the flow.
		Topology: Topology{Kind: KindLine, N: 3, Spacing: 20},
		MAC:      MACParams{RateMbps: 11},
		Routing:  &RoutingParams{Protocol: "dsdv", NeighborMarginDB: 3},
		Flows: []Flow{
			{Src: 0, Dst: 2, Transport: TransportUDP, PacketSize: 512,
				Interval: Duration(20 * time.Millisecond), Port: 9000},
		},
		Faults: &FaultSpec{
			Crashes: []FaultCrash{{Station: 1, At: Duration(2 * time.Second), Until: Duration(3 * time.Second)}},
		},
	}
	res, err := Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	f := res.Flows[0]
	if f.Attempts == 0 {
		t.Fatal("faulted run recorded no send attempts")
	}
	if f.DeliveryRatio <= 0 || f.DeliveryRatio >= 1 {
		t.Errorf("delivery ratio = %v, want strictly inside (0,1): relay crash must cost traffic", f.DeliveryRatio)
	}
	if got := float64(f.Received) / float64(f.Attempts); f.DeliveryRatio != got {
		t.Errorf("delivery ratio = %v, want Received/Attempts = %v", f.DeliveryRatio, got)
	}
	if f.RecoveredFaults < 1 {
		t.Errorf("recovered faults = %d, want >= 1: delivery must resume after the relay returns", f.RecoveredFaults)
	}
	if f.UnrecoveredFaults != 0 {
		t.Errorf("unrecovered faults = %d, want 0 within a 10 s horizon", f.UnrecoveredFaults)
	}
	// Recovery spans the 1 s outage plus DSDV re-advertising the healed
	// route, so it must exceed the downtime but settle before the horizon.
	if f.RecoveryMaxMs <= 1000 || f.RecoveryMaxMs >= 8000 {
		t.Errorf("recovery max = %v ms, want in (1000, 8000): one second down plus re-convergence", f.RecoveryMaxMs)
	}
	if f.RecoveryMeanMs <= 0 || f.RecoveryMeanMs > f.RecoveryMaxMs {
		t.Errorf("recovery mean = %v ms, max = %v ms: mean must be positive and bounded by max", f.RecoveryMeanMs, f.RecoveryMaxMs)
	}
	// Source and destination stay up: downtime-attributed loss is zero —
	// the loss here is routing loss, and the split must not claim it.
	if f.DowntimeLoss != 0 {
		t.Errorf("downtime loss = %d, want 0: neither endpoint was down", f.DowntimeLoss)
	}
	st := res.Stations[1]
	if st.DownTime.D() != time.Second || st.Crashes != 1 {
		t.Errorf("relay up/down bookkeeping = down %v over %d crashes, want 1s over 1", st.DownTime.D(), st.Crashes)
	}
	if st.UpTime.D()+st.DownTime.D() != spec.Duration.D() {
		t.Errorf("relay up %v + down %v != horizon %v", st.UpTime.D(), st.DownTime.D(), spec.Duration.D())
	}
	for _, i := range []int{0, 2} {
		if s := res.Stations[i]; s.DownTime.D() != 0 || s.Crashes != 0 {
			t.Errorf("station %d = down %v over %d crashes, want none", i, s.DownTime.D(), s.Crashes)
		}
	}
}

// TestFaultSpecValidation pins the scenario-layer fault checks that sit
// above faults.Params.Validate: TCP endpoints are not crashable, and
// outages only pause UDP senders.
func TestFaultSpecValidation(t *testing.T) {
	base := Spec{
		Name:     "fault-validate",
		Seed:     1,
		Duration: Duration(time.Second),
		MSS:      512,
		Topology: Topology{Kind: KindLine, N: 3, Spacing: 15},
		MAC:      MACParams{RateMbps: 11},
		Flows: []Flow{
			{Src: 0, Dst: 1, Transport: TransportTCP, PacketSize: 512, Port: 5001},
			{Src: 2, Dst: 1, Transport: TransportUDP, PacketSize: 256, Port: 5002},
		},
	}
	cases := []struct {
		name   string
		faults FaultSpec
		want   string
	}{
		{"crash tcp endpoint",
			FaultSpec{Crashes: []FaultCrash{{Station: 1, At: Duration(500 * time.Millisecond)}}},
			"tcp flow endpoint"},
		{"churn without station list",
			FaultSpec{Churn: &FaultChurn{RatePerMin: 10, MinDown: Duration(100 * time.Millisecond), MaxDown: Duration(200 * time.Millisecond)}},
			"list churn stations explicitly"},
		{"outage on tcp flow",
			FaultSpec{Outages: []FaultOutage{{Flow: 0, From: Duration(100 * time.Millisecond), To: Duration(200 * time.Millisecond)}}},
			"not udp"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s := base
			s.Faults = &tc.faults
			_, err := Build(s)
			if err == nil {
				t.Fatalf("Build accepted %s", tc.name)
			}
			if !bytes.Contains([]byte(err.Error()), []byte(tc.want)) {
				t.Fatalf("error %q does not mention %q", err, tc.want)
			}
		})
	}
	// The UDP flow remains a legal crash and outage target.
	ok := base
	ok.Faults = &FaultSpec{
		Outages: []FaultOutage{{Flow: 1, From: Duration(100 * time.Millisecond), To: Duration(200 * time.Millisecond)}},
	}
	if _, err := Build(ok); err != nil {
		t.Fatalf("Build rejected a UDP-only outage: %v", err)
	}
}
