package scenario

import (
	"bytes"
	"encoding/json"
	"testing"
	"time"

	"adhocsim/internal/runner"
)

// reuseSpecs returns the scenarios the arena-reuse equivalence tests
// sweep: every preset small enough for the test budget (the two
// 1024-station presets are covered by the repository-root macro
// benchmark instead), plus purpose-built specs for the per-run state
// the presets do not exercise — TCP connections, IBSS beaconing, and a
// seed-dependent random topology with NearestDst re-pairing, which
// forces Reset to re-place every radio and re-resolve the flow matrix,
// and a rate-fallback link whose rate moves, so a Reset that forgot the
// ARF state would start the next replication at a stale rate.
func reuseSpecs(t testing.TB) []Spec {
	t.Helper()
	var specs []Spec
	for _, spec := range Presets() {
		positions, err := spec.Topology.Expand(spec.Seed)
		if err != nil {
			t.Fatalf("preset %q: %v", spec.Name, err)
		}
		if len(positions) > 16 {
			continue
		}
		spec.Duration = Duration(time.Second)
		specs = append(specs, spec)
	}
	specs = append(specs,
		Spec{
			Name:     "reuse-tcp-bulk",
			Seed:     7,
			Duration: Duration(time.Second),
			MSS:      512,
			Topology: Topology{Kind: KindLine, N: 3, Spacing: 15},
			MAC:      MACParams{RateMbps: 11},
			Flows: []Flow{
				{Src: 0, Dst: 1, Transport: TransportTCP, PacketSize: 512, Port: 5001},
				{Src: 2, Dst: 1, Transport: TransportUDP, PacketSize: 256, Port: 5002},
			},
		},
		Spec{
			Name:     "reuse-beacons",
			Seed:     11,
			Duration: Duration(time.Second),
			Topology: Topology{Kind: KindLine, N: 2, Spacing: 10},
			MAC:      MACParams{RateMbps: 2, BeaconInterval: Duration(100 * time.Millisecond)},
			Flows:    []Flow{{Src: 0, Dst: 1, Transport: TransportUDP, PacketSize: 512, Port: 9000}},
		},
		Spec{
			Name:     "reuse-random-nearest",
			Seed:     13,
			Duration: Duration(time.Second),
			Profile:  ProfileTestbed, // static + dynamic shadowing across reseeds
			Topology: Topology{Kind: KindRandomUniform, N: 12, Width: 400, Height: 400},
			MAC:      MACParams{RateMbps: 1},
			Flows: []Flow{
				{Src: 0, NearestDst: true, Transport: TransportUDP, PacketSize: 512,
					Interval: Duration(20 * time.Millisecond), Port: 9000},
				{Src: 6, NearestDst: true, Transport: TransportUDP, PacketSize: 512,
					Interval: Duration(20 * time.Millisecond), Port: 9001},
			},
		},
		Spec{
			Name:     "reuse-arf",
			Seed:     42,
			Duration: Duration(time.Second),
			Topology: Topology{Kind: KindLine, N: 2, Spacing: 60},
			MAC:      MACParams{RateMbps: 11, ARF: true},
			Flows:    []Flow{{Src: 0, Dst: 1, Transport: TransportUDP, PacketSize: 512, Port: 9000}},
		},
	)
	return specs
}

// marshalSummary renders a summary for byte-level comparison.
func marshalSummary(t *testing.T, s Summary) []byte {
	t.Helper()
	b, err := json.Marshal(s)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// replicateRebuild runs a sweep that compiles every replication from
// scratch with its own Build: the reference the arena-reuse path of
// Replicate is checked against.
func replicateRebuild(cfg runner.Config, spec Spec, reps int) []Result {
	return runner.Replicate(cfg, spec.Seed, reps, func(seed uint64) Result {
		s := spec
		s.Seed = seed
		return MustRun(s)
	})
}

// TestReplicateReuseMatchesRebuild is the arena-reuse equivalence test:
// a replication sweep that builds each worker's network once and
// re-seeds it per replication must produce a byte-identical summary to
// the sweep that rebuilds the network for every replication
// (replicateRebuild), across the preset library and the purpose-built
// specs above.
func TestReplicateReuseMatchesRebuild(t *testing.T) {
	const reps = 3
	for _, spec := range reuseSpecs(t) {
		spec := spec
		t.Run(spec.Name, func(t *testing.T) {
			// workers=1 guarantees one worker runs several replications
			// back to back, so the sweep genuinely exercises Reset (with
			// more workers than reps every replication could land on a
			// fresh arena and the test would prove nothing).
			reuse, err := Replicate(spec, reps, 1, nil)
			if err != nil {
				t.Fatal(err)
			}
			rebuild := summarize(spec, replicateRebuild(runner.Config{Workers: 1}, spec, reps))
			a, b := marshalSummary(t, reuse), marshalSummary(t, rebuild)
			if !bytes.Equal(a, b) {
				t.Fatalf("arena reuse diverged from rebuild-per-rep:\nreuse:   %s\nrebuild: %s", a, b)
			}
			// The worker count must stay irrelevant with reuse on.
			parallel, err := Replicate(spec, reps, 3, nil)
			if err != nil {
				t.Fatal(err)
			}
			if c := marshalSummary(t, parallel); !bytes.Equal(a, c) {
				t.Fatalf("reuse summary depends on worker count:\n1 worker:  %s\n3 workers: %s", a, c)
			}
		})
	}
}

// TestInstanceResetMatchesBuild exercises Reset directly, outside the
// sweep machinery: running seed B on a network previously run at seed A
// must reproduce the fresh-build seed-B result exactly, including after
// several back-to-back reseeds of the same arena. The four-node preset
// uses the testbed profile, whose static per-link shadowing draws are
// the seed-dependent state most easily left stale by a broken reseed;
// the quartered block city at 200 ms is sparse — its 32 flows touch a
// few thousand of its 25,000 stations — so nearly every station is one
// a Reset leaves alone.
func TestInstanceResetMatchesBuild(t *testing.T) {
	var four Spec
	for _, s := range reuseSpecs(t) {
		if s.Name == "paper-four-node" {
			four = s
			break
		}
	}
	if four.Name == "" {
		t.Fatal("paper-four-node preset missing from reuse specs")
	}
	city := cityShortSpec(t, "clustered-blocks-100k", 200*time.Millisecond)
	quarterCity(&city)
	city.Seed = 42
	seeds := []uint64{42, 1001, 42, 7} // includes returning to an earlier seed

	for _, spec := range []Spec{four, city} {
		t.Run(spec.Name, func(t *testing.T) {
			if spec.Name == city.Name && testing.Short() {
				t.Skip("city-scale preset runs: skipped in -short")
			}
			inst, err := Build(spec)
			if err != nil {
				t.Fatal(err)
			}
			for i, seed := range seeds {
				if i == 0 && seed == spec.Seed {
					// First run uses the built instance as-is.
				} else if err := inst.Reset(seed); err != nil {
					t.Fatal(err)
				}
				s := spec
				s.Seed = seed
				fresh := MustRun(s)
				horizon := inst.Spec.Duration.D()
				inst.Net.Run(horizon)
				got := inst.Collect(horizon)
				a, _ := json.Marshal(got)
				b, _ := json.Marshal(fresh)
				if !bytes.Equal(a, b) {
					t.Fatalf("reset run %d (seed %d) diverged from fresh build:\nreset: %s\nfresh: %s", i, seed, a, b)
				}
			}
		})
	}
}
