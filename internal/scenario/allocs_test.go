package scenario

import (
	"runtime"
	"testing"
	"time"
)

// TestWarmReplicationAllocs gates the allocation-free frame path: a
// warm Reset+Run replication allocates well under one object per
// logical event. The frames themselves, one buffer per originated
// packet and a forwarded packet's copy still allocate; per-slot DCF
// timers, per-call method values and per-layer payload copies must not
// come back.
func TestWarmReplicationAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector instruments allocations")
	}
	for _, tc := range []struct {
		preset string
		max    float64 // allocations per logical event
	}{
		{"paper-four-node", 0.1},
		{"churn-mesh-5x5", 0.05},
	} {
		t.Run(tc.preset, func(t *testing.T) {
			spec, err := Preset(tc.preset)
			if err != nil {
				t.Fatal(err)
			}
			spec.Seed = 42
			inst, err := Build(spec)
			if err != nil {
				t.Fatal(err)
			}
			horizon := spec.Duration.D()
			// AllocsPerRun runs once untimed first, which warms the
			// arena: scheduler slots, msdu records, medium pools.
			allocs := testing.AllocsPerRun(2, func() {
				if err := inst.Reset(42); err != nil {
					t.Fatal(err)
				}
				inst.Net.Run(horizon)
			})
			perEvent := allocs / float64(inst.LogicalEvents())
			t.Logf("%s: %.0f allocations over %d logical events = %.4f per event",
				tc.preset, allocs, inst.LogicalEvents(), perEvent)
			if perEvent > tc.max {
				t.Errorf("%s: %.4f allocations per logical event, want at most %g", tc.preset, perEvent, tc.max)
			}
		})
	}
}

// TestCityLiveHeap gates the medium's memory on the largest field the
// tests build: the quartered block city (25 000 stations) at 2 s, seed
// 42, as TestCityGolden builds it. After its first run the instance
// holds under 100 MB of live heap. A link-gain row as wide as the field
// per transmitter, the layout before candidate-sized rows, held about
// 192 MB here.
func TestCityLiveHeap(t *testing.T) {
	if testing.Short() {
		t.Skip("city-scale preset run: skipped in -short")
	}
	if raceEnabled {
		t.Skip("the race detector instruments allocations")
	}
	const maxMB = 100
	spec := cityShortSpec(t, "clustered-blocks-100k", 2*time.Second)
	quarterCity(&spec)
	spec.Seed = 42
	before := liveHeap()
	inst, err := Build(spec)
	if err != nil {
		t.Fatal(err)
	}
	horizon := spec.Duration.D()
	inst.Net.Run(horizon)
	inst.Collect(horizon)
	held := float64(liveHeap()-before) / (1 << 20)
	runtime.KeepAlive(inst)
	t.Logf("quartered block city: %.1f MB live after the first run", held)
	if held >= maxMB {
		t.Errorf("quartered block city holds %.1f MB after its first run, want under %d MB", held, maxMB)
	}
}

// liveHeap is the heap still reachable after a full collection, in
// bytes. The second collection empties the sync.Pool victim caches the
// first one fills.
func liveHeap() uint64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}
