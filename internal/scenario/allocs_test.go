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
		arf    bool    // rate fallback on every station
		max    float64 // allocations per logical event
	}{
		{"paper-four-node", false, 0.1},
		{"churn-mesh-5x5", false, 0.05},
		{"paper-four-node", true, 0.1},
	} {
		name := tc.preset
		if tc.arf {
			name += "-arf"
		}
		t.Run(name, func(t *testing.T) {
			spec, err := Preset(tc.preset)
			if err != nil {
				t.Fatal(err)
			}
			spec.Seed = 42
			spec.MAC.ARF = tc.arf
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
				name, allocs, inst.LogicalEvents(), perEvent)
			if perEvent > tc.max {
				t.Errorf("%s: %.4f allocations per logical event, want at most %g", name, perEvent, tc.max)
			}
		})
	}
}

// TestCityLiveHeap gates the medium's memory on the largest field the
// tests build: the quartered block city (25 000 stations) at 2 s, seed
// 42, as TestCityGolden builds it. After its first run the instance
// holds under 57 MB of live heap (about 50 MB measured). A link-gain
// row as wide as the field per transmitter, the layout before
// candidate-sized rows, held about 192 MB here; eight empty maps and
// two generators per station, before they were made on first use,
// about 69 MB; 88-byte gain entries, before the per-link mobility
// epochs and the linear-power memo went, about 53 MB.
func TestCityLiveHeap(t *testing.T) {
	if testing.Short() {
		t.Skip("city-scale preset run: skipped in -short")
	}
	if raceEnabled {
		t.Skip("the race detector instruments allocations")
	}
	const maxMB = 57
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

// TestBuildAllocs gates what one station costs to build. The quartered
// block city (25 000 stations) at seed 42 allocates at most 12 objects
// per station in Build (11.02 measured: the MAC, radio, station, stack,
// UDP and TCP structs and five callback closures). Formatted stream
// names, empty maps, a generator per MAC and TCP and a spatial index
// built to pair 32 flows used to bring it to 29.5. churn-mesh-5x5 adds
// a DSDV router per station and allocates at most 27.5 per station
// (25.16 measured). Its routers make their five maps at their first
// write; made eagerly, they cost 30.16 per station (34.2 while each
// router also held an O(stations²) map of its peers).
func TestBuildAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector instruments allocations")
	}
	city := cityShortSpec(t, "clustered-blocks-100k", 2*time.Second)
	quarterCity(&city)
	mesh, err := Preset("churn-mesh-5x5")
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name          string
		spec          Spec
		maxPerStation float64
	}{
		{"quartered-city", city, 12},
		{"churn-mesh-5x5", mesh, 27.5},
	} {
		t.Run(tc.name, func(t *testing.T) {
			tc.spec.Seed = 42
			var n int
			allocs := testing.AllocsPerRun(1, func() {
				inst, err := Build(tc.spec)
				if err != nil {
					t.Fatal(err)
				}
				n = len(inst.Net.Stations)
			})
			perStation := allocs / float64(n)
			t.Logf("%s: %.0f allocations in Build, %.2f per station", tc.name, allocs, perStation)
			if perStation > tc.maxPerStation {
				t.Errorf("%s: Build allocates %.2f objects per station, want at most %g", tc.name, perStation, tc.maxPerStation)
			}
		})
	}
}

// TestResetAllocs gates the warm Reset that starts every replication:
// re-seeding a built network must not rebuild per-station state. The
// quartered city's Reset used to allocate 12,406 objects (most of them
// a spatial index of every position, rebuilt to pair 32 flows) and
// churn-mesh-5x5's 235 (a formatted name and a generator per DSDV
// station).
func TestResetAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector instruments allocations")
	}
	city := cityShortSpec(t, "clustered-blocks-100k", 2*time.Second)
	quarterCity(&city)
	mesh, err := Preset("churn-mesh-5x5")
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		spec Spec
		max  float64
	}{
		{"quartered-city", city, 215}, // 179 measured
		{"churn-mesh-5x5", mesh, 160}, // 134 measured
	} {
		t.Run(tc.name, func(t *testing.T) {
			tc.spec.Seed = 42
			inst, err := Build(tc.spec)
			if err != nil {
				t.Fatal(err)
			}
			inst.Net.Run(tc.spec.Duration.D())
			allocs := testing.AllocsPerRun(2, func() {
				if err := inst.Reset(42); err != nil {
					t.Fatal(err)
				}
			})
			t.Logf("%s: %.0f allocations per warm Reset", tc.name, allocs)
			if allocs > tc.max {
				t.Errorf("%s: a warm Reset allocates %.0f objects, want at most %g", tc.name, allocs, tc.max)
			}
		})
	}
}
