package scenario

import "testing"

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
