package scenario

import (
	"testing"
	"time"

	"adhocsim/internal/runner"
)

// goldenEventRuns are the runs TestGoldenEvents counts: the paper's
// four stations, the routed churn mesh, the hidden-terminal pair, the
// sparse 1024-station field and the quartered block city, each at a
// horizon short enough for tier-1.
var goldenEventRuns = []struct {
	name    string
	horizon time.Duration
	quarter bool
}{
	{"paper-four-node", 2 * time.Second, false},
	{"churn-mesh-5x5", 3 * time.Second, false},
	{"hidden-terminal", 2 * time.Second, false},
	{"random-1024", 100 * time.Millisecond, false},
	{"clustered-blocks-100k", 2 * time.Second, true},
}

// goldenEventSeeds is the fixed seed set: runner.SeedFor(1, i) for i < 4.
const goldenEventSeeds = 4

// TestGoldenEvents pins every goldenEventRuns preset at four seeds, on
// the sequential kernel and on the parallel kernel with one and two
// region workers. A parallel city run costs half a second, so the
// city's parallel legs run the first seed only. The result bytes cannot
// see the event count: a kernel change that drops or adds a no-op event
// moves no result, only the fired and logical counts each entry holds.
// The counts were recorded before any kernel mechanism that stands in
// for events without queueing them.
func TestGoldenEvents(t *testing.T) {
	// One parallel subtest per preset and kernel: the city legs take
	// most of the time, and they overlap on a multi-core host.
	t.Run("runs", func(t *testing.T) {
		for _, r := range goldenEventRuns {
			for _, k := range []struct {
				name string
				par  *ParallelParams
			}{{"sequential", nil}, {"parallel-1", &ParallelParams{Workers: 1}}, {"parallel-2", &ParallelParams{Workers: 2}}} {
				name := r.name
				if r.quarter {
					name = "blocks-25k"
				}
				t.Run(name+"/"+k.name, func(t *testing.T) {
					t.Parallel()
					spec, err := Preset(r.name)
					if err != nil {
						t.Fatal(err)
					}
					spec.Duration = Duration(r.horizon)
					spec.Parallel = k.par
					seeds := goldenEventSeeds
					if r.quarter {
						quarterCity(&spec)
						if k.par != nil {
							seeds = 1
						}
					}
					// The sequential kernel builds once and Resets per seed
					// (a Reset-then-run is bit-identical to a
					// build-then-run). Parallel networks cannot Reset.
					var inst *Instance
					for i := 0; i < seeds; i++ {
						seed := runner.SeedFor(1, i)
						if k.par != nil || inst == nil {
							spec.Seed = seed
							if inst, err = Build(spec); err != nil {
								t.Fatal(err)
							}
						} else if err := inst.Reset(seed); err != nil {
							t.Fatal(err)
						}
						inst.Net.Run(r.horizon)
						checkGolden(t, name, inst)
					}
				})
			}
		}
	})
}
