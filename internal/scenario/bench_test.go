package scenario

import (
	"runtime"
	"testing"
	"time"
)

// BenchmarkRandom1024Sequential is the end-to-end baseline the parallel
// kernel is measured against: the random-1024 preset built and run on
// the classic single-scheduler path, full scenario cost (build + run +
// collect). The ns/event metric divides wall time by the events the
// kernel executed, so it is comparable with the parallel bench below
// only after accounting for the executor's extra per-region message
// events (the parallel run executes ~1.8× the events for the same
// logical work; BENCH_PR6.json at the root records both sides).
func BenchmarkRandom1024Sequential(b *testing.B) {
	benchmarkRandom1024(b, nil)
}

// BenchmarkRandom1024ParallelRegions is the PR 6 headline bench: the
// same preset on the space-partitioned executor with an auto-fitted
// region grid (4×4 at this field size) and one worker per CPU. On a
// multi-core host the regions run concurrently under the conservative
// lookahead window; on one CPU the bench degrades gracefully to
// near-sequential cost and measures pure protocol overhead (windows,
// inter-region messaging, barriers).
func BenchmarkRandom1024ParallelRegions(b *testing.B) {
	benchmarkRandom1024(b, &ParallelParams{Workers: runtime.GOMAXPROCS(0)})
}

func benchmarkRandom1024(b *testing.B, par *ParallelParams) {
	spec, err := Preset("random-1024")
	if err != nil {
		b.Fatal(err)
	}
	spec.Parallel = par
	b.ReportAllocs()
	b.ResetTimer()
	var fired, logical uint64
	for i := 0; i < b.N; i++ {
		inst, err := Build(spec)
		if err != nil {
			b.Fatal(err)
		}
		horizon := inst.Spec.Duration.D()
		inst.Net.Run(horizon)
		inst.Collect(horizon)
		fired = inst.Net.Fired()
		logical = inst.LogicalEvents()
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(fired), "ns/event")
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(logical), "ns/logical-event")
	b.ReportMetric(float64(fired), "events/run")
}

// BenchmarkRandom1024Movers measures what the medium's gain rows cost
// under mobility: the random-1024 preset over a 1 s horizon with
// random-waypoint motion (on the preset's 3400 m field) on no station,
// on 4 stations spread over the field, and on every station. A gain
// row is valid only while no station moves, so one mover anywhere
// recomputes every transmitter's path-loss terms at its next
// transmission: the "4" case pays the most for that, and "0" not at
// all (DESIGN.md, "Bit-identical caching", records both sides).
func BenchmarkRandom1024Movers(b *testing.B) {
	for _, tc := range []struct {
		name string
		mob  *Mobility
	}{
		{"0", nil},
		{"4", &Mobility{Model: ModelRandomWaypoint, Width: 3400, Height: 3400, Stations: []int{64, 320, 576, 832}}},
		{"all", &Mobility{Model: ModelRandomWaypoint, Width: 3400, Height: 3400}},
	} {
		b.Run(tc.name, func(b *testing.B) {
			spec, err := Preset("random-1024")
			if err != nil {
				b.Fatal(err)
			}
			spec.Duration = Duration(time.Second)
			spec.Mobility = tc.mob
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				inst, err := Build(spec)
				if err != nil {
					b.Fatal(err)
				}
				horizon := inst.Spec.Duration.D()
				inst.Net.Run(horizon)
				inst.Collect(horizon)
			}
		})
	}
}

// BenchmarkRandom16k is the PR 7 headline bench: the 16384-station city
// preset at its full duration on its own configuration (spatial grid,
// incremental interference sums). BenchmarkClusteredBlocks100k
// is the 100k tier. Both build once and Reset per iteration, so
// ns/event is pure kernel cost (the city benches guard the scheduler,
// not the construction path — TestRandom16kBuildBudget guards that).
// A full-preset iteration runs
// well under a second, so the CI bench smoke (-benchtime=1x) stays
// cheap without cutting the horizon — and the uncut ns/logical-event
// figure is exactly the acceptance metric BENCH_PR7.json records.
func BenchmarkRandom16k(b *testing.B) {
	benchmarkCityKernel(b, "random-16k")
}

func BenchmarkClusteredBlocks100k(b *testing.B) {
	benchmarkCityKernel(b, "clustered-blocks-100k")
}

// BenchmarkRandom16kParallel and BenchmarkClusteredBlocks100kParallel
// are the PR 8 headline benches: the city presets at full duration on
// the space-partitioned kernel with the auto-fitted 8x8 grid and its
// activity-weighted cut lines. Parallel instances do not support
// Reset, so each iteration rebuilds untimed (StopTimer/StartTimer
// brackets the build) and ns/event is still pure kernel cost. Beyond
// the timing, each bench reports the kernel's structural metrics —
// windows, cross-region messages, and the load-balance factor
// (max/mean per-region events) — which BENCH_PR8.json records.
func BenchmarkRandom16kParallel(b *testing.B) {
	benchmarkCityParallel(b, "random-16k")
}

func BenchmarkClusteredBlocks100kParallel(b *testing.B) {
	benchmarkCityParallel(b, "clustered-blocks-100k")
}

func benchmarkCityParallel(b *testing.B, name string) {
	spec, err := Preset(name)
	if err != nil {
		b.Fatal(err)
	}
	horizon := spec.Duration.D()
	spec.Parallel = &ParallelParams{Workers: runtime.GOMAXPROCS(0)}
	b.ReportAllocs()
	b.ResetTimer()
	var fired, logical, windows, messages uint64
	var balance float64
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		inst, err := Build(spec)
		if err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		inst.Net.Run(horizon)
		inst.Collect(horizon)
		fired = inst.Net.Fired()
		logical = inst.LogicalEvents()
		if es := inst.ExecStats(); es != nil {
			windows, messages, balance = es.Windows, es.Messages, es.LoadBalance
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(fired), "ns/event")
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(logical), "ns/logical-event")
	b.ReportMetric(float64(logical), "logical-events/run")
	b.ReportMetric(float64(windows), "windows/run")
	b.ReportMetric(float64(messages), "xregion-msgs/run")
	b.ReportMetric(balance, "load-balance")
}

func benchmarkCityKernel(b *testing.B, name string) {
	spec, err := Preset(name)
	if err != nil {
		b.Fatal(err)
	}
	horizon := spec.Duration.D()
	inst, err := Build(spec)
	if err != nil {
		b.Fatal(err)
	}
	// One untimed replication warms the arena — gain-cache
	// transcendentals, fan-out memos, pools — so the timed iterations
	// measure the steady state a replication sweep actually runs in.
	if err := inst.Reset(spec.Seed); err != nil {
		b.Fatal(err)
	}
	inst.Net.Run(horizon)
	inst.Collect(horizon)
	b.ReportAllocs()
	b.ResetTimer()
	var fired, logical uint64
	for i := 0; i < b.N; i++ {
		if err := inst.Reset(spec.Seed); err != nil {
			b.Fatal(err)
		}
		inst.Net.Run(horizon)
		inst.Collect(horizon)
		fired = inst.Net.Fired()
		logical = inst.LogicalEvents()
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(fired), "ns/event")
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(logical), "ns/logical-event")
	b.ReportMetric(float64(logical), "logical-events/run")
}

// BenchmarkBuildQuarterCity times Build alone on the quartered block
// city (25 000 stations, 32 flows) at seed 42: the set-up a one-shot
// city run pays before its first event. ns/station and allocs/station
// divide by the station count.
func BenchmarkBuildQuarterCity(b *testing.B) {
	spec, err := Preset("clustered-blocks-100k")
	if err != nil {
		b.Fatal(err)
	}
	quarterCity(&spec)
	spec.Seed = 42
	n := float64(spec.Topology.N)
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Build(spec); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	runtime.ReadMemStats(&ms1)
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/n, "ns/station")
	b.ReportMetric(float64(ms1.Mallocs-ms0.Mallocs)/float64(b.N)/n, "allocs/station")
}
