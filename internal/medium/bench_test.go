package medium

import (
	"testing"
	"time"

	"adhocsim/internal/phy"
	"adhocsim/internal/sim"
)

// BenchmarkMedium64Stations measures the per-transmission cost of the
// broadcast medium with 64 radios spread over a 5.6 km diagonal: an 8×8
// grid with 700 m spacing, so most transmitter/receiver pairs are far
// below the noise floor. Before the irrelevant-receiver cut in
// Radio.Transmit, every transmission scheduled two events at all 63
// other radios; with it, arrivals ≥ IrrelevantMarginDB under the noise
// floor are never scheduled, and the event count per transmission drops
// to the handful of radios the frame can physically matter to.
//
// This bench is the first entry of the repository's bench trajectory
// (BENCH_PR2.json at the root).
func BenchmarkMedium64Stations(b *testing.B) {
	benchmarkMediumGrid(b, 8)
}

// BenchmarkMedium1024Stations is the PR 3 headline bench: a 32×32 grid
// with the same 700 m spacing (21.7 km per side). At this scale the
// pre-index medium spent O(N) work per transmission computing distance
// and fading for every radio on the field before discarding almost all
// of them; the spatial grid visits only the cells a transmission can
// physically matter to (see BENCH_PR3.json at the root).
func BenchmarkMedium1024Stations(b *testing.B) {
	benchmarkMediumGrid(b, 32)
}

// benchmarkMediumGrid measures the per-transmission cost of the
// broadcast medium with side×side radios on a 700 m grid, so most
// transmitter/receiver pairs are far below the noise floor.
func benchmarkMediumGrid(b *testing.B, side int) {
	prof := phy.DefaultProfile()
	prof.Fading.SigmaDB = 0 // geometry-only: keep the relevance cut deterministic

	sched := sim.NewScheduler()
	m := New(sched, sim.NewSource(1))
	radios := make([]*Radio, 0, side*side)
	for y := 0; y < side; y++ {
		for x := 0; x < side; x++ {
			h := &mockHandler{}
			r := m.AddRadio(uint32(len(radios)+1), phy.Pos(float64(x)*700, float64(y)*700), prof, h)
			radios = append(radios, r)
		}
	}

	f := dataFrame(1, 2, 512)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// Every radio transmits one frame; rotating start times keep the
		// medium from ever seeing two frames from one radio in flight.
		for _, r := range radios {
			r.Transmit(f, phy.Rate11)
			sched.RunUntil(sched.Now() + 10*time.Millisecond)
		}
	}
	b.ReportMetric(float64(sched.Fired())/float64(b.N*len(radios)), "events/tx")
}
