package node

import (
	"math"
	"testing"
	"time"

	"adhocsim/internal/mac"
	"adhocsim/internal/medium"
	"adhocsim/internal/network"
	"adhocsim/internal/phy"
)

// shortRangeProfile returns a radio model whose relevance radius is
// under a hundred meters instead of kilometers — a steep urban-canyon
// path-loss exponent shrinks every range while keeping the default
// power budget intact — so the medium's spatial grid uses cells small
// enough for a random-waypoint walker to cross several of them during
// one test run. Decode range ends up ≈ 18 m, relevance radius ≈ 95 m.
func shortRangeProfile() *phy.Profile {
	p := phy.DefaultProfile()
	p.PathLoss.Exponent = 5
	p.Fading.SigmaDB = 0.5 // fading on: exercise the fade-bounded reach
	return p
}

// mobilityRun drives one fixed-seed network — a paced UDP flow from a
// fast random-waypoint walker to a static sink, plus a second static
// flow far outside their earshot — and returns every observable metric.
func mobilityRun(t *testing.T) (metrics []uint64, cellsVisited int) {
	t.Helper()
	prof := shortRangeProfile()
	n := NewNetwork(77, WithProfile(prof))

	sink := n.AddStation(phy.Pos(150, 150), mac.Config{DataRate: phy.Rate1})
	walker := n.AddStation(phy.Pos(160, 150), mac.Config{DataRate: phy.Rate1})
	// A second, distant flow: beyond the walker pair's relevance radius,
	// so the index genuinely prunes cross-traffic between the two groups.
	farRx := n.AddStation(phy.Pos(2000, 2000), mac.Config{DataRate: phy.Rate1})
	farTx := n.AddStation(phy.Pos(2010, 2000), mac.Config{DataRate: phy.Rate1})

	w := RandomWaypoint{
		Width: 300, Height: 300,
		MinSpeed: 10, MaxSpeed: 30, // vehicular: crosses cells mid-run
		Pause: 500 * time.Millisecond,
		Tick:  50 * time.Millisecond,
	}
	w.Drive(n, walker)

	var sinkGot, farGot uint64
	sink.UDP.Listen(9, func(p []byte, _ network.Addr, _ uint16) { sinkGot++ })
	farRx.UDP.Listen(9, func(p []byte, _ network.Addr, _ uint16) { farGot++ })
	pace := func(src *Station, dst network.Addr) {
		var tick func()
		tick = func() {
			_ = src.UDP.SendTo(make([]byte, 256), dst, 9, 9)
			n.Sched.After(20*time.Millisecond, tick)
		}
		n.Sched.After(20*time.Millisecond, tick)
	}
	pace(walker, sink.Addr())
	pace(farTx, farRx.Addr())

	// Sample which grid cell the walker occupies, using the same cell
	// size the medium derives (max relevance radius at the lowest noise
	// floor): the equivalence claim is only interesting if the walker
	// actually crosses cell boundaries mid-run.
	cell := prof.ReachRange(prof.NoiseFloorDBm - medium.IrrelevantMarginDB)
	cells := map[[2]int32]bool{}
	var sample func()
	sample = func() {
		p := walker.Radio.Pos()
		cells[[2]int32{int32(math.Floor(p.X / cell)), int32(math.Floor(p.Y / cell))}] = true
		n.Sched.After(100*time.Millisecond, sample)
	}
	n.Sched.After(0, sample)

	n.Run(20 * time.Second)

	metrics = []uint64{
		sinkGot, farGot,
		n.Medium.Transmissions, n.Medium.Deliveries, n.Medium.PHYErrors,
		n.Sched.Fired(),
	}
	for _, st := range n.Stations {
		metrics = append(metrics,
			st.Radio.FramesSent, st.Radio.FramesDecoded, st.Radio.FramesErrored,
			st.Radio.FramesMissed, st.Radio.CaptureSwitches,
			st.MAC.Counters.Retries(), st.MAC.Counters.TxDrops, st.MAC.Counters.EIFSDeferrals,
		)
	}
	return metrics, len(cells)
}

// TestMobilityIndexMatchesBruteForce is the spatial index's
// equivalence test: a random-waypoint station crossing grid-cell
// boundaries mid-run must produce exactly the flow and medium metrics
// the exhaustive per-radio propagation produced at the same seed
// (testdata/golden.json).
func TestMobilityIndexMatchesBruteForce(t *testing.T) {
	got, cells := mobilityRun(t)
	if cells < 2 {
		t.Fatalf("walker stayed inside one grid cell (%d visited): the run does not exercise index relocation", cells)
	}
	if got[0] == 0 {
		t.Fatal("sink received nothing: the run does not exercise delivery")
	}
	checkReference(t, "mobility-walker", got)
}
