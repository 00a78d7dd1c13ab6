package adhocsim_test

import (
	"testing"
	"time"

	"adhocsim"
)

// These tests exercise the public facade exactly as a downstream user
// would, keeping the exported API honest.

func TestPublicQuickstartFlow(t *testing.T) {
	net := adhocsim.NewNetwork(1)
	a := net.AddStation(adhocsim.Pos(0, 0), adhocsim.MACConfig{DataRate: adhocsim.Rate11})
	b := net.AddStation(adhocsim.Pos(20, 0), adhocsim.MACConfig{DataRate: adhocsim.Rate11})

	var sink adhocsim.UDPSink
	sink.ListenUDP(b, 9000)
	adhocsim.NewCBR(net, a, b.Addr(), 9000, 512, 0).Start()
	net.Run(time.Second)

	got := sink.ThroughputMbps(time.Second)
	ideal := adhocsim.NewCapacityModel(adhocsim.Rate11, 512, false).ThroughputMbps()
	if got < 0.85*ideal || got > 1.05*ideal {
		t.Fatalf("throughput %.2f vs ideal %.2f", got, ideal)
	}
}

func TestPublicTCPFlow(t *testing.T) {
	net := adhocsim.NewNetwork(2, adhocsim.WithMSS(512))
	a := net.AddStation(adhocsim.Pos(0, 0), adhocsim.MACConfig{})
	b := net.AddStation(adhocsim.Pos(15, 0), adhocsim.MACConfig{})

	var sink adhocsim.TCPSink
	sink.ListenTCP(b, 80)
	bulk := adhocsim.StartBulk(net, a, b.Addr(), 80, 512)
	net.Run(time.Second)

	if sink.Bytes == 0 {
		t.Fatal("no TCP bytes delivered through the public API")
	}
	if !bulk.Conn().Established() {
		t.Fatal("connection not established")
	}
}

func TestPublicTable2(t *testing.T) {
	rows := adhocsim.Table2()
	if len(rows) != 8 {
		t.Fatalf("Table2 rows = %d", len(rows))
	}
	if rows[0].Rate != adhocsim.Rate11 {
		t.Fatal("Table2 ordering wrong")
	}
}

func TestPublicExperimentRunners(t *testing.T) {
	res := adhocsim.RunTwoNode(adhocsim.TwoNode{
		Transport: adhocsim.UDP,
		Duration:  500 * time.Millisecond,
		Seed:      3,
	})
	if res.MeasuredMbps <= 0 || res.IdealMbps <= 0 {
		t.Fatalf("RunTwoNode: %+v", res)
	}

	four := adhocsim.RunFourNode(adhocsim.FourNode{
		Rate: adhocsim.Rate11, D12: 25, D23: 82.5, D34: 25,
		Transport: adhocsim.UDP,
		Duration:  500 * time.Millisecond,
		Seed:      3,
	})
	if four.Session1Kbps+four.Session2Kbps <= 0 {
		t.Fatalf("RunFourNode: %+v", four)
	}

	pts := adhocsim.RunLossSweep(adhocsim.LossSweep{
		Rate:      adhocsim.Rate11,
		Distances: []float64{20, 40},
		Packets:   30,
		Seed:      3,
	})
	if len(pts) != 2 || pts[0].Loss > pts[1].Loss {
		t.Fatalf("RunLossSweep: %+v", pts)
	}
}

func TestPublicReplicationHarness(t *testing.T) {
	sum := adhocsim.ReplicateTwoNode(adhocsim.TwoNode{
		Transport: adhocsim.UDP,
		Duration:  500 * time.Millisecond,
		Seed:      3,
	}, adhocsim.Rep{Replications: 3, Workers: 2})
	if sum.Replications != 3 || sum.Mbps.N != 3 {
		t.Fatalf("summary: %+v", sum)
	}
	if sum.Mbps.Mean <= 0 || sum.IdealMbps <= 0 {
		t.Fatalf("summary means: %+v", sum.Mbps)
	}
	// Replication 0 reuses the root seed: the classic runner is a
	// special case of the harness.
	classic := adhocsim.RunTwoNode(adhocsim.TwoNode{
		Transport: adhocsim.UDP,
		Duration:  500 * time.Millisecond,
		Seed:      3,
	})
	if sum.Runs[0] != classic {
		t.Fatalf("replication 0 %+v != classic %+v", sum.Runs[0], classic)
	}

	cells := adhocsim.Figure7Reps(42, 500*time.Millisecond, adhocsim.Rep{Replications: 2})
	if len(cells) != 4 {
		t.Fatalf("Figure7Reps cells = %d", len(cells))
	}
	for _, c := range cells {
		if c.Result.Session1Kbps+c.Result.Session2Kbps <= 0 {
			t.Fatalf("cell %+v has no traffic", c)
		}
	}
}

func TestPublicProfileAndWeather(t *testing.T) {
	p := adhocsim.DefaultProfile()
	if p.MedianRange(adhocsim.Rate11) < 25 || p.MedianRange(adhocsim.Rate11) > 35 {
		t.Fatalf("11 Mbit/s range = %.1f", p.MedianRange(adhocsim.Rate11))
	}
	damp := adhocsim.WeatherDamp.Apply(p)
	if damp.MedianRange(adhocsim.Rate1) >= p.MedianRange(adhocsim.Rate1) {
		t.Fatal("damp weather must shorten range")
	}
}

func TestPublicMobility(t *testing.T) {
	net := adhocsim.NewNetwork(9)
	a := net.AddStation(adhocsim.Pos(10, 10), adhocsim.MACConfig{})
	b := net.AddStation(adhocsim.Pos(20, 10), adhocsim.MACConfig{})
	w := adhocsim.DefaultWaypoint()
	w.Drive(net, a)
	var lm adhocsim.LinkMonitor
	lm.Watch(net, a, b, 100, 100*time.Millisecond)
	net.Run(10 * time.Second)
	if lm.UpTime == 0 {
		t.Fatal("link monitor recorded nothing")
	}
}

// TestPublicScenarioAPI drives the declarative scenario facade the way
// a downstream user would: author a spec, run it, replicate it, and
// check the preset library and the TwoNode→Spec compilation agree.
func TestPublicScenarioAPI(t *testing.T) {
	spec := adhocsim.Scenario{
		Name:     "api-grid",
		Seed:     3,
		Duration: 5e8, // 500ms in ns
		Topology: adhocsim.ScenarioTopology{Kind: "grid", Rows: 2, Cols: 2, Spacing: 20},
		Flows: []adhocsim.ScenarioFlow{
			{Src: 0, Dst: 1},
			{Src: 2, Dst: 3},
		},
	}
	res, err := adhocsim.RunScenario(spec)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Flows) != 2 || res.Flows[0].Bytes == 0 {
		t.Fatalf("scenario moved no traffic: %+v", res.Flows)
	}

	sum, err := adhocsim.ReplicateScenario(spec, 2, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if sum.Replications != 2 || len(sum.Runs) != 2 {
		t.Fatalf("summary shape: %+v", sum)
	}

	if len(adhocsim.ScenarioPresets()) < 5 {
		t.Fatal("preset library too small")
	}
	if _, err := adhocsim.ScenarioPreset("ring-8"); err != nil {
		t.Fatal(err)
	}

	// A scenario a user authors by hand must reproduce the classic
	// two-node experiment bit-for-bit. (RunTwoNode itself runs through
	// the engine now, so this checks the *authored* spec matches the
	// preset compilation, not the engine against itself.)
	cfg := adhocsim.TwoNode{Transport: adhocsim.UDP, Duration: 500 * time.Millisecond, Seed: 11}
	classic := adhocsim.RunTwoNode(cfg)
	handAuthored := adhocsim.Scenario{
		Name:     "two-node-by-hand",
		Seed:     11,
		Duration: adhocsim.ScenarioDuration(500 * time.Millisecond),
		MSS:      512,
		Topology: adhocsim.ScenarioTopology{Kind: "line", Spacings: []float64{10}},
		MAC:      adhocsim.ScenarioMAC{RateMbps: 11},
		Flows:    []adhocsim.ScenarioFlow{{Src: 0, Dst: 1, Transport: "udp", PacketSize: 512, Port: 9000}},
	}
	viaSpec, err := adhocsim.RunScenario(handAuthored)
	if err != nil {
		t.Fatal(err)
	}
	if viaSpec.Flows[0].GoodputMbps != classic.MeasuredMbps {
		t.Fatalf("hand-authored spec %.6f Mbit/s != classic %.6f", viaSpec.Flows[0].GoodputMbps, classic.MeasuredMbps)
	}
}
