package scenario

import (
	"bytes"
	"encoding/json"
	"testing"
	"time"

	"adhocsim/internal/phy"
	"adhocsim/internal/routing"
)

// TestChain8BothProtocols is the multi-hop acceptance test: the chain-8
// preset must deliver nonzero end-to-end UDP goodput over all 7 relay
// hops under both control planes, deterministically at its fixed seed.
func TestChain8BothProtocols(t *testing.T) {
	for _, proto := range []string{routing.ProtocolStatic, routing.ProtocolDSDV} {
		proto := proto
		t.Run(proto, func(t *testing.T) {
			spec, err := Preset("chain-8")
			if err != nil {
				t.Fatal(err)
			}
			spec.Routing.Protocol = proto
			a := MustRun(spec)
			b := MustRun(spec)
			aj, _ := json.Marshal(a)
			bj, _ := json.Marshal(b)
			if !bytes.Equal(aj, bj) {
				t.Fatalf("fixed-seed run is not deterministic:\n%s\n%s", aj, bj)
			}
			f := a.Flows[0]
			if f.GoodputKbps <= 0 {
				t.Fatalf("no end-to-end goodput: %+v", f)
			}
			if f.Hops < 7 {
				t.Fatalf("delivered path = %d hops, want ≥ 7", f.Hops)
			}
			var forwarded uint64
			for _, st := range a.Stations {
				forwarded += st.NetForwarded
			}
			if forwarded == 0 {
				t.Fatal("nothing was relayed")
			}
			if a.Routing != proto {
				t.Fatalf("Result.Routing = %q", a.Routing)
			}
			if proto == routing.ProtocolDSDV {
				var ctl uint64
				for _, st := range a.Stations {
					ctl += st.CtlBytes
				}
				if ctl == 0 {
					t.Fatal("dsdv reported no control overhead")
				}
			}
		})
	}
}

// TestThreeStationRelayAccounting pins the end-to-end goodput
// accounting of the minimal relay scenario A→B→C: what C's sink counts
// must be consistent with what B forwarded and what A sent, and the
// measured hop count must be 2.
func TestThreeStationRelayAccounting(t *testing.T) {
	spec := Spec{
		Name:     "relay-3",
		Seed:     42,
		Duration: Duration(5 * time.Second),
		Topology: Topology{Kind: KindLine, N: 3, Spacing: 20},
		MAC:      MACParams{RateMbps: 11},
		Routing:  &RoutingParams{Protocol: routing.ProtocolStatic},
		Flows: []Flow{{Src: 0, Dst: 2, Transport: TransportUDP, PacketSize: 512,
			Interval: Duration(20 * time.Millisecond), Port: 9000}},
	}
	res := MustRun(spec)
	f := res.Flows[0]
	src, relay, dst := res.Stations[0], res.Stations[1], res.Stations[2]

	if f.Received == 0 || f.GoodputKbps == 0 {
		t.Fatalf("no end-to-end delivery: %+v", f)
	}
	if f.Hops != 2 {
		t.Fatalf("Hops = %d, want 2", f.Hops)
	}
	// Every datagram C's transport delivered arrived at C's stack.
	if dst.NetReceived != f.Received {
		t.Fatalf("dst stack received %d, sink %d", dst.NetReceived, f.Received)
	}
	// Every packet C received was forwarded by B, and B forwarded no
	// more than A originated.
	if relay.NetForwarded < dst.NetReceived {
		t.Fatalf("relay forwarded %d < dst received %d", relay.NetForwarded, dst.NetReceived)
	}
	if relay.NetForwarded > src.NetSent {
		t.Fatalf("relay forwarded %d > src sent %d", relay.NetForwarded, src.NetSent)
	}
	// The source originated every generated datagram (static routes
	// exist from t=0, so nothing was refused).
	if src.NetSent != f.AppSent {
		t.Fatalf("src stack sent %d, app sent %d", src.NetSent, f.AppSent)
	}
	// Loss happened on the air, not in the accounting: generated =
	// delivered + gaps (+ any packets still in flight at the horizon,
	// which the final-gap accounting of the sink does not count).
	if f.Received+f.Gaps > f.AppSent {
		t.Fatalf("delivered %d + gaps %d > generated %d", f.Received, f.Gaps, f.AppSent)
	}
}

// TestDSDVScenarioLinkBreakRecovery is the scenario-level break test:
// a walking relay carries a 2-hop flow, walks out of range mid-run
// (random waypoint), and DSDV re-resolves the flow through the
// replacement path; the summary reports the control overhead spent.
func TestDSDVScenarioLinkBreakRecovery(t *testing.T) {
	// A static diamond: source 0, destination 3, relays 1 (on the line)
	// and 2 (offset). Both relays are viable; the mobile relay 1 walks
	// away mid-run, and the flow must survive on relay 2.
	spec := Spec{
		Name:     "dsdv-break",
		Seed:     42,
		Duration: Duration(12 * time.Second),
		Topology: Topology{Kind: KindExplicit, Positions: [][2]float64{
			{0, 0}, {20, 0}, {18, 12}, {40, 0},
		}},
		MAC:     MACParams{RateMbps: 11},
		Routing: &RoutingParams{Protocol: routing.ProtocolDSDV},
		Flows: []Flow{{Src: 0, Dst: 3, Transport: TransportUDP, PacketSize: 512,
			Interval: Duration(20 * time.Millisecond), Port: 9000}},
	}
	inst, err := Build(spec)
	if err != nil {
		t.Fatal(err)
	}
	// Converge and carry traffic with everyone in place.
	inst.Net.Run(6 * time.Second)
	before := inst.udpSinks[0].Received
	if before == 0 {
		t.Fatal("no delivery before the break")
	}
	breaks := func() (n uint64) {
		for _, r := range inst.Routers() {
			n += r.Counters.LinkBreaks
		}
		return n
	}
	preBreaks := breaks()

	// Relay 1 abruptly leaves the field.
	inst.Net.Stations[1].Radio.SetPos(phy.Pos(20, 5000))
	inst.Net.Run(6 * time.Second)

	after := inst.udpSinks[0].Received
	if after <= before {
		t.Fatalf("flow never recovered: %d before, %d after", before, after)
	}
	res := inst.Collect(12 * time.Second)
	if res.Flows[0].Hops < 2 {
		t.Fatalf("recovered path hops = %d", res.Flows[0].Hops)
	}
	var ctl uint64
	for _, st := range res.Stations {
		ctl += st.CtlBytes
	}
	if ctl == 0 {
		t.Fatal("summary reports no control overhead")
	}
	if breaks() == preBreaks {
		// The break may be detected by the source or by a relay whose
		// next hop vanished; someone must have noticed.
		t.Fatal("no station declared a link break")
	}
}

// TestStaticUnreachableFlowErrors proves a flow whose endpoints the
// connectivity graph cannot join is a build error, not a silent
// starvation.
func TestStaticUnreachableFlowErrors(t *testing.T) {
	spec := Spec{
		Name:     "unreachable",
		Seed:     1,
		Duration: Duration(time.Second),
		Topology: Topology{Kind: KindLine, N: 3, Spacing: 200}, // gaps beyond any range
		MAC:      MACParams{RateMbps: 11},
		Routing:  &RoutingParams{Protocol: routing.ProtocolStatic},
		Flows:    []Flow{{Src: 0, Dst: 2, Transport: TransportUDP, PacketSize: 512, Port: 9000}},
	}
	if _, err := Build(spec); err == nil {
		t.Fatal("unreachable static flow built without error")
	}
}

// --- golden: single-hop presets with routing compiled in but disabled ---

// goldenPresetNames are the single-hop presets pinned byte-for-byte:
// the routing subsystem is compiled in but disabled for all of them, and
// must not perturb a single counter or float.
var goldenPresetNames = []string{
	"paper-two-node", "paper-four-node", "hidden-terminal",
	"exposed-terminal", "grid-3x3", "ring-8",
}

// TestGoldenSingleHopPresets locks the single-hop preset results. The
// entries were recorded when the routing subsystem landed; any later
// change to these bytes means a change leaked into the routing-disabled
// path.
func TestGoldenSingleHopPresets(t *testing.T) {
	for _, name := range goldenPresetNames {
		spec, err := Preset(name)
		if err != nil {
			t.Fatal(err)
		}
		if spec.Routing != nil {
			t.Fatalf("preset %q is not single-hop", name)
		}
		spec.Duration = Duration(2 * time.Second) // keep the golden cheap
		runGolden(t, name, spec)
	}
}
