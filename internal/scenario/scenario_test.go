package scenario

import (
	"fmt"
	"math"
	"reflect"
	"strings"
	"testing"
	"time"

	"adhocsim/internal/phy"
	"adhocsim/internal/routing"
)

func line(n int, spacing float64) Topology { return Topology{Kind: KindLine, N: n, Spacing: spacing} }

func validSpec() Spec {
	return Spec{
		Name:     "t",
		Seed:     1,
		Duration: Duration(time.Second),
		Topology: line(2, 10),
		Flows:    []Flow{{Src: 0, Dst: 1}},
	}
}

// --- Topology generators -------------------------------------------------

func TestLineTopology(t *testing.T) {
	ps, err := Topology{Kind: KindLine, Spacings: []float64{25, 82.5, 25}}.Expand(1)
	if err != nil {
		t.Fatal(err)
	}
	want := []phy.Position{phy.Pos(0, 0), phy.Pos(25, 0), phy.Pos(107.5, 0), phy.Pos(132.5, 0)}
	if !reflect.DeepEqual(ps, want) {
		t.Fatalf("line = %v, want %v", ps, want)
	}
	if ps, _ = line(3, 50).Expand(1); ps[2] != phy.Pos(100, 0) {
		t.Fatalf("uniform line end = %v", ps[2])
	}
}

func TestGridTopology(t *testing.T) {
	ps, err := Topology{Kind: KindGrid, Rows: 3, Cols: 3, Spacing: 25}.Expand(1)
	if err != nil {
		t.Fatal(err)
	}
	if len(ps) != 9 {
		t.Fatalf("grid size = %d", len(ps))
	}
	if ps[4] != phy.Pos(25, 25) {
		t.Fatalf("grid center = %v", ps[4])
	}
	if ps[8] != phy.Pos(50, 50) {
		t.Fatalf("grid corner = %v", ps[8])
	}
}

func TestRingTopology(t *testing.T) {
	const r = 33.0
	ps, err := Topology{Kind: KindRing, N: 8, Radius: r}.Expand(1)
	if err != nil {
		t.Fatal(err)
	}
	for i, p := range ps {
		d := math.Hypot(p.X-r, p.Y-r)
		if math.Abs(d-r) > 1e-9 {
			t.Fatalf("station %d at distance %.3f from center, want %.3f", i, d, r)
		}
	}
	// Adjacent chord length: 2R sin(π/8).
	want := 2 * r * math.Sin(math.Pi/8)
	got := phy.Dist(ps[0], ps[1])
	if math.Abs(got-want) > 1e-9 {
		t.Fatalf("chord = %.3f, want %.3f", got, want)
	}
}

func TestRandomUniformTopologyDeterministic(t *testing.T) {
	top := Topology{Kind: KindRandomUniform, N: 16, Width: 500, Height: 400}
	a, err := top.Expand(7)
	if err != nil {
		t.Fatal(err)
	}
	b, _ := top.Expand(7)
	c, _ := top.Expand(8)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed produced different fields")
	}
	if reflect.DeepEqual(a, c) {
		t.Fatal("different seeds produced identical fields")
	}
	for i, p := range a {
		if p.X < 0 || p.X > 500 || p.Y < 0 || p.Y > 400 {
			t.Fatalf("station %d at %v outside field", i, p)
		}
	}
}

func TestTopologyErrors(t *testing.T) {
	bad := []Topology{
		{Kind: "hexagon"},
		{Kind: KindExplicit},
		{Kind: KindExplicit, N: 9, Positions: [][2]float64{{0, 0}, {1, 0}}},
		{Kind: KindLine, N: 1, Spacing: 10},
		{Kind: KindLine, N: 4, Spacings: []float64{1, 2}},
		{Kind: KindLine, N: 3, Spacings: []float64{10, -1}},
		{Kind: KindGrid, Rows: 2, Cols: 2},
		{Kind: KindGrid, Rows: 2, Cols: 2, Spacing: 10, N: 5},
		{Kind: KindRing, N: 2, Radius: 10},
		{Kind: KindRing, N: 8},
		{Kind: KindRandomUniform, N: 0, Width: 10, Height: 10},
		{Kind: KindRandomUniform, N: 4, Width: -1, Height: 10},
	}
	for i, top := range bad {
		if _, err := top.Expand(1); err == nil {
			t.Errorf("case %d (%+v): no error", i, top)
		}
	}
}

// --- Spec JSON and validation --------------------------------------------

func TestSpecJSONRoundTrip(t *testing.T) {
	spec := Spec{
		Name:        "round-trip",
		Description: "all the knobs",
		Seed:        99,
		Duration:    Duration(2500 * time.Millisecond),
		MSS:         512,
		Profile:     ProfileTestbed,
		Topology:    Topology{Kind: KindGrid, Rows: 2, Cols: 4, Spacing: 30},
		MAC:         MACParams{RateMbps: 5.5, RTSCTS: true},
		Stations: []StationOverride{
			{Station: 3, MAC: &MACParams{RateMbps: 1}, Profile: ProfileDamp},
		},
		Flows: []Flow{
			{Src: 0, Dst: 1, Transport: TransportUDP, PacketSize: 1024, Interval: Duration(5 * time.Millisecond), Port: 7000},
			{Src: 2, Dst: 3, Transport: TransportTCP, PacketSize: 512},
		},
		Mobility: &Mobility{Model: ModelRandomWaypoint, Width: 100, Height: 100, Stations: []int{1}},
	}
	buf, err := MarshalSpec(spec)
	if err != nil {
		t.Fatal(err)
	}
	back, err := ParseSpec(buf)
	if err != nil {
		t.Fatalf("parse: %v\n%s", err, buf)
	}
	if !reflect.DeepEqual(spec, back) {
		t.Fatalf("round trip diverged:\n got %+v\nwant %+v", back, spec)
	}
}

func TestParseSpecReadableDurations(t *testing.T) {
	spec, err := ParseSpec([]byte(`{
		"name": "readable",
		"seed": 1,
		"duration": "1500ms",
		"topology": {"kind": "line", "n": 2, "spacing": 10},
		"flows": [{"src": 0, "dst": 1, "interval": "20ms"}]
	}`))
	if err != nil {
		t.Fatal(err)
	}
	if spec.Duration.D() != 1500*time.Millisecond {
		t.Fatalf("duration = %v", spec.Duration.D())
	}
	if spec.Flows[0].Interval.D() != 20*time.Millisecond {
		t.Fatalf("interval = %v", spec.Flows[0].Interval.D())
	}
}

func TestParseSpecRejectsUnknownFields(t *testing.T) {
	_, err := ParseSpec([]byte(`{"name": "typo", "seeed": 1}`))
	if err == nil || !strings.Contains(err.Error(), "seeed") {
		t.Fatalf("err = %v, want unknown-field complaint", err)
	}
}

// TestParseSpecRejectsSchedulerBlock pins the clean failure of specs
// written for the retired event-queue backend switch: every run uses the
// one heap scheduler now, and an old "scheduler" block is an unknown
// field, whatever it names.
func TestParseSpecRejectsSchedulerBlock(t *testing.T) {
	for _, backend := range []string{"calendar", "heap"} {
		t.Run(backend, func(t *testing.T) {
			_, err := ParseSpec([]byte(`{
				"name": "old-spec",
				"seed": 1,
				"duration": "1s",
				"scheduler": "` + backend + `",
				"topology": {"kind": "line", "n": 2, "spacing": 10},
				"flows": [{"src": 0, "dst": 1}]
			}`))
			if err == nil || !strings.Contains(err.Error(), `unknown field "scheduler"`) {
				t.Fatalf("err = %v, want the unknown-field error for \"scheduler\"", err)
			}
		})
	}
}

// TestParseSpecRejectsRetiredParallelFields pins the clean failure of
// specs written for the retired parallel-kernel switches: the region
// grid's cut lines have one placement and the executor one servicing
// path, so an old "partitioner" or "sequential" key is an unknown field.
func TestParseSpecRejectsRetiredParallelFields(t *testing.T) {
	for _, tc := range []struct{ field, value string }{
		{"partitioner", `"uniform"`},
		{"sequential", "true"},
	} {
		t.Run(tc.field, func(t *testing.T) {
			_, err := ParseSpec([]byte(`{
				"name": "old-spec",
				"seed": 1,
				"duration": "1s",
				"topology": {"kind": "line", "n": 2, "spacing": 10},
				"flows": [{"src": 0, "dst": 1}],
				"parallel": {"workers": 1, "` + tc.field + `": ` + tc.value + `}
			}`))
			if err == nil || !strings.Contains(err.Error(), `unknown field "`+tc.field+`"`) {
				t.Fatalf("err = %v, want the unknown-field error for %q", err, tc.field)
			}
		})
	}
}

func TestValidateErrors(t *testing.T) {
	cases := []struct {
		name   string
		mutate func(*Spec)
		want   string
	}{
		{"no flows", func(s *Spec) { s.Flows = nil }, "no flows"},
		{"src out of range", func(s *Spec) { s.Flows[0].Src = 7 }, "outside topology"},
		{"self flow", func(s *Spec) { s.Flows[0].Dst = 0 }, "itself"},
		{"bad transport", func(s *Spec) { s.Flows[0].Transport = "sctp" }, "transport"},
		{"bad rate", func(s *Spec) { s.MAC.RateMbps = 54 }, "not an 802.11b rate"},
		{"bad profile", func(s *Spec) { s.Profile = "indoor" }, "unknown profile"},
		{"oversized packet", func(s *Spec) { s.Flows[0].PacketSize = 4000 }, "packet size"},
		{"negative interval", func(s *Spec) { s.Flows[0].Interval = -1 }, "interval"},
		{"1ns interval", func(s *Spec) { s.Flows[0].Interval = Duration(time.Nanosecond) }, "under the 192µs floor"},
		{"191µs interval", func(s *Spec) { s.Flows[0].Interval = Duration(191 * time.Microsecond) }, "under the 192µs floor"},
		{"port clash", func(s *Spec) {
			s.Flows = append(s.Flows, Flow{Src: 1, Dst: 1, Transport: TransportUDP})
			s.Flows[1].Src = 0 // both flows 0→1 on default port 9000
		}, "port"},
		{"override out of range", func(s *Spec) {
			s.Stations = []StationOverride{{Station: 5}}
		}, "override"},
		{"override duplicated", func(s *Spec) {
			s.Stations = []StationOverride{{Station: 0}, {Station: 0}}
		}, "overridden twice"},
		{"bad override rate", func(s *Spec) {
			s.Stations = []StationOverride{{Station: 0, MAC: &MACParams{RateMbps: 3}}}
		}, "not an 802.11b rate"},
		{"bad mobility model", func(s *Spec) {
			s.Mobility = &Mobility{Model: "brownian"}
		}, "mobility model"},
		{"mobility station out of range", func(s *Spec) {
			s.Mobility = &Mobility{Model: ModelRandomWaypoint, Stations: []int{9}}
		}, "mobility station"},
		{"mobility station duplicated", func(s *Spec) {
			s.Mobility = &Mobility{Model: ModelRandomWaypoint, Stations: []int{1, 1}}
		}, "listed twice"},
		{"1ns mobility tick", func(s *Spec) {
			s.Mobility = &Mobility{Model: ModelRandomWaypoint, Tick: Duration(time.Nanosecond)}
		}, "mobility tick 1ns is under the 192µs floor"},
		{"1ns advert interval", func(s *Spec) {
			s.Routing = &RoutingParams{Protocol: routing.ProtocolDSDV, AdvertInterval: Duration(time.Nanosecond)}
		}, "advert interval 1ns is under the 192µs floor"},
		{"station limit", func(s *Spec) {
			s.Topology = Topology{Kind: KindRandomUniform, N: MaxStations + 1, Width: 100, Height: 100}
		}, "exceeds the 1048576-station limit"},
		{"grid past the station limit", func(s *Spec) {
			s.Topology = Topology{Kind: KindGrid, Rows: 1 << 32, Cols: 1 << 32, Spacing: 1}
		}, "exceeds the 1048576-station limit"},
		{"line past the station limit", func(s *Spec) {
			s.Topology = Topology{Kind: KindLine, N: 1 << 62, Spacing: 1}
		}, "exceeds the 1048576-station limit"},
		{"line past the float range", func(s *Spec) {
			s.Topology = Topology{Kind: KindLine, N: 3, Spacing: 1e308}
		}, "places station 1 at (1e+308, 0) m, outside the ±1e+15 m field"},
		{"ring past the float range", func(s *Spec) {
			s.Topology = Topology{Kind: KindRing, N: 4, Radius: 1e308}
		}, "outside the ±1e+15 m field"},
		{"station past the coordinate bound", func(s *Spec) {
			s.Topology = Topology{Kind: KindExplicit, Positions: [][2]float64{{0, 0}, {0, -1.000001e15}}}
		}, "places station 1 at (0, -1.000001e+15) m, outside"},
		// Unbounded, a mover stepping from x = -1.7e308 toward a
		// waypoint drawn on the 1.7e308-wide field lands at (NaN, NaN).
		{"mover an infinite distance from its waypoints", func(s *Spec) {
			s.Topology = Topology{Kind: KindExplicit, Positions: [][2]float64{{-1.7e308, 0}, {0, 0}}}
			s.Mobility = &Mobility{Model: ModelRandomWaypoint, Width: 1.7e308}
		}, "places station 0 at (-1.7e+308, 0) m"},
		{"waypoint field past the coordinate bound", func(s *Spec) {
			s.Mobility = &Mobility{Model: ModelRandomWaypoint, Height: 1.1e15}
		}, "mobility field 0×1.1e+15 m exceeds 1e+15 m a side"},
		{"churn over a huge horizon", func(s *Spec) {
			s.Duration = Duration(1 << 62)
			s.Faults = &FaultSpec{Churn: &FaultChurn{RatePerMin: 600, MinDown: Duration(time.Millisecond), MaxDown: Duration(time.Second)}}
		}, "over the limit"},
		{"oversized region grid", func(s *Spec) {
			s.Parallel = &ParallelParams{Cols: 1000, Rows: 1000}
		}, "exceeds 256 regions"},
		{"oversized region grid, auto rows", func(s *Spec) {
			s.Parallel = &ParallelParams{Cols: 40}
		}, "exceeds 256 regions"},
	}
	for _, tc := range cases {
		spec := validSpec()
		tc.mutate(&spec)
		err := spec.Validate()
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: err = %v, want substring %q", tc.name, err, tc.want)
		}
	}
	if err := validSpec().Validate(); err != nil {
		t.Fatalf("valid spec rejected: %v", err)
	}
	paced := validSpec()
	paced.Flows[0].Interval = Duration(phy.PLCPTime)
	if err := paced.Validate(); err != nil {
		t.Errorf("192µs interval rejected: %v", err)
	}
	paced.Mobility = &Mobility{Model: ModelRandomWaypoint, Tick: Duration(phy.PLCPTime)}
	paced.Routing = &RoutingParams{Protocol: routing.ProtocolDSDV, AdvertInterval: Duration(phy.PLCPTime)}
	if err := paced.Validate(); err != nil {
		t.Errorf("192µs mobility tick and advert interval rejected: %v", err)
	}
	for _, p := range []ParallelParams{{}, {Cols: 16, Rows: 16}, {Cols: 32}, {Cols: 2, Rows: 2}} {
		spec := validSpec()
		spec.Parallel = &p
		if err := spec.Validate(); err != nil {
			t.Errorf("%dx%d region grid rejected: %v", p.Cols, p.Rows, err)
		}
	}
}

// --- Engine --------------------------------------------------------------

func TestRunDeterministic(t *testing.T) {
	spec := validSpec()
	spec.Duration = Duration(500 * time.Millisecond)
	a := MustRun(spec)
	b := MustRun(spec)
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("same spec diverged:\n%+v\n%+v", a, b)
	}
	spec.Seed = 2
	c := MustRun(spec)
	if reflect.DeepEqual(a.Flows, c.Flows) {
		t.Fatal("different seeds produced identical flow results")
	}
}

func TestRunDeliversTraffic(t *testing.T) {
	spec := validSpec()
	spec.Duration = Duration(time.Second)
	res := MustRun(spec)
	if len(res.Flows) != 1 || len(res.Stations) != 2 {
		t.Fatalf("result shape: %d flows, %d stations", len(res.Flows), len(res.Stations))
	}
	f := res.Flows[0]
	if f.Received == 0 || f.Bytes == 0 || f.GoodputMbps <= 0 {
		t.Fatalf("no traffic delivered: %+v", f)
	}
	// 10 m at 11 Mbit/s is deep in range: goodput must be near capacity.
	if f.GoodputMbps < 2 {
		t.Fatalf("goodput %.2f Mbit/s, want > 2", f.GoodputMbps)
	}
}

func TestRunTCPFlow(t *testing.T) {
	spec := validSpec()
	spec.Flows[0].Transport = TransportTCP
	spec.Duration = Duration(time.Second)
	res := MustRun(spec)
	f := res.Flows[0]
	if f.Bytes == 0 || f.AppSent == 0 {
		t.Fatalf("TCP flow moved no data: %+v", f)
	}
	if f.Received != f.Bytes/512 {
		t.Fatalf("Received = %d, want Bytes/512 = %d", f.Received, f.Bytes/512)
	}
}

func TestRunEightStationRingWithFlowMatrix(t *testing.T) {
	spec, err := Preset("ring-8")
	if err != nil {
		t.Fatal(err)
	}
	spec.Duration = Duration(time.Second)
	res := MustRun(spec)
	if len(res.Stations) != 8 || len(res.Flows) != 4 {
		t.Fatalf("shape: %d stations, %d flows", len(res.Stations), len(res.Flows))
	}
	var total float64
	for _, f := range res.Flows {
		total += f.GoodputKbps
	}
	if total < 100 {
		t.Fatalf("ring moved only %.1f kbit/s total", total)
	}
	if res.Fairness <= 0 || res.Fairness > 1 {
		t.Fatalf("fairness = %.3f", res.Fairness)
	}
}

func TestRunMobilitySpec(t *testing.T) {
	spec, err := Preset("mobile-pair")
	if err != nil {
		t.Fatal(err)
	}
	spec.Duration = Duration(2 * time.Second)
	inst, err := Build(spec)
	if err != nil {
		t.Fatal(err)
	}
	start := inst.Net.Stations[1].Radio.Pos()
	inst.Net.Run(spec.Duration.D())
	if inst.Net.Stations[1].Radio.Pos() == start {
		t.Fatal("mobile station never moved")
	}
	if inst.Net.Stations[0].Radio.Pos() != phy.Pos(150, 150) {
		t.Fatal("static station moved")
	}
}

// TestInt32EdgeFieldFinishes runs two stations 10 m apart where the
// default profile's relevance-radius cell column is the largest int32:
// a query box reaching one cell past it once wrapped an int32 cell
// counter and spun for ever. Each run, direct, over static routing and
// with a nearest_dst flow, must finish well inside the wall budget.
func TestInt32EdgeFieldFinishes(t *testing.T) {
	p := phy.DefaultProfile()
	r := p.ReachRange(p.NoiseFloorDBm - 20)
	x := math.MaxInt32*r - r/2
	if math.Floor((x+10+r)/r) != math.MaxInt32 {
		t.Fatalf("x = %v: the query box does not end in cell column %d", x, math.MaxInt32)
	}
	base := Spec{
		Name:     "int32-edge",
		Seed:     1,
		Duration: Duration(200 * time.Millisecond),
		Topology: Topology{Kind: KindExplicit, Positions: [][2]float64{{x, 0}, {x + 10, 0}}},
		Flows:    []Flow{{Src: 0, Dst: 1}},
	}
	static, nearest := base, base
	static.Routing = &RoutingParams{Protocol: routing.ProtocolStatic}
	nearest.Flows = []Flow{{Src: 0, NearestDst: true}}
	for _, spec := range []Spec{base, static, nearest} {
		done := make(chan error, 1)
		go func() {
			res, err := Run(spec)
			if err == nil && res.Flows[0].Received == 0 {
				err = fmt.Errorf("nothing delivered")
			}
			done <- err
		}()
		select {
		case err := <-done:
			if err != nil {
				t.Fatal(err)
			}
		case <-time.After(30 * time.Second):
			t.Fatal("run still going after 30 s of wall time")
		}
	}
}

func TestPerStationOverrides(t *testing.T) {
	spec := validSpec()
	spec.MAC = MACParams{RateMbps: 11}
	spec.Stations = []StationOverride{
		{Station: 1, MAC: &MACParams{RateMbps: 1}, Profile: ProfileDamp},
	}
	inst, err := Build(spec)
	if err != nil {
		t.Fatal(err)
	}
	if got := inst.Net.Stations[0].MAC.DataRate(); got != phy.Rate11 {
		t.Fatalf("station 0 rate = %v", got)
	}
	if got := inst.Net.Stations[1].MAC.DataRate(); got != phy.Rate1 {
		t.Fatalf("station 1 rate = %v", got)
	}
	if inst.Net.Stations[1].Radio.Profile() == inst.Net.Stations[0].Radio.Profile() {
		t.Fatal("station 1 profile not overridden")
	}

	// An explicit per-station "default" on a non-default network must pin
	// DefaultProfile, not silently inherit the network-wide profile.
	spec = validSpec()
	spec.Profile = ProfileTestbed
	spec.Stations = []StationOverride{{Station: 0, Profile: ProfileDefault}}
	inst, err = Build(spec)
	if err != nil {
		t.Fatal(err)
	}
	if got := inst.Net.Stations[0].Radio.Profile().Name; got != phy.DefaultProfile().Name {
		t.Fatalf("station 0 profile = %q, want the default profile", got)
	}
	if got := inst.Net.Stations[1].Radio.Profile().Name; got != phy.TestbedProfile().Name {
		t.Fatalf("station 1 profile = %q, want the testbed profile", got)
	}
}

// --- Presets and replication ---------------------------------------------

func TestPresetsAllValid(t *testing.T) {
	ps := Presets()
	if len(ps) < 5 {
		t.Fatalf("only %d presets", len(ps))
	}
	for _, p := range ps {
		if p.Name == "" || p.Description == "" {
			t.Errorf("preset %q lacks name or description", p.Name)
		}
		if err := p.Validate(); err != nil {
			t.Errorf("preset %q invalid: %v", p.Name, err)
		}
		if _, err := MarshalSpec(p); err != nil {
			t.Errorf("preset %q does not marshal: %v", p.Name, err)
		}
	}
	if _, err := Preset("no-such"); err == nil {
		t.Fatal("unknown preset did not error")
	}
}

// TestLargeScalePresetsGeometry pins the two 1024-station presets: full
// station counts, and flow endpoints that can actually communicate (the
// random field's flows are nearest-neighbor pairs by construction).
func TestLargeScalePresetsGeometry(t *testing.T) {
	prof := phy.DefaultProfile()
	for _, name := range []string{"grid-32x32", "random-1024"} {
		spec, err := Preset(name)
		if err != nil {
			t.Fatal(err)
		}
		pos, err := spec.Topology.Expand(spec.Seed)
		if err != nil {
			t.Fatal(err)
		}
		if len(pos) != 1024 {
			t.Fatalf("%s expands to %d stations, want 1024", name, len(pos))
		}
		// Compile (but don't run): the engine accepts the scale, and
		// Build resolves any NearestDst pairings against the topology.
		inst, err := Build(spec)
		if err != nil {
			t.Fatal(err)
		}
		if got := len(inst.Net.Stations); got != 1024 {
			t.Fatalf("%s built network has %d stations, want 1024", name, got)
		}
		if len(inst.Spec.Flows) != 8 {
			t.Fatalf("%s has %d flows, want 8", name, len(inst.Spec.Flows))
		}
		for i, f := range inst.Spec.Flows {
			if d := phy.Dist(pos[f.Src], pos[f.Dst]); d > prof.MedianRange(phy.Rate1) {
				t.Errorf("%s flow %d spans %.0f m, beyond the 1 Mbit/s median range %.0f m", name, i, d, prof.MedianRange(phy.Rate1))
			}
		}
	}
}

// TestNearestDstResolution pins the NearestDst flow contract: the engine
// binds the destination to the station truly nearest the source in the
// *effective* topology draw — re-seeding a spec re-pairs its flows, so
// a seed sweep of a random-field preset always measures viable links.
func TestNearestDstResolution(t *testing.T) {
	spec, err := Preset("random-1024")
	if err != nil {
		t.Fatal(err)
	}
	for _, seed := range []uint64{42, 99} {
		spec.Seed = seed
		pos, err := spec.Topology.Expand(seed)
		if err != nil {
			t.Fatal(err)
		}
		inst, err := Build(spec)
		if err != nil {
			t.Fatal(err)
		}
		for i, f := range inst.Spec.Flows {
			want, best := -1, math.Inf(1)
			for j, p := range pos {
				if j == f.Src {
					continue
				}
				if d := phy.Dist(pos[f.Src], p); d < best {
					want, best = j, d
				}
			}
			if f.Dst != want {
				t.Fatalf("seed %d flow %d resolved to %d, nearest is %d (%.0f m)", seed, i, f.Dst, want, best)
			}
			if f.NearestDst {
				t.Fatalf("seed %d flow %d still flagged NearestDst after resolution", seed, i)
			}
		}
	}

	// Conflicting dst + nearest_dst fails validation loudly.
	bad := validSpec()
	bad.Flows[0].NearestDst = true
	bad.Flows[0].Dst = 1
	if err := bad.Validate(); err == nil {
		t.Fatal("nearest_dst with explicit dst did not error")
	}

	// A nearest_dst flow sharing a port with any other flow must fail at
	// validation, seed-independently: on a random field another seed
	// could resolve both flows to the same sink, and a replication sweep
	// would otherwise crash mid-run on the clash.
	clash := Spec{
		Name:     "clash",
		Seed:     5,
		Topology: Topology{Kind: KindRandomUniform, N: 16, Width: 200, Height: 200},
		Flows: []Flow{
			{Src: 0, NearestDst: true},
			{Src: 8, NearestDst: true}, // same default port 9000
		},
	}
	if err := clash.Validate(); err == nil {
		t.Fatal("nearest_dst flows sharing a port did not error")
	}
}

// TestNearestDstReplicateLabeling: a multi-replication summary must not
// attribute a NearestDst flow's aggregate to replication 0's pairing —
// each replication re-drew the field — while a single-replication
// summary keeps the one real destination.
func TestNearestDstReplicateLabeling(t *testing.T) {
	spec := Spec{
		Name:     "nn",
		Seed:     5,
		Duration: Duration(200 * time.Millisecond),
		Topology: Topology{Kind: KindRandomUniform, N: 16, Width: 200, Height: 200},
		MAC:      MACParams{RateMbps: 1},
		Flows:    []Flow{{Src: 0, NearestDst: true, Interval: Duration(50 * time.Millisecond)}},
	}
	multi, err := Replicate(spec, 3, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	if f := multi.Flows[0]; f.Dst != -1 || !f.NearestDst {
		t.Fatalf("multi-rep summary claims dst %d (nearest=%v), want -1/true", f.Dst, f.NearestDst)
	}
	if got := Render(multi); !strings.Contains(got, "0→nearest") {
		t.Fatalf("render does not mark the nearest-dst flow:\n%s", got)
	}
	single, err := Replicate(spec, 1, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	if f := single.Flows[0]; f.Dst < 0 || f.NearestDst {
		t.Fatalf("single-rep summary lost its resolved dst: %+v", f)
	}
}

func TestHiddenTerminalGeometry(t *testing.T) {
	spec, err := Preset("hidden-terminal")
	if err != nil {
		t.Fatal(err)
	}
	pos, err := spec.Topology.Expand(spec.Seed)
	if err != nil {
		t.Fatal(err)
	}
	prof := phy.DefaultProfile()
	if d := phy.Dist(pos[0], pos[2]); d <= prof.CarrierSenseRange() {
		t.Fatalf("senders %0.f m apart, inside PCS_range %.0f m — not hidden", d, prof.CarrierSenseRange())
	}
	if d := phy.Dist(pos[0], pos[1]); d >= prof.MedianRange(phy.Rate1) {
		t.Fatalf("sender %0.f m from receiver, outside 1 Mbit/s range %.0f m", d, prof.MedianRange(phy.Rate1))
	}
}

func TestReplicateWorkerInvariance(t *testing.T) {
	spec := validSpec()
	spec.Duration = Duration(300 * time.Millisecond)
	serial, err := Replicate(spec, 4, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := Replicate(spec, 4, 4, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(serial, parallel) {
		t.Fatal("worker count changed replicated results")
	}
	if serial.Replications != 4 || serial.Flows[0].Kbps.N != 4 {
		t.Fatalf("summary shape: %+v", serial.Flows[0].Kbps)
	}
	if serial.Runs[0].Seed != spec.Seed {
		t.Fatalf("replication 0 seed = %d, want root %d", serial.Runs[0].Seed, spec.Seed)
	}
	if got := Render(serial); !strings.Contains(got, "0→1") || !strings.Contains(got, "fairness") {
		t.Fatalf("render missing pieces:\n%s", got)
	}
}
