package scenario

import (
	"fmt"
	"sort"
	"time"
)

// The preset library: named ready-to-run scenarios. The first two mirror
// the paper's own topologies; the rest go beyond it into the classic
// 802.11 ad hoc geometries the two-preset API could never express.
//
// Distances are chosen against the calibrated DefaultProfile ranges
// (TX_range ≈ 30/70/95/120 m at 11/5.5/2/1 Mbit/s, PCS_range ≈ 190 m),
// so each preset exhibits the interaction it is named after.

// presets returns the library, rebuilt per call so callers can mutate
// their copy freely.
func presets() []Spec {
	ps := basePresets()
	return append(ps, faultPresets(ps)...)
}

func basePresets() []Spec {
	return []Spec{
		{
			Name:        "paper-two-node",
			Description: "§3.1 single saturating UDP session, two stations 10 m apart at 11 Mbit/s",
			Seed:        42,
			Duration:    Duration(10 * time.Second),
			MSS:         512,
			Topology:    Topology{Kind: KindLine, N: 2, Spacing: 10},
			MAC:         MACParams{RateMbps: 11},
			Flows:       []Flow{{Src: 0, Dst: 1, Transport: TransportUDP, PacketSize: 512, Port: 9000}},
		},
		{
			Name:        "paper-four-node",
			Description: "§3.3 Figure 7: four stations on a 25/82.5/25 m line, two UDP sessions, testbed asymmetry",
			Seed:        42,
			Duration:    Duration(10 * time.Second),
			MSS:         512,
			Profile:     ProfileTestbed,
			Topology:    Topology{Kind: KindLine, Spacings: []float64{25, 82.5, 25}},
			MAC:         MACParams{RateMbps: 11},
			Flows: []Flow{
				{Src: 0, Dst: 1, Transport: TransportUDP, PacketSize: 512, Port: 9000},
				{Src: 2, Dst: 3, Transport: TransportUDP, PacketSize: 512, Port: 9000},
			},
		},
		{
			Name: "hidden-terminal",
			Description: "two senders 220 m apart (beyond PCS_range) converge on one middle receiver at 1 Mbit/s: " +
				"collisions at the receiver that carrier sense cannot prevent",
			Seed:     42,
			Duration: Duration(10 * time.Second),
			Topology: Topology{Kind: KindLine, N: 3, Spacing: 110},
			MAC:      MACParams{RateMbps: 1},
			Flows: []Flow{
				{Src: 0, Dst: 1, Transport: TransportUDP, PacketSize: 512, Port: 9000},
				{Src: 2, Dst: 1, Transport: TransportUDP, PacketSize: 512, Port: 9001},
			},
		},
		{
			Name: "exposed-terminal",
			Description: "two 50 m sessions pointing away from each other with their senders 100 m apart (inside " +
				"PCS_range) at 5.5 Mbit/s: carrier sense serializes transmissions that could safely overlap",
			Seed:     42,
			Duration: Duration(10 * time.Second),
			Topology: Topology{Kind: KindExplicit, Positions: [][2]float64{{0, 0}, {50, 0}, {150, 0}, {200, 0}}},
			MAC:      MACParams{RateMbps: 5.5},
			Flows: []Flow{
				{Src: 1, Dst: 0, Transport: TransportUDP, PacketSize: 512, Port: 9000},
				{Src: 2, Dst: 3, Transport: TransportUDP, PacketSize: 512, Port: 9000},
			},
		},
		{
			Name: "grid-3x3",
			Description: "nine stations on a 3×3 grid with 25 m spacing at 11 Mbit/s, four one-hop UDP sessions " +
				"contending inside one carrier-sense domain",
			Seed:     42,
			Duration: Duration(10 * time.Second),
			Topology: Topology{Kind: KindGrid, Rows: 3, Cols: 3, Spacing: 25},
			MAC:      MACParams{RateMbps: 11},
			Flows: []Flow{
				{Src: 0, Dst: 1, Transport: TransportUDP, PacketSize: 512, Port: 9000},
				{Src: 2, Dst: 5, Transport: TransportUDP, PacketSize: 512, Port: 9000},
				{Src: 6, Dst: 3, Transport: TransportUDP, PacketSize: 512, Port: 9000},
				{Src: 8, Dst: 7, Transport: TransportUDP, PacketSize: 512, Port: 9000},
			},
		},
		{
			Name: "ring-8",
			Description: "eight stations on a 33 m-radius ring at 11 Mbit/s, four adjacent-pair UDP sessions " +
				"(every receiver neighbors another session's sender)",
			Seed:     42,
			Duration: Duration(10 * time.Second),
			Topology: Topology{Kind: KindRing, N: 8, Radius: 33},
			MAC:      MACParams{RateMbps: 11},
			Flows: []Flow{
				{Src: 0, Dst: 1, Transport: TransportUDP, PacketSize: 512, Port: 9000},
				{Src: 2, Dst: 3, Transport: TransportUDP, PacketSize: 512, Port: 9000},
				{Src: 4, Dst: 5, Transport: TransportUDP, PacketSize: 512, Port: 9000},
				{Src: 6, Dst: 7, Transport: TransportUDP, PacketSize: 512, Port: 9000},
			},
		},
		{
			Name: "grid-32x32",
			Description: "1024 stations on a 32×32 grid with 110 m spacing at 1 Mbit/s, eight paced neighbor flows " +
				"spread across the field: a city-scale hidden-terminal fabric (two-hop pairs sit beyond PCS_range)",
			Seed:     42,
			Duration: Duration(5 * time.Second),
			Topology: Topology{Kind: KindGrid, Rows: 32, Cols: 32, Spacing: 110},
			MAC:      MACParams{RateMbps: 1},
			Flows:    gridNeighborFlows(32, 8),
		},
		random1024(),
		random16k(),
		clusteredBlocks100k(),
		{
			Name: "chain-4",
			Description: "four stations on a 20 m string at 11 Mbit/s, one paced UDP flow relayed end to end " +
				"(3 hops) over compile-time min-hop routes",
			Seed:     42,
			Duration: Duration(10 * time.Second),
			Topology: Topology{Kind: KindLine, N: 4, Spacing: 20},
			MAC:      MACParams{RateMbps: 11},
			Routing:  &RoutingParams{Protocol: "static"},
			Flows: []Flow{
				{Src: 0, Dst: 3, Transport: TransportUDP, PacketSize: 512,
					Interval: Duration(20 * time.Millisecond), Port: 9000},
			},
		},
		{
			Name: "chain-8",
			Description: "eight stations on a 20 m string at 11 Mbit/s, one paced UDP flow relayed over 7 hops " +
				"with DSDV discovering the string on the air",
			Seed:     42,
			Duration: Duration(10 * time.Second),
			Topology: Topology{Kind: KindLine, N: 8, Spacing: 20},
			MAC:      MACParams{RateMbps: 11},
			// The +3 dB neighbor margin keeps the marginal 40 m two-hop
			// shortcuts (which lose ~83% of data epochs) out of the
			// neighbor set while the 20 m string links stay comfortably in.
			Routing: &RoutingParams{Protocol: "dsdv", NeighborMarginDB: 3},
			Flows: []Flow{
				{Src: 0, Dst: 7, Transport: TransportUDP, PacketSize: 512,
					Interval: Duration(20 * time.Millisecond), Port: 9000},
			},
		},
		{
			Name: "mesh-5x5-multihop",
			Description: "25 stations on a 5×5 grid with 20 m spacing at 11 Mbit/s, two paced corner-to-corner " +
				"UDP flows crossing the mesh over DSDV routes",
			Seed:     42,
			Duration: Duration(10 * time.Second),
			Topology: Topology{Kind: KindGrid, Rows: 5, Cols: 5, Spacing: 20},
			MAC:      MACParams{RateMbps: 11},
			// As in chain-8, the margin keeps the 28 m diagonals — which
			// lose a third of their data epochs — from displacing the
			// solid 20 m grid links.
			Routing: &RoutingParams{Protocol: "dsdv", NeighborMarginDB: 3},
			Flows: []Flow{
				{Src: 0, Dst: 24, Transport: TransportUDP, PacketSize: 512,
					Interval: Duration(40 * time.Millisecond), Port: 9000},
				{Src: 4, Dst: 20, Transport: TransportUDP, PacketSize: 512,
					Interval: Duration(40 * time.Millisecond), Port: 9001},
			},
		},
		{
			Name: "mobile-pair",
			Description: "a static sink and a random-waypoint walker on a 300×300 m field at 1 Mbit/s paced CBR: " +
				"the §3.2 mobility consequence — goodput tracks the walker's distance",
			Seed:     42,
			Duration: Duration(30 * time.Second),
			Topology: Topology{Kind: KindExplicit, Positions: [][2]float64{{150, 150}, {160, 150}}},
			MAC:      MACParams{RateMbps: 1},
			Flows: []Flow{
				{Src: 1, Dst: 0, Transport: TransportUDP, PacketSize: 512, Port: 9000, Interval: Duration(20 * time.Millisecond)},
			},
			Mobility: &Mobility{Model: ModelRandomWaypoint, Width: 300, Height: 300, Stations: []int{1}},
		},
	}
}

// faultPresets derives the churn library from the base presets: the
// same topologies and traffic matrices, with a "faults" block layered
// on top, so a faulted preset's healthy twin is always one name away.
func faultPresets(ps []Spec) []Spec {
	base := func(name string) Spec {
		for _, p := range ps {
			if p.Name == name {
				return p
			}
		}
		panic("scenario: fault preset derives from unknown base " + name)
	}

	mesh := base("mesh-5x5-multihop")
	mesh.Name = "churn-mesh-5x5"
	mesh.Description = "mesh-5x5-multihop under relay churn: random relay crashes (~30/min, 0.5–2 s down) plus a " +
		"20 dB shadowing episode on the center station, DSDV re-converging around every hole"
	// Churn only the relays — the four corner flow endpoints stay up, so
	// delivery ratio isolates route breakage from endpoint downtime.
	relays := make([]int, 0, 21)
	for i := 0; i < 25; i++ {
		if i != 0 && i != 4 && i != 20 && i != 24 {
			relays = append(relays, i)
		}
	}
	mesh.Faults = &FaultSpec{
		Churn: &FaultChurn{
			RatePerMin: 30,
			MinDown:    Duration(500 * time.Millisecond),
			MaxDown:    Duration(2 * time.Second),
			Stations:   relays,
		},
		Degradations: []FaultDegradation{
			{Station: 12, From: Duration(2 * time.Second), To: Duration(4 * time.Second), OffsetDB: -20},
		},
	}

	chain := base("chain-8")
	chain.Name = "partition-heal-chain-8"
	chain.Description = "chain-8 cut in half: a 60 dB partition isolates stations 4–7 from 3 s to 6 s, the 7-hop " +
		"flow dies mid-chain, and DSDV re-discovers the string when the partition heals"
	chain.Faults = &FaultSpec{
		// The chain runs along the x axis at 20 m spacing; the box covers
		// stations 4–7 (x = 80–140 m).
		Partitions: []FaultPartition{
			{X0: 70, Y0: -1, X1: 1000, Y1: 1,
				From: Duration(3 * time.Second), To: Duration(6 * time.Second), AttenDB: 60},
		},
	}

	r16k := random16k()
	r16k.Name = "churn-random-16k"
	r16k.Description = "random-16k with city-wide churn: ten station crashes per second (0.2–0.6 s down) across the " +
		"whole field — the fault engine at the city-scale kernel's 16k tier"
	r16k.Faults = &FaultSpec{
		Churn: &FaultChurn{
			RatePerMin: 600,
			MinDown:    Duration(200 * time.Millisecond),
			MaxDown:    Duration(600 * time.Millisecond),
		},
	}

	return []Spec{mesh, chain, r16k}
}

// gridNeighborFlows returns count paced single-hop UDP flows between
// horizontal grid neighbors, spread evenly over a side×side grid so the
// sessions land in distinct carrier-sense domains.
func gridNeighborFlows(side, count int) []Flow {
	flows := make([]Flow, 0, count)
	for i := 0; i < count; i++ {
		// One flow every few rows, staggered across columns so no two
		// flows share a column band.
		row := i * side / count
		col := (i * 7) % (side - 1)
		src := row*side + col
		flows = append(flows, Flow{
			Src: src, Dst: src + 1,
			Transport:  TransportUDP,
			PacketSize: 512,
			Interval:   Duration(20 * time.Millisecond),
			Port:       uint16(9000 + i),
		})
	}
	return flows
}

// random1024 builds the random-1024 preset. On a random field only the
// drawn layout knows which stations are neighbors, so the flows declare
// NearestDst and the engine pairs each of the eight spread-out sources
// with its nearest station at build time — overriding -seed re-draws
// the field *and* re-pairs the flows, so every seed measures viable
// links.
func random1024() Spec {
	s := Spec{
		Name: "random-1024",
		Description: "1024 stations scattered uniformly over a 3.4×3.4 km field at 1 Mbit/s, eight paced " +
			"nearest-neighbor flows: the sparse city-scale regime the spatial medium index is built for",
		Seed:     42,
		Duration: Duration(5 * time.Second),
		Topology: Topology{Kind: KindRandomUniform, N: 1024, Width: 3400, Height: 3400},
		MAC:      MACParams{RateMbps: 1},
	}
	for i := 0; i < 8; i++ {
		s.Flows = append(s.Flows, Flow{
			Src: i * 1024 / 8, NearestDst: true,
			Transport:  TransportUDP,
			PacketSize: 512,
			Interval:   Duration(20 * time.Millisecond),
			Port:       uint16(9000 + i),
		})
	}
	return s
}

// random16k builds the random-16k preset: random-1024 scaled 16× in
// area at the same station density (one station per ~11 300 m²), run
// under the city profile so each transmission's relevance radius covers
// its neighborhood rather than the whole field. Like random-1024 the
// flows declare NearestDst, so re-seeding re-pairs them with viable
// links.
func random16k() Spec {
	s := Spec{
		Name: "random-16k",
		Description: "16384 stations scattered uniformly over a 13.6×13.6 km field at 1 Mbit/s under the city " +
			"profile, sixteen paced nearest-neighbor flows: the 16k tier of the city-scale kernel",
		Seed:     42,
		Duration: Duration(2 * time.Second),
		Profile:  ProfileCity,
		Topology: Topology{Kind: KindRandomUniform, N: 16384, Width: 13600, Height: 13600},
		MAC:      MACParams{RateMbps: 1},
	}
	for i := 0; i < 16; i++ {
		s.Flows = append(s.Flows, Flow{
			Src: i * 16384 / 16, NearestDst: true,
			Transport:  TransportUDP,
			PacketSize: 512,
			Interval:   Duration(20 * time.Millisecond),
			Port:       uint16(9000 + i),
		})
	}
	return s
}

// clusteredBlocks100k builds the clustered-blocks-100k preset: a
// 100 000-station city of 32×32 dense blocks (~98 stations within
// 150 m of each block center) with ~850 m of empty street between
// block centers, under the city profile. Each block is its own
// contention domain — PCS_range 190 m spans one block, never its
// neighbor — and the block grid's consecutive station assignment keeps
// index locality equal to spatial locality. The
// thirty-two sources land one per 32nd block, so the flows sample
// blocks across the whole city.
func clusteredBlocks100k() Spec {
	s := Spec{
		Name: "clustered-blocks-100k",
		Description: "100000 stations in 1024 dense city blocks over a 27.2×27.2 km field at 1 Mbit/s under the " +
			"city profile, 32 paced nearest-neighbor flows: the 100k tier of the city-scale kernel",
		Seed:     42,
		Duration: Duration(time.Second),
		Profile:  ProfileCity,
		Topology: Topology{Kind: KindClusteredBlocks, N: 100000,
			Rows: 32, Cols: 32, Width: 27200, Height: 27200, Radius: 150},
		MAC: MACParams{RateMbps: 1},
	}
	for i := 0; i < 32; i++ {
		s.Flows = append(s.Flows, Flow{
			Src: i * 100000 / 32, NearestDst: true,
			Transport:  TransportUDP,
			PacketSize: 512,
			Interval:   Duration(20 * time.Millisecond),
			Port:       uint16(9000 + i),
		})
	}
	return s
}

// Presets lists the built-in scenario library, sorted by name.
func Presets() []Spec {
	ps := presets()
	sort.Slice(ps, func(i, j int) bool { return ps[i].Name < ps[j].Name })
	return ps
}

// Preset returns the named built-in scenario.
func Preset(name string) (Spec, error) {
	for _, p := range presets() {
		if p.Name == name {
			return p, nil
		}
	}
	names := make([]string, 0)
	for _, p := range Presets() {
		names = append(names, p.Name)
	}
	return Spec{}, fmt.Errorf("scenario: unknown preset %q (have %v)", name, names)
}
