package routing

import (
	"fmt"
	"testing"
	"time"

	"adhocsim/internal/frame"
	"adhocsim/internal/mac"
	"adhocsim/internal/medium"
	"adhocsim/internal/network"
	"adhocsim/internal/phy"
	"adhocsim/internal/sim"
)

// TestGraphMinHop pins the BFS solution on a 4-station string: min-hop
// paths, first hops, and unreachability.
func TestGraphMinHop(t *testing.T) {
	pos := []phy.Position{phy.Pos(0, 0), phy.Pos(20, 0), phy.Pos(40, 0), phy.Pos(60, 0)}
	g := NewGraph(pos, 25)
	cases := []struct{ src, dst, hops, next int }{
		{0, 1, 1, 1},
		{0, 2, 2, 1},
		{0, 3, 3, 1},
		{3, 0, 3, 2},
		{1, 3, 2, 2},
	}
	for _, c := range cases {
		if got := g.Hops(c.src, c.dst); got != c.hops {
			t.Errorf("Hops(%d,%d) = %d, want %d", c.src, c.dst, got, c.hops)
		}
		if got := g.NextHop(c.src, c.dst); got != c.next {
			t.Errorf("NextHop(%d,%d) = %d, want %d", c.src, c.dst, got, c.next)
		}
	}
	// A station beyond everyone's range is unreachable.
	g = NewGraph([]phy.Position{phy.Pos(0, 0), phy.Pos(20, 0), phy.Pos(500, 0)}, 25)
	if g.Hops(0, 2) != -1 || g.NextHop(0, 2) != -1 {
		t.Fatalf("distant station reported reachable: hops=%d", g.Hops(0, 2))
	}
}

// TestGraphTieBreakDeterministic proves equal-length paths resolve to
// the lowest-index first hop, independent of geometry-irrelevant order.
func TestGraphTieBreakDeterministic(t *testing.T) {
	// A diamond: 0 can reach 3 via 1 or 2, both 2 hops. BFS must pick 1.
	pos := []phy.Position{phy.Pos(0, 0), phy.Pos(20, 10), phy.Pos(20, -10), phy.Pos(40, 0)}
	g := NewGraph(pos, 25)
	if got := g.NextHop(0, 3); got != 1 {
		t.Fatalf("NextHop(0,3) = %d, want lowest-index 1", got)
	}
}

// testNet builds stations over a fade-free medium for control-plane
// tests with deterministic geometry.
type testNet struct {
	sched  *sim.Scheduler
	src    *sim.Source
	med    *medium.Medium
	nodes  []Node
	macs   []*mac.MAC
	radios []*medium.Radio
}

func newTestNet(seed uint64, prof *phy.Profile, positions ...phy.Position) *testNet {
	src := sim.NewSource(seed)
	sched := sim.NewScheduler()
	tn := &testNet{sched: sched, src: src, med: medium.New(sched, src)}
	for i, pos := range positions {
		id := uint32(i + 1)
		m := mac.New(sched, src, mac.Config{Address: frame.AddrFromID(id), DataRate: phy.Rate11})
		radio := tn.med.AddRadio(id, pos, prof, m)
		m.Attach(radio)
		st := network.NewStack(m, network.StationAddr(id))
		tn.nodes = append(tn.nodes, Node{
			Addr: st.Addr(), Pos: pos, Stack: st, MAC: m,
		})
		tn.macs = append(tn.macs, m)
		tn.radios = append(tn.radios, radio)
	}
	for i := range tn.nodes {
		for j := range tn.nodes {
			if i != j {
				tn.nodes[i].Stack.AddNeighbor(tn.nodes[j].Addr, tn.nodes[j].MAC.Address())
			}
		}
	}
	return tn
}

// TestInstallStatic proves the compiler installs working multi-hop
// routes: an end-to-end send over a 3-station string is relayed and
// delivered, and RequireRoutes rejects unreachable destinations.
func TestInstallStatic(t *testing.T) {
	prof := phy.DefaultProfile()
	prof.Fading.SigmaDB = 0
	tn := newTestNet(1, prof, phy.Pos(0, 0), phy.Pos(20, 0), phy.Pos(40, 0))
	g := InstallStatic(tn.nodes, 25)
	if g.Hops(0, 2) != 2 {
		t.Fatalf("hops(0,2) = %d", g.Hops(0, 2))
	}
	var got []byte
	tn.nodes[2].Stack.Handle(network.ProtoUDP, func(p []byte, _, _ network.Addr) { got = p })
	if err := tn.nodes[0].Stack.Send(network.ProtoUDP, []byte("relay me"), tn.nodes[2].Addr); err != nil {
		t.Fatal(err)
	}
	tn.sched.RunUntil(100 * time.Millisecond)
	if string(got) != "relay me" {
		t.Fatalf("end-to-end delivery failed: %q", got)
	}
	if tn.nodes[1].Stack.Forwarded != 1 {
		t.Fatalf("relay Forwarded = %d", tn.nodes[1].Stack.Forwarded)
	}
	if got := tn.nodes[2].Stack.HopsFrom(tn.nodes[0].Addr); got != 2 {
		t.Fatalf("HopsFrom = %d, want 2", got)
	}
	// An address outside the graph has no route: ErrNoRoute, not a
	// blind transmission.
	err := tn.nodes[0].Stack.Send(network.ProtoUDP, []byte("x"), network.HostAddr(99))
	if err == nil {
		t.Fatal("send to routeless destination succeeded")
	}
}

// dsdvNet wires a DSDV instance per station.
func dsdvNet(tn *testNet, cfg DSDVConfig) []*DSDV {
	routers := make([]*DSDV, len(tn.nodes))
	for i := range tn.nodes {
		routers[i] = New(tn.sched, tn.src, tn.nodes[i], cfg)
	}
	for _, r := range routers {
		r.Start()
	}
	return routers
}

// TestDSDVConvergesOnChain proves the protocol discovers a 4-station
// string end to end: every station obtains a route to every other, with
// the right metrics, and data then flows over multiple hops.
func TestDSDVConvergesOnChain(t *testing.T) {
	prof := phy.DefaultProfile()
	prof.Fading.SigmaDB = 0 // clean channel: convergence logic in isolation
	tn := newTestNet(1, prof, phy.Pos(0, 0), phy.Pos(20, 0), phy.Pos(40, 0), phy.Pos(60, 0))
	thr := prof.SensitivityDBm[phy.Rate11.Index()]
	routers := dsdvNet(tn, DSDVConfig{MinNeighborDBm: thr})
	tn.sched.RunUntil(3 * time.Second)

	for i := range tn.nodes {
		for j := range tn.nodes {
			if i == j {
				continue
			}
			want := j - i
			if want < 0 {
				want = -want
			}
			_, metric, ok := routers[i].Route(tn.nodes[j].Addr)
			if !ok || metric != want {
				t.Fatalf("station %d route to %d: ok=%v metric=%d, want %d", i, j, ok, metric, want)
			}
		}
	}

	var got []byte
	tn.nodes[3].Stack.Handle(network.ProtoUDP, func(p []byte, _, _ network.Addr) { got = p })
	if err := tn.nodes[0].Stack.Send(network.ProtoUDP, []byte("over the air routes"), tn.nodes[3].Addr); err != nil {
		t.Fatal(err)
	}
	tn.sched.RunUntil(tn.sched.Now() + 100*time.Millisecond)
	if string(got) != "over the air routes" {
		t.Fatalf("delivery over DSDV routes failed: %q", got)
	}
	if got := tn.nodes[3].Stack.HopsFrom(tn.nodes[0].Addr); got != 3 {
		t.Fatalf("HopsFrom = %d, want 3", got)
	}
	if routers[0].Counters.ControlBytes == 0 {
		t.Fatal("no control overhead accounted")
	}
}

// TestDSDVLinkBreakRecovery proves the protocol reroutes after a
// mid-run link break: the source reaches the destination through the
// only relay until that relay walks away (and two replacement relays
// walk in), after which the MAC's transmit failures break the stale
// route and the replacement path takes over.
func TestDSDVLinkBreakRecovery(t *testing.T) {
	prof := phy.DefaultProfile()
	prof.Fading.SigmaDB = 0
	tn := newTestNet(1, prof,
		phy.Pos(0, 0),     // 0: source
		phy.Pos(20, 0),    // 1: the only relay at first (walks away mid-run)
		phy.Pos(40, 0),    // 2: destination
		phy.Pos(10, 5000), // 3: replacement relay, staged out of range
		phy.Pos(30, 5000), // 4: replacement relay, staged out of range
	)
	src, relay, dst := 0, 1, 2
	thr := prof.SensitivityDBm[phy.Rate11.Index()]
	routers := dsdvNet(tn, DSDVConfig{MinNeighborDBm: thr})

	delivered := 0
	tn.nodes[dst].Stack.Handle(network.ProtoUDP, func(p []byte, _, _ network.Addr) { delivered++ })
	// Paced data source: one packet every 20 ms for the whole run.
	var tick func()
	tick = func() {
		_ = tn.nodes[src].Stack.Send(network.ProtoUDP, []byte("payload"), tn.nodes[dst].Addr)
		tn.sched.After(20*time.Millisecond, tick)
	}
	tn.sched.After(0, tick)

	// Let the network converge and carry traffic on the only path.
	tn.sched.RunUntil(3 * time.Second)
	if delivered == 0 {
		t.Fatal("no delivery before the break")
	}
	if via, _, ok := routers[src].Route(tn.nodes[dst].Addr); !ok || via != tn.nodes[relay].Addr {
		t.Fatalf("pre-break route = %v (ok=%v), want via relay %v", via, ok, tn.nodes[relay].Addr)
	}
	before := delivered

	// The relay walks out of range — the source's data frames go
	// unacknowledged and its MAC reports transmit failures — while two
	// replacement relays walk into a 0–3–4–2 string.
	tn.radios[relay].SetPos(phy.Pos(20, 5000))
	tn.radios[3].SetPos(phy.Pos(10, 17))
	tn.radios[4].SetPos(phy.Pos(30, 17))
	tn.sched.RunUntil(10 * time.Second)

	if routers[src].Counters.LinkBreaks == 0 {
		t.Fatal("source never declared the link broken")
	}
	if via, _, ok := routers[src].Route(tn.nodes[dst].Addr); !ok {
		t.Fatal("route never recovered after the break")
	} else if via == tn.nodes[relay].Addr {
		t.Fatalf("route still via the departed relay %v", via)
	}
	if delivered <= before {
		t.Fatalf("no traffic delivered after the break: before=%d after=%d", before, delivered)
	}
	if routers[src].Counters.ControlBytes == 0 {
		t.Fatal("no control overhead accounted")
	}
}

// TestDSDVResetMatchesFresh proves Reset returns a router network to a
// state that evolves identically to a freshly built one — the property
// scenario arena reuse depends on.
func TestDSDVResetMatchesFresh(t *testing.T) {
	prof := phy.DefaultProfile()
	run := func(tn *testNet, routers []*DSDV) []uint64 {
		tn.sched.RunUntil(tn.sched.Now() + 2*time.Second)
		var sig []uint64
		for _, r := range routers {
			sig = append(sig, r.Counters.AdvertsSent, r.Counters.ControlBytes, r.Counters.RouteChanges)
		}
		return sig
	}
	pos := []phy.Position{phy.Pos(0, 0), phy.Pos(20, 0), phy.Pos(40, 0)}

	fresh := newTestNet(7, prof, pos...)
	thr := prof.SensitivityDBm[phy.Rate11.Index()]
	a := run(fresh, dsdvNet(fresh, DSDVConfig{MinNeighborDBm: thr}))

	// Same seed, but run once at a different seed first, then Reset.
	reused := newTestNet(3, prof, pos...)
	routers := dsdvNet(reused, DSDVConfig{MinNeighborDBm: thr})
	run(reused, routers)
	reused.sched.Reset()
	reused.src.Reseed(7)
	reused.med.Reset(pos)
	for i := range reused.nodes {
		reused.radios[i].Reset()
		reused.macs[i].Reset()
		reused.nodes[i].Stack.Reset()
	}
	for _, r := range routers {
		r.Reset()
	}
	b := run(reused, routers)

	if len(a) != len(b) {
		t.Fatalf("signature lengths differ")
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("reset run diverged from fresh at %d: %v vs %v", i, a, b)
		}
	}
}

// TestDSDVKeyMatchesFormattedName pins the DSDV jitter stream key to
// the hash of its fmt-built name, so no station's jitter stream moved
// when the name stopped being formatted.
func TestDSDVKeyMatchesFormattedName(t *testing.T) {
	for _, id := range []uint32{1, 255, 256, 4095, 65535, 65536, network.MaxStationID} {
		a := network.StationAddr(id)
		name := fmt.Sprintf("routing.dsdv.%d.%d.%d.%d", byte(a>>24), byte(a>>16), byte(a>>8), byte(a))
		if got, want := dsdvKey(a), sim.KeyFor(name); got != want {
			t.Errorf("station %d: dsdvKey = %#x, want KeyFor(%q) = %#x", id, got, name, want)
		}
	}
}
