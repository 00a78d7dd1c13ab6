package node

import (
	"slices"
	"testing"
	"time"

	"adhocsim/internal/frame"
	"adhocsim/internal/mac"
	"adhocsim/internal/network"
	"adhocsim/internal/phy"
	"adhocsim/internal/transport"
)

// touchedStations drains the medium's touched set.
func touchedStations(n *Network) []int {
	var got []int
	n.Medium.TakeTouched(func(i int) { got = append(got, i) })
	return got
}

// TestEntryPointsTouch pins every write that marks a station for the
// next Reset: each entry point of each layer, called on station 1 of a
// freshly built network, must mark station 1 and no other. Station 0
// sits 10 m away and station 2 out of earshot; only the leading edge of
// a frame in the air marks a receiver, once the scheduler runs it.
func TestEntryPointsTouch(t *testing.T) {
	data := func() *frame.Frame {
		return &frame.Frame{Type: frame.TypeData, Addr1: frame.AddrFromID(1), Addr2: frame.AddrFromID(2), Payload: make([]byte, 64)}
	}
	for _, tc := range []struct {
		name string
		act  func(n *Network, st *Station)
		want []int
	}{
		{"radio.Transmit", func(_ *Network, st *Station) { st.Radio.Transmit(data(), phy.Rate11) }, []int{1}},
		{"radio arrival", func(n *Network, st *Station) {
			st.Radio.Transmit(data(), phy.Rate11)
			n.Run(time.Millisecond)
		}, []int{0, 1}},
		{"radio.PowerDown", func(_ *Network, st *Station) { st.Radio.PowerDown() }, []int{1}},
		{"radio.SetPos", func(_ *Network, st *Station) { st.Radio.SetPos(phy.Pos(11, 0)) }, []int{1}},
		{"mac.Send", func(_ *Network, st *Station) { st.MAC.Send(make([]byte, 64), frame.Broadcast) }, []int{1}},
		{"mac.SendControl", func(_ *Network, st *Station) { st.MAC.SendControl(make([]byte, 64), frame.Broadcast, phy.Rate1) }, []int{1}},
		{"mac.PowerDown", func(_ *Network, st *Station) { st.MAC.PowerDown() }, []int{1}},
		{"net.SendPacket, no route", func(_ *Network, st *Station) {
			st.Net.RequireRoutes = true
			if st.Net.Send(network.ProtoUDP, make([]byte, 8), network.StationAddr(3)) == nil {
				t.Fatal("an unrouted send succeeded")
			}
		}, []int{1}},
		{"net.SendControl, no neighbor", func(_ *Network, st *Station) {
			if st.Net.SendControl(network.ProtoRouting, make([]byte, 8), network.StationAddr(99), phy.Rate1) == nil {
				t.Fatal("a control send to an unknown station succeeded")
			}
		}, []int{1}},
		{"net.OnQueueSpace", func(_ *Network, st *Station) { st.Net.OnQueueSpace(func() {}) }, []int{1}},
		{"udp.Listen", func(_ *Network, st *Station) {
			st.UDP.Listen(9, func([]byte, network.Addr, uint16) {})
		}, []int{1}},
		{"tcp.Listen", func(_ *Network, st *Station) { st.TCP.Listen(9, func(*transport.Conn) {}) }, []int{1}},
		{"tcp.Dial", func(_ *Network, st *Station) {
			// The SYN fails locally, but it went through the stack.
			st.Net.RequireRoutes = true
			st.TCP.Dial(network.StationAddr(3), 9)
		}, []int{1}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			n := NewNetwork(1)
			for _, x := range []float64{0, 10, 5000} {
				n.AddStation(phy.Pos(x, 0), mac.Config{})
			}
			if got := touchedStations(n); len(got) != 0 {
				t.Fatalf("a fresh build has stations %v touched, want none", got)
			}
			tc.act(n, n.Stations[1])
			if got := touchedStations(n); !slices.Equal(got, tc.want) {
				t.Fatalf("touched %v, want %v", got, tc.want)
			}
		})
	}
}

// TestResetWalksTouchedStations checks Reset's walk itself: a beaconing
// station is touched from its build on, and stays touched across every
// Reset, which re-arms its beacon; a station whose traffic was only
// heard is rewound once and then left alone.
func TestResetWalksTouchedStations(t *testing.T) {
	n := NewNetwork(1)
	n.AddStation(phy.Pos(0, 0), mac.Config{BeaconInterval: 100 * time.Millisecond})
	n.AddStation(phy.Pos(10, 0), mac.Config{})
	n.AddStation(phy.Pos(5000, 0), mac.Config{})
	positions := []phy.Position{n.Stations[0].Radio.Pos(), n.Stations[1].Radio.Pos(), n.Stations[2].Radio.Pos()}
	n.Run(time.Second)
	if n.Stations[1].Radio.FramesDecoded == 0 {
		t.Fatal("station 1 heard no beacon")
	}
	n.Reset(1, positions)
	if n.Stations[1].Radio.FramesDecoded != 0 {
		t.Fatal("Reset did not rewind the station that heard the beacons")
	}
	if got := touchedStations(n); !slices.Equal(got, []int{0}) {
		t.Fatalf("after Reset, touched %v, want the beaconing station [0]", got)
	}
}
