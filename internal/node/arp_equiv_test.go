package node

import (
	"testing"
	"time"

	"adhocsim/internal/mac"
	"adhocsim/internal/network"
	"adhocsim/internal/phy"
)

// tableARP is the reference the computed resolver replaced: it drops
// every station's resolver and gives its stack a warm ARP entry for
// every other station instead — O(stations²) entries.
func tableARP(n *Network) {
	for _, st := range n.Stations {
		st.Net.SetResolver(nil)
		for _, other := range n.Stations {
			if other != st {
				st.Net.AddNeighbor(other.Addr(), other.HWAddr())
			}
		}
	}
}

// arpRun drives one fixed-seed network — a 4×4 grid of stations with
// three concurrently paced UDP flows — and returns every observable
// metric. With table set the stations resolve through explicit
// neighbor tables (tableARP); otherwise IP→HW resolution goes through
// the computed resolver the city-scale builds rely on.
func arpRun(t *testing.T, table bool) []uint64 {
	t.Helper()
	n := NewNetwork(99)

	var sts []*Station
	for r := 0; r < 4; r++ {
		for c := 0; c < 4; c++ {
			sts = append(sts, n.AddStation(phy.Pos(float64(c)*60, float64(r)*60), mac.Config{DataRate: phy.Rate2}))
		}
	}
	if table {
		tableARP(n)
	}

	pairs := [][2]int{{0, 1}, {5, 6}, {10, 14}}
	got := make([]uint64, len(pairs))
	for k, pr := range pairs {
		k := k
		sts[pr[1]].UDP.Listen(9, func(p []byte, _ network.Addr, _ uint16) { got[k]++ })
	}
	for k, pr := range pairs {
		src, dst := sts[pr[0]], sts[pr[1]]
		var tick func()
		tick = func() {
			_ = src.UDP.SendTo(make([]byte, 300), dst.Addr(), 9, 9)
			n.Sched.After(25*time.Millisecond, tick)
		}
		// Staggered starts so the flows contend rather than alternate in
		// lockstep.
		n.Sched.After(time.Duration(k+1)*5*time.Millisecond, tick)
	}

	n.Run(3 * time.Second)

	metrics := append([]uint64{}, got...)
	metrics = append(metrics,
		n.Medium.Transmissions, n.Medium.Deliveries, n.Medium.PHYErrors,
		n.Sched.Fired(),
	)
	for _, st := range n.Stations {
		metrics = append(metrics,
			st.Radio.FramesSent, st.Radio.FramesDecoded, st.Radio.FramesErrored,
			st.MAC.Counters.Retries(), st.MAC.Counters.TxDrops, st.MAC.Counters.EIFSDeferrals,
		)
	}
	return metrics
}

// TestResolverMatchesNeighborTable pins the computed ARP resolver
// against the explicit neighbor-table wiring it replaced: same seed,
// same traffic, bit-identical metrics — delivery counts, medium
// counters, per-station radio and MAC counters, and the total event
// count.
func TestResolverMatchesNeighborTable(t *testing.T) {
	resolved := arpRun(t, false)
	tabled := arpRun(t, true)

	if resolved[0] == 0 || resolved[1] == 0 || resolved[2] == 0 {
		t.Fatalf("a flow delivered nothing (%v): the run does not exercise resolution", resolved[:3])
	}
	if len(resolved) != len(tabled) {
		t.Fatalf("metric vectors differ in length: %d vs %d", len(resolved), len(tabled))
	}
	for i := range resolved {
		if resolved[i] != tabled[i] {
			t.Fatalf("metric %d diverged: resolver=%d table=%d\nresolver: %v\ntable:    %v",
				i, resolved[i], tabled[i], resolved, tabled)
		}
	}
}
