package node

import (
	"math/rand"
	"strconv"
	"testing"
	"time"

	"adhocsim/internal/mac"
	"adhocsim/internal/network"
	"adhocsim/internal/phy"
)

// gainCacheRun drives one fixed-seed network through a pseudo-random
// interleaving of station moves and unicast transmissions — the two
// operations that interact with the link-gain cache (moves invalidate
// cached path loss via mobility epochs; transmissions consume cached
// gains) — and returns every observable metric. The interleaving is a
// pure function of seed.
func gainCacheRun(t *testing.T, seed uint64) []uint64 {
	t.Helper()
	prof := phy.TestbedProfile() // static + dynamic shadowing components
	prof.PathLoss.Exponent = 4   // urban-canyon ranges: moves cross in/out of earshot
	prof.Fading.SigmaDB = 2
	prof.Fading.Coherence = 30 * time.Millisecond // several epoch rollovers per run

	n := NewNetwork(seed, WithProfile(prof))

	var sts []*Station
	for i := 0; i < 6; i++ {
		sts = append(sts, n.AddStation(
			phy.Pos(float64(i%3)*25, float64(i/3)*25),
			mac.Config{DataRate: phy.Rate2}))
	}
	received := make([]uint64, len(sts))
	for i, st := range sts {
		i := i
		st.UDP.Listen(9, func(p []byte, _ network.Addr, _ uint16) { received[i]++ })
	}

	// The driver rng is separate from the network's sim.Source: it
	// scripts the interleaving, it is not part of the system under test.
	drv := rand.New(rand.NewSource(int64(seed)*7919 + 17))
	moves, sends := 0, 0
	var step func()
	step = func() {
		switch drv.Intn(3) {
		case 0: // move a random station by a random offset
			st := sts[drv.Intn(len(sts))]
			p := st.Radio.Pos()
			st.Radio.SetPos(phy.Pos(
				p.X+drv.Float64()*30-15,
				p.Y+drv.Float64()*30-15))
			moves++
		default: // queue a unicast datagram on a random pair
			src, dst := sts[drv.Intn(len(sts))], sts[drv.Intn(len(sts))]
			if src != dst {
				_ = src.UDP.SendTo(make([]byte, 200), dst.Addr(), 9, 9)
				sends++
			}
		}
		n.Sched.After(time.Duration(1+drv.Intn(8000))*time.Microsecond, step)
	}
	n.Sched.After(0, step)
	n.Run(3 * time.Second)

	if moves < 50 || sends < 100 {
		t.Fatalf("interleaving too thin to prove anything: %d moves, %d sends", moves, sends)
	}
	metrics := []uint64{
		n.Medium.Transmissions, n.Medium.Deliveries, n.Medium.PHYErrors,
		n.Sched.Fired(),
	}
	metrics = append(metrics, received...)
	for _, st := range sts {
		metrics = append(metrics,
			st.Radio.FramesSent, st.Radio.FramesDecoded, st.Radio.FramesErrored,
			st.Radio.FramesMissed, st.Radio.CaptureSwitches,
			st.MAC.Counters.Retries(), st.MAC.Counters.TxDrops, st.MAC.Counters.EIFSDeferrals)
	}
	return metrics
}

// TestGainCacheMatchesDirectUnderInterleaving is the link-gain
// property test: arbitrary interleavings of SetPos and Transmit must
// produce exactly the metrics — including the number of scheduler
// events fired — that the direct per-arrival PHY computation produced
// before the cache was the only path, across several interleaving
// seeds (testdata/golden_reference.json).
func TestGainCacheMatchesDirectUnderInterleaving(t *testing.T) {
	ref := loadReference(t)
	got := make(map[string][]uint64)
	for _, seed := range []uint64{3, 77, 2026} {
		m := gainCacheRun(t, seed)
		if m[1] == 0 {
			t.Fatalf("seed %d: no deliveries — the run does not exercise reception", seed)
		}
		key := strconv.FormatUint(seed, 10)
		got[key] = m
		if !*updateReference {
			compareMetrics(t, "seed "+key, m, ref.GainCache[key])
		}
	}
	if *updateReference {
		ref.GainCache = got
		storeReference(t, ref)
	}
}
