package mac

import (
	"testing"

	"adhocsim/internal/phy"
)

func TestARFUpgradesAfterSuccesses(t *testing.T) {
	a := newARF(phy.Rate1)
	for i := 0; i < 9; i++ {
		a.onSuccess()
	}
	if a.rate() != phy.Rate1 {
		t.Fatalf("rate = %v after 9 successes, want 1Mbps", a.rate())
	}
	a.onSuccess()
	if a.rate() != phy.Rate2 {
		t.Fatalf("rate = %v after 10 successes, want 2Mbps", a.rate())
	}
}

func TestARFDowngradesAfterFailures(t *testing.T) {
	a := newARF(phy.Rate11)
	a.onFailure()
	if a.rate() != phy.Rate11 {
		t.Fatal("one failure must not downgrade")
	}
	a.onFailure()
	if a.rate() != phy.Rate5_5 {
		t.Fatalf("rate = %v after 2 failures, want 5.5Mbps", a.rate())
	}
}

func TestARFProbeFailureFallsBackImmediately(t *testing.T) {
	a := newARF(phy.Rate1)
	for i := 0; i < 10; i++ {
		a.onSuccess()
	}
	if a.rate() != phy.Rate2 {
		t.Fatalf("rate = %v, want 2Mbps", a.rate())
	}
	// First frame after the upgrade fails: immediate fallback.
	a.onFailure()
	if a.rate() != phy.Rate1 {
		t.Fatalf("rate = %v after failed probe, want 1Mbps", a.rate())
	}
}

func TestARFProbeSuccessSticks(t *testing.T) {
	a := newARF(phy.Rate1)
	for i := 0; i < 10; i++ {
		a.onSuccess()
	}
	a.onSuccess() // probe succeeds
	a.onFailure() // one later failure: no fallback (DownAfter=2)
	if a.rate() != phy.Rate2 {
		t.Fatalf("rate = %v, want 2Mbps to stick", a.rate())
	}
}

func TestARFBounds(t *testing.T) {
	a := newARF(phy.Rate1)
	for i := 0; i < 10; i++ {
		a.onFailure()
	}
	if a.rate() != phy.Rate1 {
		t.Fatal("rate fell below 1Mbps")
	}
	b := newARF(phy.Rate11)
	// Past 255 successes the byte-wide streak wraps, unread at the top.
	for i := 0; i < 300; i++ {
		b.onSuccess()
	}
	if b.rate() != phy.Rate11 {
		t.Fatal("rate rose above 11Mbps")
	}
	if b.probing {
		t.Fatal("probing above the top rate")
	}
}

func TestARFSuccessResetsFailureStreak(t *testing.T) {
	a := newARF(phy.Rate11)
	a.onFailure()
	a.onSuccess()
	a.onFailure()
	if a.rate() != phy.Rate11 {
		t.Fatal("non-consecutive failures must not downgrade")
	}
}

func TestARFConvergesOnMediumLink(t *testing.T) {
	// End-to-end: a link at 60 m supports 5.5 Mbit/s (range 70 m) but
	// not 11 Mbit/s (range 30 m). ARF must settle around 5.5. No
	// observer is subscribed, so this also proves the fallback sees
	// outcomes on a MAC without one.
	cfg := func(i int) Config { return Config{DataRate: phy.Rate11, ARF: i == 0} }
	tb := newTestbed(t, 9, false, cfg, phy.Pos(0, 0), phy.Pos(60, 0))
	a, b := tb.stations[0], tb.stations[1]
	payload := make([]byte, 512)
	fill := func() {
		for a.mac.Send(payload, addr(2)) == nil {
		}
	}
	a.mac.OnQueueSpace(fill)
	fill()
	tb.sched.RunUntil(500 * 1e6) // 500 ms

	if got := a.mac.DataRate(); got != phy.Rate5_5 {
		t.Fatalf("ARF settled at %v, want 5.5Mbps", got)
	}
	if len(b.delivered) == 0 {
		t.Fatal("nothing delivered")
	}
}
