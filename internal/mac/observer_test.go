package mac

import (
	"testing"
	"time"

	"adhocsim/internal/phy"
)

// recordingObserver captures every outcome for assertions.
type recordingObserver struct{ outcomes []TxOutcome }

func (r *recordingObserver) ObserveTx(o TxOutcome) { r.outcomes = append(r.outcomes, o) }

// TestTxObserverSeesSuccess proves a subscribed observer is told about a
// completed MSDU, with the link-layer destination it completed to.
func TestTxObserverSeesSuccess(t *testing.T) {
	tb := newTestbed(t, 1, false, defaults(phy.Rate11, false), phy.Pos(0, 0), phy.Pos(20, 0))
	a := tb.stations[0]
	rec := &recordingObserver{}
	a.mac.AddTxObserver(rec)

	if err := a.mac.Send([]byte("x"), addr(2)); err != nil {
		t.Fatal(err)
	}
	tb.sched.RunUntil(50 * time.Millisecond)
	if len(rec.outcomes) != 1 {
		t.Fatalf("outcomes = %d, want 1", len(rec.outcomes))
	}
	o := rec.outcomes[0]
	if !o.Success || !o.Final || o.Control || o.To != addr(2) {
		t.Fatalf("outcome = %+v", o)
	}
}

// TestTxObserverSeesRetryLimitDrop proves every failed attempt is
// reported and the last one carries Final — the signal routing
// protocols use for link-failure detection.
func TestTxObserverSeesRetryLimitDrop(t *testing.T) {
	// Station 2 is far outside data range, so every attempt times out.
	tb := newTestbed(t, 1, false, defaults(phy.Rate11, false), phy.Pos(0, 0), phy.Pos(500, 0))
	a := tb.stations[0]
	rec := &recordingObserver{}
	a.mac.AddTxObserver(rec)

	if err := a.mac.Send([]byte("x"), addr(2)); err != nil {
		t.Fatal(err)
	}
	tb.sched.RunUntil(time.Second)
	// ShortRetryLimit defaults to 7: the initial attempt plus 7 retries,
	// the 8th failure being final.
	if len(rec.outcomes) != 8 {
		t.Fatalf("outcomes = %d, want 8", len(rec.outcomes))
	}
	for i, o := range rec.outcomes {
		if o.Success {
			t.Fatalf("outcome %d: unexpected success", i)
		}
		if got, want := o.Final, i == len(rec.outcomes)-1; got != want {
			t.Fatalf("outcome %d: Final = %v, want %v", i, got, want)
		}
	}
	if a.mac.Counters.TxDrops != 1 {
		t.Fatalf("TxDrops = %d", a.mac.Counters.TxDrops)
	}
}

// TestSendControlPinsRate proves control MSDUs ride their pinned rate,
// are flagged Control to observers, and are invisible to rate control.
func TestSendControlPinsRate(t *testing.T) {
	cfg := func(i int) Config { return Config{DataRate: phy.Rate11, ARF: i == 0} }
	tb := newTestbed(t, 1, false, cfg, phy.Pos(0, 0), phy.Pos(20, 0))
	a, b := tb.stations[0], tb.stations[1]
	rec := &recordingObserver{}
	a.mac.AddTxObserver(rec)

	if err := a.mac.SendControl([]byte("advert"), addr(2), phy.Rate1); err != nil {
		t.Fatal(err)
	}
	tb.sched.RunUntil(50 * time.Millisecond)
	if len(b.delivered) != 1 {
		t.Fatalf("deliveries = %d", len(b.delivered))
	}
	if len(rec.outcomes) != 1 || !rec.outcomes[0].Control {
		t.Fatalf("outcomes = %+v, want one Control outcome", rec.outcomes)
	}
	// Control outcomes must not reach rate fallback: its streaks stay
	// at their start.
	if a.mac.arf != newARF(phy.Rate11) {
		t.Fatalf("ARF reacted to control traffic: %+v", a.mac.arf)
	}
}
