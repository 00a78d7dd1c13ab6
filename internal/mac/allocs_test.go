package mac

import (
	"testing"

	"adhocsim/internal/phy"
)

// TestDCFTimersAllocs gates the allocation-free DCF timers: a full
// 31-slot backoff countdown and an ACK-timeout re-arm allocate nothing
// once the scheduler's arena is warm, and the countdown costs one heap
// push while still counting one fired event per slot.
func TestDCFTimersAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector instruments allocations")
	}
	tb := newTestbed(t, 1, false, defaults(phy.Rate11, false), phy.Pos(0, 0), phy.Pos(20, 0))
	m := tb.stations[0].mac

	countdown := testing.AllocsPerRun(100, func() {
		m.backoff = 31
		m.tickSlot()
		tb.sched.Run()
	})
	if m.backoff != -1 {
		t.Fatalf("countdown ended with backoff %d, want -1", m.backoff)
	}
	if countdown != 0 {
		t.Errorf("31-slot backoff countdown: %v allocations, want 0", countdown)
	}
	before := tb.sched.Stats()
	m.backoff = 31
	m.tickSlot()
	tb.sched.Run()
	after := tb.sched.Stats()
	if pushes := after.Pushes - before.Pushes; pushes > 1 {
		t.Errorf("31-slot backoff countdown: %d heap pushes, want at most 1", pushes)
	}
	if fired := after.Fired - before.Fired; fired != 31 {
		t.Errorf("31-slot backoff countdown: %d events fired, want one per slot, 31", fired)
	}

	if err := m.Send(make([]byte, 100), addr(2)); err != nil {
		t.Fatal(err)
	}
	tb.sched.Run() // the frame goes out and is acknowledged
	if err := m.Send(make([]byte, 100), addr(2)); err != nil {
		t.Fatal(err)
	}
	if m.current == nil {
		t.Fatal("no MSDU in service")
	}
	rearm := testing.AllocsPerRun(100, func() {
		m.st = stTxData
		m.TxDone() // arms the ACK timeout, cancelling the previous one
	})
	if m.st != stWaitACK || !m.timeoutEv.Pending() {
		t.Fatalf("TxDone left state %v, timeout pending %v", m.st, m.timeoutEv.Pending())
	}
	if rearm != 0 {
		t.Errorf("ACK-timeout re-arm: %v allocations, want 0", rearm)
	}
}
