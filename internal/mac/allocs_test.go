package mac

import (
	"testing"
	"unsafe"

	"adhocsim/internal/phy"
)

// TestMACSize pins the MAC at 696 bytes or less. Every station holds
// one, and an object with pointers over 512 bytes carries an 8-byte
// allocation header, so 696 is the most that stays in the 704-byte size
// class; at 704 bytes the quartered block city's live heap grew by
// 1.5 MB (25,000 MACs moved to the 768-byte class). A new field must
// fit the existing padding, or grow every station on purpose.
func TestMACSize(t *testing.T) {
	if got := unsafe.Sizeof(MAC{}); got > 696 {
		t.Fatalf("unsafe.Sizeof(MAC{}) = %d bytes, want at most 696", got)
	}
}

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
