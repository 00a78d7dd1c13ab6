package mac

import (
	"fmt"
	"testing"
	"time"

	"adhocsim/internal/frame"
	"adhocsim/internal/medium"
	"adhocsim/internal/phy"
	"adhocsim/internal/sim"
)

// station bundles a MAC with its radio and a record of deliveries.
type station struct {
	mac       *MAC
	radio     *medium.Radio
	delivered [][]byte
	sources   []frame.Addr
}

// testbed wires n stations onto one medium.
type testbed struct {
	sched    *sim.Scheduler
	src      *sim.Source
	med      *medium.Medium
	stations []*station
}

// newTestbed builds n stations at the given positions. fade=false zeroes
// the shadowing for deterministic geometry.
func newTestbed(t *testing.T, seed uint64, fade bool, cfg func(i int) Config, positions ...phy.Position) *testbed {
	t.Helper()
	prof := phy.DefaultProfile()
	if !fade {
		prof.Fading.SigmaDB = 0
	}
	return newTestbedProfile(seed, prof, cfg, positions...)
}

func newTestbedProfile(seed uint64, prof *phy.Profile, cfg func(i int) Config, positions ...phy.Position) *testbed {
	src := sim.NewSource(seed)
	sched := sim.NewScheduler()
	tb := &testbed{sched: sched, src: src, med: medium.New(sched, src)}
	for i, pos := range positions {
		c := cfg(i)
		c.Address = frame.AddrFromID(uint32(i + 1))
		m := New(sched, src, c)
		st := &station{mac: m}
		m.OnDeliver(func(payload []byte, from frame.Addr) {
			st.delivered = append(st.delivered, payload)
			st.sources = append(st.sources, from)
		})
		st.radio = tb.med.AddRadio(uint32(i+1), pos, prof, m)
		m.Attach(st.radio)
		tb.stations = append(tb.stations, st)
	}
	return tb
}

func addr(i int) frame.Addr { return frame.AddrFromID(uint32(i)) }

func defaults(rate phy.Rate, rts bool) func(int) Config {
	thr := RTSNever
	if rts {
		thr = 1
	}
	return func(int) Config {
		return Config{DataRate: rate, RTSThreshold: thr}
	}
}

func TestSingleMSDUDelivered(t *testing.T) {
	tb := newTestbed(t, 1, false, defaults(phy.Rate11, false), phy.Pos(0, 0), phy.Pos(20, 0))
	a, b := tb.stations[0], tb.stations[1]

	payload := []byte("hello, ad hoc world")
	if err := a.mac.Send(payload, addr(2)); err != nil {
		t.Fatal(err)
	}
	tb.sched.RunUntil(50 * time.Millisecond)

	if len(b.delivered) != 1 || string(b.delivered[0]) != string(payload) {
		t.Fatalf("delivered = %q, want one copy of payload", b.delivered)
	}
	if b.sources[0] != addr(1) {
		t.Fatalf("source = %v, want %v", b.sources[0], addr(1))
	}
	if a.mac.Counters.TxSuccess != 1 {
		t.Fatalf("TxSuccess = %d, want 1", a.mac.Counters.TxSuccess)
	}
	if b.mac.Counters.ACKTx != 1 {
		t.Fatalf("receiver ACKTx = %d, want 1", b.mac.Counters.ACKTx)
	}
	if a.mac.Counters.RxACK != 1 {
		t.Fatalf("sender RxACK = %d, want 1", a.mac.Counters.RxACK)
	}
	if a.mac.Counters.RTSTx != 0 {
		t.Fatal("basic access must not send RTS")
	}
}

func TestRTSCTSExchange(t *testing.T) {
	tb := newTestbed(t, 1, false, defaults(phy.Rate11, true), phy.Pos(0, 0), phy.Pos(20, 0))
	a, b := tb.stations[0], tb.stations[1]

	if err := a.mac.Send(make([]byte, 512), addr(2)); err != nil {
		t.Fatal(err)
	}
	tb.sched.RunUntil(50 * time.Millisecond)

	if len(b.delivered) != 1 {
		t.Fatalf("delivered %d frames, want 1", len(b.delivered))
	}
	if a.mac.Counters.RTSTx != 1 || b.mac.Counters.CTSTx != 1 {
		t.Fatalf("RTS/CTS = %d/%d, want 1/1", a.mac.Counters.RTSTx, b.mac.Counters.CTSTx)
	}
	if a.mac.Counters.RxCTS != 1 {
		t.Fatalf("sender RxCTS = %d, want 1", a.mac.Counters.RxCTS)
	}
}

func TestBroadcastNoACK(t *testing.T) {
	tb := newTestbed(t, 1, false, defaults(phy.Rate11, true),
		phy.Pos(0, 0), phy.Pos(15, 0), phy.Pos(0, 15))
	a := tb.stations[0]

	if err := a.mac.Send([]byte("to everyone"), frame.Broadcast); err != nil {
		t.Fatal(err)
	}
	tb.sched.RunUntil(50 * time.Millisecond)

	for i, st := range tb.stations[1:] {
		if len(st.delivered) != 1 {
			t.Fatalf("station %d delivered %d, want 1", i+2, len(st.delivered))
		}
		if st.mac.Counters.ACKTx != 0 {
			t.Fatal("broadcast must not be ACKed")
		}
	}
	// Broadcast bypasses RTS even with RTSThreshold=1.
	if a.mac.Counters.RTSTx != 0 {
		t.Fatal("broadcast must not use RTS")
	}
	if a.mac.Counters.TxSuccess != 1 {
		t.Fatalf("TxSuccess = %d, want 1", a.mac.Counters.TxSuccess)
	}
}

func TestRetryLimitAndDrop(t *testing.T) {
	// Receiver at 60 m: 11 Mbit/s data is never decodable (range 30 m),
	// so every attempt times out; the MSDU is dropped after
	// ShortRetryLimit retries.
	tb := newTestbed(t, 1, false, defaults(phy.Rate11, false), phy.Pos(0, 0), phy.Pos(60, 0))
	a, b := tb.stations[0], tb.stations[1]

	if err := a.mac.Send(make([]byte, 256), addr(2)); err != nil {
		t.Fatal(err)
	}
	tb.sched.RunUntil(time.Second)

	if len(b.delivered) != 0 {
		t.Fatal("frame should not be deliverable at 60 m / 11 Mbit/s")
	}
	if a.mac.Counters.TxDrops != 1 {
		t.Fatalf("TxDrops = %d, want 1", a.mac.Counters.TxDrops)
	}
	// Initial attempt + ShortRetryLimit retries.
	if got, want := a.mac.Counters.DataTx, uint64(8); got != want {
		t.Fatalf("DataTx = %d, want %d (1 try + 7 retries)", got, want)
	}
	if got := a.mac.Counters.ACKTimeouts; got != 8 {
		t.Fatalf("ACKTimeouts = %d, want 8", got)
	}
	// The receiver heard every frame as a PHY error (locked, undecodable).
	if b.mac.Counters.PHYErrors == 0 {
		t.Fatal("receiver should have logged PHY errors")
	}
}

func TestSaturationThroughputNearAnalytic(t *testing.T) {
	// Two stations, 10 m apart, saturated queue, 512-byte MSDUs at
	// 11 Mbit/s, basic access. Expected MAC-level throughput from the
	// paper's Equation (1) with these exact parameters:
	//   T_DATA = 192 + (272+4096)/11 ≈ 589.1 µs
	//   denom = DIFS + T_DATA + SIFS + ACK@2 + E[backoff] + 2τ
	//         ≈ 50 + 589.1 + 10 + 248 + 310 + 2 ≈ 1209 µs
	//   Th ≈ 4096 bits / 1209 µs ≈ 3.39 Mbit/s.
	tb := newTestbed(t, 7, false, defaults(phy.Rate11, false), phy.Pos(0, 0), phy.Pos(10, 0))
	a, b := tb.stations[0], tb.stations[1]

	payload := make([]byte, 512)
	fill := func() {
		for a.mac.Send(payload, addr(2)) == nil {
		}
	}
	a.mac.OnQueueSpace(fill)
	fill()

	const horizon = 2 * time.Second
	tb.sched.RunUntil(horizon)

	bits := float64(len(b.delivered)) * 512 * 8
	mbps := bits / horizon.Seconds() / 1e6
	if mbps < 3.25 || mbps > 3.55 {
		t.Fatalf("saturation throughput = %.3f Mbit/s, want ≈3.39", mbps)
	}
	if a.mac.Counters.ACKTimeouts != 0 {
		t.Fatalf("clean channel should have no timeouts, got %d", a.mac.Counters.ACKTimeouts)
	}
}

func TestRTSCTSThroughputLower(t *testing.T) {
	run := func(rts bool) int {
		tb := newTestbed(t, 7, false, defaults(phy.Rate11, rts), phy.Pos(0, 0), phy.Pos(10, 0))
		a, b := tb.stations[0], tb.stations[1]
		payload := make([]byte, 512)
		fill := func() {
			for a.mac.Send(payload, addr(2)) == nil {
			}
		}
		a.mac.OnQueueSpace(fill)
		fill()
		tb.sched.RunUntil(time.Second)
		return len(b.delivered)
	}
	basic, rts := run(false), run(true)
	if rts >= basic {
		t.Fatalf("RTS/CTS delivered %d ≥ basic %d; RTS overhead must cost throughput", rts, basic)
	}
	// With long-PLCP control frames at 2 Mbit/s the exchange adds
	// RTS(272µs)+CTS(248µs)+2·SIFS ≈ 540 µs to a ≈1209 µs cycle:
	// expected ratio ≈ 1209/1749 ≈ 0.69. (The paper's Table 2 implies
	// ≈0.83; see DESIGN.md, "Table 2 against the model", for the gap.)
	ratio := float64(rts) / float64(basic)
	if ratio < 0.64 || ratio > 0.75 {
		t.Fatalf("RTS/basic ratio = %.2f, want ≈0.69", ratio)
	}
}

func TestInOrderNoDuplicates(t *testing.T) {
	// Mid-range link with fading: retries and drops happen, but the
	// receiver must see payloads in order without duplicates.
	prof := phy.DefaultProfile()
	prof.Fading.Coherence = 5 * time.Millisecond
	tb := newTestbedProfile(3, prof, defaults(phy.Rate11, false),
		phy.Pos(0, 0), phy.Pos(28, 0))
	a, b := tb.stations[0], tb.stations[1]

	// The queue-space callback fires re-entrantly from inside Send, so
	// the filler guards against nested invocations.
	var next int
	var filling bool
	var fill func()
	fill = func() {
		if filling {
			return
		}
		filling = true
		defer func() { filling = false }()
		for {
			payload := []byte(fmt.Sprintf("pkt-%06d", next))
			next++
			if a.mac.Send(payload, addr(2)) != nil {
				next--
				return
			}
		}
	}
	a.mac.OnQueueSpace(fill)
	fill()
	tb.sched.RunUntil(3 * time.Second)

	if len(b.delivered) < 100 {
		t.Fatalf("delivered only %d frames", len(b.delivered))
	}
	last := -1
	for _, p := range b.delivered {
		var n int
		if _, err := fmt.Sscanf(string(p), "pkt-%d", &n); err != nil {
			t.Fatal(err)
		}
		if n <= last {
			t.Fatalf("out-of-order or duplicate delivery: %d after %d", n, last)
		}
		last = n
	}
	if a.mac.Counters.DataRetx == 0 {
		t.Fatal("expected retries on a faded mid-range link")
	}
}

func TestNAVDefersTransmission(t *testing.T) {
	// Inject a third-party CTS with a long Duration directly into the
	// MAC: it must defer its own pending traffic until the NAV expires.
	tb := newTestbed(t, 1, false, defaults(phy.Rate11, false), phy.Pos(0, 0), phy.Pos(20, 0))
	a := tb.stations[0]

	nav := 8 * time.Millisecond
	cts := &frame.Frame{Type: frame.TypeCTS, Addr1: addr(99), Duration: nav}
	a.mac.RxEnd(cts, phy.Rate2, -50, true)
	if err := a.mac.Send(make([]byte, 100), addr(2)); err != nil {
		t.Fatal(err)
	}

	tb.sched.RunUntil(nav - time.Millisecond)
	if tb.med.Transmissions != 0 {
		t.Fatal("transmitted during NAV")
	}
	tb.sched.RunUntil(nav + 5*time.Millisecond)
	if tb.med.Transmissions == 0 {
		t.Fatal("never transmitted after NAV expiry")
	}
	if a.mac.Counters.NAVUpdates != 1 {
		t.Fatalf("NAVUpdates = %d, want 1", a.mac.Counters.NAVUpdates)
	}
}

func TestEIFSAfterPHYError(t *testing.T) {
	// A PHY error must push the next transmission out to EIFS (364 µs)
	// instead of DIFS (50 µs).
	tb := newTestbed(t, 1, false, defaults(phy.Rate11, false), phy.Pos(0, 0), phy.Pos(20, 0))
	a := tb.stations[0]

	bad := &frame.Frame{Type: frame.TypeData, Addr1: addr(99), Addr2: addr(98), Payload: make([]byte, 100)}
	a.mac.RxEnd(bad, phy.Rate11, -80, false)
	if err := a.mac.Send(make([]byte, 100), addr(2)); err != nil {
		t.Fatal(err)
	}

	// Strictly before EIFS: nothing on the air.
	tb.sched.RunUntil(phy.EIFS() - 10*time.Microsecond)
	if tb.med.Transmissions != 0 {
		t.Fatal("transmitted before EIFS elapsed")
	}
	tb.sched.RunUntil(phy.EIFS() + phy.SlotTime)
	if tb.med.Transmissions != 1 {
		t.Fatalf("transmissions = %d, want 1 right after EIFS", tb.med.Transmissions)
	}
	if a.mac.Counters.EIFSDeferrals != 1 {
		t.Fatalf("EIFSDeferrals = %d, want 1", a.mac.Counters.EIFSDeferrals)
	}
}

func TestDuplicateSuppression(t *testing.T) {
	tb := newTestbed(t, 1, false, defaults(phy.Rate11, false), phy.Pos(0, 0), phy.Pos(20, 0))
	a := tb.stations[0]

	data := &frame.Frame{
		Type: frame.TypeData, Addr1: addr(1), Addr2: addr(9),
		Seq: 42, Payload: []byte("x"),
	}
	a.mac.RxEnd(data, phy.Rate11, -50, true)
	retry := data.Clone()
	retry.Retry = true
	tb.sched.RunUntil(time.Millisecond)
	a.mac.RxEnd(retry, phy.Rate11, -50, true)
	tb.sched.RunUntil(2 * time.Millisecond)

	if len(a.delivered) != 1 {
		t.Fatalf("delivered = %d, want 1 (duplicate suppressed)", len(a.delivered))
	}
	if a.mac.Counters.RxDup != 1 {
		t.Fatalf("RxDup = %d, want 1", a.mac.Counters.RxDup)
	}
	// A new sequence from the same source is not a duplicate.
	data2 := data.Clone()
	data2.Seq = 43
	a.mac.RxEnd(data2, phy.Rate11, -50, true)
	tb.sched.RunUntil(3 * time.Millisecond)
	if len(a.delivered) != 2 {
		t.Fatalf("delivered = %d, want 2", len(a.delivered))
	}
}

func TestQueueFullBackpressure(t *testing.T) {
	tb := newTestbed(t, 1, false, defaults(phy.Rate11, false), phy.Pos(0, 0), phy.Pos(20, 0))
	a := tb.stations[0]

	cap := a.mac.QueueCap()
	for i := 0; i < cap; i++ {
		if err := a.mac.Send(make([]byte, 10), addr(2)); err != nil {
			t.Fatalf("send %d: %v", i, err)
		}
	}
	// Note: the first Send may already be in the pipeline, so one more
	// fits; fill until full.
	for a.mac.Send(make([]byte, 10), addr(2)) == nil {
	}
	if err := a.mac.Send(make([]byte, 10), addr(2)); err != ErrQueueFull {
		t.Fatalf("err = %v, want ErrQueueFull", err)
	}
	spaceCalls := 0
	a.mac.OnQueueSpace(func() { spaceCalls++ })
	tb.sched.RunUntil(100 * time.Millisecond)
	if spaceCalls == 0 {
		t.Fatal("queue space callback never invoked")
	}
}

func TestOversizeMSDURejected(t *testing.T) {
	tb := newTestbed(t, 1, false, defaults(phy.Rate11, false), phy.Pos(0, 0), phy.Pos(20, 0))
	if err := tb.stations[0].mac.Send(make([]byte, MaxMSDU+1), addr(2)); err != ErrTooLarge {
		t.Fatalf("err = %v, want ErrTooLarge", err)
	}
}

func TestHiddenTerminalRTSHelps(t *testing.T) {
	// Classic hidden pair: shrink the carrier-sense range below the
	// station spacing so A and C cannot hear each other but both reach B.
	run := func(rts bool) (delivered int, timeouts uint64) {
		prof := phy.DefaultProfile()
		prof.Fading.SigmaDB = 0
		prof.CCAThresholdDBm = prof.MeanRxPowerDBm(100) // PCS range 100 m
		thr := RTSNever
		if rts {
			thr = 1
		}
		cfg := func(int) Config { return Config{DataRate: phy.Rate2, RTSThreshold: thr} }
		tb := newTestbedProfile(5, prof, cfg,
			phy.Pos(0, 0), phy.Pos(80, 0), phy.Pos(160, 0))
		a, b, c := tb.stations[0], tb.stations[1], tb.stations[2]

		payload := make([]byte, 512)
		fillA := func() {
			for a.mac.Send(payload, addr(2)) == nil {
			}
		}
		fillC := func() {
			for c.mac.Send(payload, addr(2)) == nil {
			}
		}
		a.mac.OnQueueSpace(fillA)
		c.mac.OnQueueSpace(fillC)
		fillA()
		fillC()
		tb.sched.RunUntil(2 * time.Second)
		return len(b.delivered), a.mac.Counters.ACKTimeouts + c.mac.Counters.ACKTimeouts +
			a.mac.Counters.CTSTimeouts + c.mac.Counters.CTSTimeouts
	}

	basicDelivered, basicTimeouts := run(false)
	rtsDelivered, rtsTimeouts := run(true)
	if basicTimeouts == 0 {
		t.Fatal("hidden terminals without RTS should collide")
	}
	// RTS/CTS converts long data collisions into short RTS collisions:
	// more deliveries, and failures become cheap.
	if rtsDelivered <= basicDelivered {
		t.Fatalf("RTS (%d delivered, %d timeouts) did not beat basic (%d delivered, %d timeouts)",
			rtsDelivered, rtsTimeouts, basicDelivered, basicTimeouts)
	}
}

func TestBeaconing(t *testing.T) {
	cfg := func(int) Config {
		return Config{DataRate: phy.Rate11, BeaconInterval: 100 * time.Millisecond}
	}
	tb := newTestbed(t, 1, false, cfg, phy.Pos(0, 0), phy.Pos(50, 0))
	a, b := tb.stations[0], tb.stations[1]

	var beacons int
	b.mac.OnBeacon(func(src frame.Addr) {
		if src == addr(1) {
			beacons++
		}
	})
	tb.sched.RunUntil(time.Second)

	// ~10 beacons each way in 1 s; B must have heard most of A's
	// (beacons go at 1 Mbit/s, range 120 m ≫ 50 m).
	if beacons < 8 {
		t.Fatalf("received %d beacons from A, want ≥8", beacons)
	}
	if a.mac.Counters.BeaconTx < 8 {
		t.Fatalf("A sent %d beacons, want ≥8", a.mac.Counters.BeaconTx)
	}
}

func TestControlFramesAtBasicRate(t *testing.T) {
	// The paper's central observation: data at 11 Mbit/s, control at
	// 2 Mbit/s, so ACKs reach ~95 m while data reaches ~30 m. Place the
	// sender and receiver 20 m apart and a third station at 60 m from
	// the receiver: it decodes the receiver's ACKs (2 Mbit/s) but hears
	// the sender's 11 Mbit/s data only as PHY errors.
	tb := newTestbed(t, 1, false, defaults(phy.Rate11, false),
		phy.Pos(0, 0), phy.Pos(20, 0), phy.Pos(80, 0))
	a, c := tb.stations[0], tb.stations[2]

	for i := 0; i < 10; i++ {
		if err := a.mac.Send(make([]byte, 512), addr(2)); err != nil {
			t.Fatal(err)
		}
	}
	tb.sched.RunUntil(time.Second)

	// c is 80 m from the sender: 11 Mbit/s data locks (PLCP at 1 Mbit/s
	// reaches 120 m) but cannot decode → PHY errors.
	if c.mac.Counters.PHYErrors == 0 {
		t.Fatal("third station should hear data frames as PHY errors")
	}
	// c is 60 m from the receiver: 2 Mbit/s ACKs decode fine.
	if c.mac.Counters.RxForOthers == 0 {
		t.Fatal("third station should decode the basic-rate ACKs")
	}
}

func TestDeterministicRuns(t *testing.T) {
	run := func() (uint64, int) {
		tb := newTestbed(t, 42, true, defaults(phy.Rate11, false), phy.Pos(0, 0), phy.Pos(28, 0))
		a, b := tb.stations[0], tb.stations[1]
		payload := make([]byte, 512)
		fill := func() {
			for a.mac.Send(payload, addr(2)) == nil {
			}
		}
		a.mac.OnQueueSpace(fill)
		fill()
		tb.sched.RunUntil(time.Second)
		return a.mac.Counters.DataTx, len(b.delivered)
	}
	tx1, rx1 := run()
	tx2, rx2 := run()
	if tx1 != tx2 || rx1 != rx2 {
		t.Fatalf("runs diverged: (%d,%d) vs (%d,%d)", tx1, rx1, tx2, rx2)
	}
}

// TestBackoffKeyMatchesFormattedName pins the backoff stream key to the
// hash of its fmt-built name, so no station's backoff stream moved when
// the name stopped being formatted.
func TestBackoffKeyMatchesFormattedName(t *testing.T) {
	for _, id := range []uint32{1, 255, 256, 4095, 65535, 65536, 1<<24 - 2} {
		a := frame.AddrFromID(id)
		name := fmt.Sprintf("mac.backoff.%02x:%02x:%02x:%02x:%02x:%02x", a[0], a[1], a[2], a[3], a[4], a[5])
		if got, want := backoffKey(a), sim.KeyFor(name); got != want {
			t.Errorf("station %d: backoffKey = %#x, want KeyFor(%q) = %#x", id, got, name, want)
		}
	}
}

// TestQuietStationMarksIFS: a station with nothing to send waits out
// each DIFS as a mark, not an event. Over 100 busy/idle edges it queues
// nothing, while Fired grows by one for every wait that ran out, as the
// resume events did. A frame queued halfway through a wait still goes
// out without backoff at availSince + DIFS, through kick.
func TestQuietStationMarksIFS(t *testing.T) {
	tb := newTestbed(t, 1, false, defaults(phy.Rate11, false), phy.Pos(0, 0), phy.Pos(20, 0))
	m, s := tb.stations[0].mac, tb.sched
	before := s.Stats()
	ran := uint64(0)
	for i := range 100 {
		m.CCAChanged(true)
		m.CCAChanged(false) // idle again: a DIFS wait starts
		gap := phy.DIFS / 2
		if i%2 == 0 {
			gap = 2 * phy.DIFS
			ran++
		}
		s.RunUntil(s.Now() + gap)
	}
	after := s.Stats()
	if after.Pushes != before.Pushes || s.Len() != 0 {
		t.Fatalf("a quiet station queued %d events over 100 edges (%d pending), want none", after.Pushes-before.Pushes, s.Len())
	}
	if got := after.Fired - before.Fired; got != ran {
		t.Fatalf("Fired grew by %d, want %d: one for each wait that ran out", got, ran)
	}
	if after.Marks-before.Marks != 100 {
		t.Fatalf("%d marks for 100 idle edges", after.Marks-before.Marks)
	}

	m.CCAChanged(true)
	m.CCAChanged(false)
	since := s.Now()
	s.RunUntil(since + phy.DIFS/2)
	if err := m.Send([]byte("mid-DIFS"), addr(2)); err != nil {
		t.Fatal(err)
	}
	s.RunUntil(since + phy.DIFS - 1)
	if m.Counters.DataTx != 0 {
		t.Fatal("the frame left before the DIFS ran out")
	}
	s.RunUntil(since + phy.DIFS)
	if m.Counters.DataTx != 1 || s.Stats().CountdownSlots != 0 || m.slotEv.Pending() {
		t.Fatalf("at availSince + DIFS: %d data frames sent, backoff countdown %v; want one frame, no backoff", m.Counters.DataTx, m.slotEv.Pending())
	}
}
