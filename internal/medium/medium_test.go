package medium

import (
	"math"
	"slices"
	"testing"
	"time"
	"unsafe"

	"adhocsim/internal/frame"
	"adhocsim/internal/phy"
	"adhocsim/internal/sim"
)

// mockHandler records PHY indications for assertions.
type mockHandler struct {
	ccaEdges []bool
	rx       []rxRecord
	txDone   int
}

type rxRecord struct {
	f    *frame.Frame
	rate phy.Rate
	ok   bool
	at   time.Duration
}

type mockEnv struct {
	sched *sim.Scheduler
	m     *Medium
}

func (h *mockHandler) CCAChanged(busy bool) { h.ccaEdges = append(h.ccaEdges, busy) }
func (h *mockHandler) TxDone()              { h.txDone++ }
func (h *mockHandler) RxEnd(f *frame.Frame, rate phy.Rate, rssi float64, ok bool) {
	h.rx = append(h.rx, rxRecord{f: f, rate: rate, ok: ok})
}

// newEnv builds a medium with a fade-free default profile so geometry is
// deterministic.
func newEnv() (*mockEnv, *phy.Profile) {
	prof := phy.DefaultProfile()
	prof.Fading.SigmaDB = 0
	sched := sim.NewScheduler()
	return &mockEnv{sched: sched, m: New(sched, sim.NewSource(1))}, prof
}

func dataFrame(from, to uint32, size int) *frame.Frame {
	return &frame.Frame{
		Type:    frame.TypeData,
		Addr1:   frame.AddrFromID(to),
		Addr2:   frame.AddrFromID(from),
		Payload: make([]byte, size),
	}
}

func TestDeliveryInRange(t *testing.T) {
	env, prof := newEnv()
	hA, hB := &mockHandler{}, &mockHandler{}
	a := env.m.AddRadio(1, phy.Pos(0, 0), prof, hA)
	env.m.AddRadio(2, phy.Pos(20, 0), prof, hB)

	f := dataFrame(1, 2, 512)
	air := a.Transmit(f, phy.Rate11)
	env.sched.Run()

	if hA.txDone != 1 {
		t.Fatalf("sender TxDone = %d, want 1", hA.txDone)
	}
	if len(hB.rx) != 1 || !hB.rx[0].ok {
		t.Fatalf("receiver rx = %+v, want one successful frame", hB.rx)
	}
	if hB.rx[0].f != f {
		t.Fatal("delivered frame is not the transmitted frame")
	}
	wantAir := phy.DataTime(phy.Rate11, 512)
	if air != wantAir {
		t.Fatalf("airtime = %v, want %v", air, wantAir)
	}
	// Receiver saw a busy edge then an idle edge.
	if len(hB.ccaEdges) != 2 || !hB.ccaEdges[0] || hB.ccaEdges[1] {
		t.Fatalf("receiver CCA edges = %v, want [true false]", hB.ccaEdges)
	}
	// Sender's own TX shows as busy at the sender too.
	if len(hA.ccaEdges) != 2 || !hA.ccaEdges[0] || hA.ccaEdges[1] {
		t.Fatalf("sender CCA edges = %v, want [true false]", hA.ccaEdges)
	}
}

func TestRateDependentRange(t *testing.T) {
	// At 60 m: inside the 1 Mbit/s range (120 m) but outside the
	// 11 Mbit/s range (30 m). The 11 Mbit/s frame locks (PLCP is 1 Mbit/s)
	// but fails decoding — the EIFS trigger. The 1 Mbit/s frame decodes.
	env, prof := newEnv()
	hB := &mockHandler{}
	a := env.m.AddRadio(1, phy.Pos(0, 0), prof, &mockHandler{})
	env.m.AddRadio(2, phy.Pos(60, 0), prof, hB)

	a.Transmit(dataFrame(1, 2, 512), phy.Rate11)
	env.sched.Run()
	if len(hB.rx) != 1 || hB.rx[0].ok {
		t.Fatalf("11 Mbit/s at 60 m: rx = %+v, want one PHY error", hB.rx)
	}

	a.Transmit(dataFrame(1, 2, 512), phy.Rate1)
	env.sched.Run()
	if len(hB.rx) != 2 || !hB.rx[1].ok {
		t.Fatalf("1 Mbit/s at 60 m: rx = %+v, want success", hB.rx)
	}
}

func TestBeyondPLCPDetectOnlyEnergy(t *testing.T) {
	// At 150 m: below PLCP detect (~120 m median) but above the CCA
	// energy threshold (~190 m): the radio senses busy yet never locks.
	env, prof := newEnv()
	hB := &mockHandler{}
	a := env.m.AddRadio(1, phy.Pos(0, 0), prof, &mockHandler{})
	b := env.m.AddRadio(2, phy.Pos(150, 0), prof, hB)

	a.Transmit(dataFrame(1, 2, 512), phy.Rate11)
	env.sched.Run()

	if len(hB.rx) != 0 {
		t.Fatalf("rx = %+v, want none", hB.rx)
	}
	if b.FramesMissed != 1 {
		t.Fatalf("FramesMissed = %d, want 1", b.FramesMissed)
	}
	if len(hB.ccaEdges) != 2 || !hB.ccaEdges[0] {
		t.Fatalf("CCA edges = %v, want busy/idle from energy detect", hB.ccaEdges)
	}
}

func TestBeyondCarrierSenseSilent(t *testing.T) {
	env, prof := newEnv()
	hB := &mockHandler{}
	a := env.m.AddRadio(1, phy.Pos(0, 0), prof, &mockHandler{})
	env.m.AddRadio(2, phy.Pos(300, 0), prof, hB)

	a.Transmit(dataFrame(1, 2, 512), phy.Rate11)
	env.sched.Run()

	if len(hB.ccaEdges) != 0 || len(hB.rx) != 0 {
		t.Fatalf("beyond PCS range: edges=%v rx=%v, want silence", hB.ccaEdges, hB.rx)
	}
}

func TestCollisionCorruptsFrame(t *testing.T) {
	// Two transmitters equidistant from the receiver start simultaneously:
	// comparable power, SINR ~ 0 dB, the locked frame must fail.
	env, prof := newEnv()
	hC := &mockHandler{}
	a := env.m.AddRadio(1, phy.Pos(-20, 0), prof, &mockHandler{})
	b := env.m.AddRadio(2, phy.Pos(20, 0), prof, &mockHandler{})
	env.m.AddRadio(3, phy.Pos(0, 0), prof, hC)

	a.Transmit(dataFrame(1, 3, 512), phy.Rate11)
	b.Transmit(dataFrame(2, 3, 512), phy.Rate11)
	env.sched.Run()

	if len(hC.rx) != 1 {
		t.Fatalf("rx events = %d, want 1 (one lock)", len(hC.rx))
	}
	if hC.rx[0].ok {
		t.Fatal("collision decoded successfully; want corruption")
	}
}

func TestCaptureStrongerFrameWins(t *testing.T) {
	// A weak distant frame locks first; a near transmitter starts
	// mid-reception with >10 dB more power: capture switches the lock and
	// the strong frame decodes.
	env, prof := newEnv()
	sched := env.sched
	hC := &mockHandler{}
	far := env.m.AddRadio(1, phy.Pos(100, 0), prof, &mockHandler{})
	near := env.m.AddRadio(2, phy.Pos(5, 0), prof, &mockHandler{})
	c := env.m.AddRadio(3, phy.Pos(0, 0), prof, hC)

	far.Transmit(dataFrame(1, 3, 512), phy.Rate1)
	sched.At(400*time.Microsecond, func() {
		near.Transmit(dataFrame(2, 3, 256), phy.Rate11)
	})
	sched.Run()

	if c.CaptureSwitches != 1 {
		t.Fatalf("CaptureSwitches = %d, want 1", c.CaptureSwitches)
	}
	// The strong frame decodes; only it produces an RxEnd.
	if len(hC.rx) != 1 || !hC.rx[0].ok || hC.rx[0].rate != phy.Rate11 {
		t.Fatalf("rx = %+v, want the 11 Mbit/s capture to decode", hC.rx)
	}
}

func TestHalfDuplexMissesWhileTransmitting(t *testing.T) {
	env, prof := newEnv()
	hB := &mockHandler{}
	a := env.m.AddRadio(1, phy.Pos(0, 0), prof, &mockHandler{})
	b := env.m.AddRadio(2, phy.Pos(20, 0), prof, hB)

	// Both start at the same instant: each is transmitting when the
	// other's frame arrives.
	a.Transmit(dataFrame(1, 2, 512), phy.Rate11)
	b.Transmit(dataFrame(2, 1, 512), phy.Rate11)
	env.sched.Run()

	if len(hB.rx) != 0 {
		t.Fatalf("rx = %+v, want none (half duplex)", hB.rx)
	}
	if b.FramesMissed != 1 {
		t.Fatalf("FramesMissed = %d, want 1", b.FramesMissed)
	}
}

func TestTransmitWhileTransmittingPanics(t *testing.T) {
	env, prof := newEnv()
	a := env.m.AddRadio(1, phy.Pos(0, 0), prof, &mockHandler{})
	a.Transmit(dataFrame(1, 2, 100), phy.Rate11)
	defer func() {
		if recover() == nil {
			t.Fatal("double Transmit did not panic")
		}
	}()
	a.Transmit(dataFrame(1, 2, 100), phy.Rate11)
}

func TestDuplicateRadioIDPanics(t *testing.T) {
	env, prof := newEnv()
	env.m.AddRadio(1, phy.Pos(0, 0), prof, &mockHandler{})
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate radio id did not panic")
		}
	}()
	env.m.AddRadio(1, phy.Pos(10, 0), prof, &mockHandler{})
}

// TestRadioIDOutOfOrderPanics: AddRadio takes ids in ascending order
// only, so an id below the last one panics whether or not it repeats
// an earlier one.
func TestRadioIDOutOfOrderPanics(t *testing.T) {
	for _, id := range []uint32{4, 5} {
		env, prof := newEnv()
		for _, id := range []uint32{3, 5, 9} {
			env.m.AddRadio(id, phy.Pos(float64(id), 0), prof, &mockHandler{})
		}
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("radio id %d after 9 did not panic", id)
				}
			}()
			env.m.AddRadio(id, phy.Pos(10, 0), prof, &mockHandler{})
		}()
	}
}

// TestLinearizeMemoByValue checks the medium's threshold-table memo:
// radios sharing a profile get the profile's table, and a profile
// edited between two attaches gets a fresh one, as a per-radio
// Linearize would give it.
func TestLinearizeMemoByValue(t *testing.T) {
	env, prof := newEnv()
	a := env.m.AddRadio(1, phy.Pos(0, 0), prof, &mockHandler{})
	b := env.m.AddRadio(2, phy.Pos(10, 0), prof, &mockHandler{})
	prof.NoiseFloorDBm -= 3
	prof.SensitivityDBm[3] += 2
	c := env.m.AddRadio(3, phy.Pos(20, 0), prof, &mockHandler{})
	other := phy.DefaultProfile()
	d := env.m.AddRadio(4, phy.Pos(30, 0), other, &mockHandler{})
	want := phy.DefaultProfile().Linearize()
	if a.lin != want || b.lin != want || d.lin != want {
		t.Errorf("shared-profile tables %+v, %+v, %+v, want %+v", a.lin, b.lin, d.lin, want)
	}
	if got, want := c.lin, prof.Linearize(); got != want {
		t.Errorf("edited profile's table %+v, want %+v", got, want)
	}
	if len(env.m.lins) != 2 {
		t.Errorf("memo holds %d tables for two distinct threshold sets", len(env.m.lins))
	}
}

func TestMediumCounters(t *testing.T) {
	env, prof := newEnv()
	a := env.m.AddRadio(1, phy.Pos(0, 0), prof, &mockHandler{})
	env.m.AddRadio(2, phy.Pos(20, 0), prof, &mockHandler{})
	for i := 0; i < 5; i++ {
		a.Transmit(dataFrame(1, 2, 100), phy.Rate11)
		env.sched.Run()
	}
	if env.m.Transmissions != 5 || env.m.Deliveries != 5 || env.m.PHYErrors != 0 {
		t.Fatalf("counters tx=%d rx=%d err=%d, want 5/5/0",
			env.m.Transmissions, env.m.Deliveries, env.m.PHYErrors)
	}
	if a.FramesSent != 5 {
		t.Fatalf("FramesSent = %d, want 5", a.FramesSent)
	}
}

func TestMobilityAffectsDelivery(t *testing.T) {
	env, prof := newEnv()
	hB := &mockHandler{}
	a := env.m.AddRadio(1, phy.Pos(0, 0), prof, &mockHandler{})
	b := env.m.AddRadio(2, phy.Pos(20, 0), prof, hB)

	a.Transmit(dataFrame(1, 2, 100), phy.Rate11)
	env.sched.Run()
	b.SetPos(phy.Pos(300, 0))
	a.Transmit(dataFrame(1, 2, 100), phy.Rate11)
	env.sched.Run()

	if len(hB.rx) != 1 {
		t.Fatalf("rx = %d events, want exactly 1 (second out of range)", len(hB.rx))
	}
}

func TestFadedLinkLossRateMatchesAnalytic(t *testing.T) {
	// With fading enabled, the empirical delivery rate at the median
	// range should be ~50%, matching Profile.LossProbability.
	prof := phy.DefaultProfile()
	prof.Fading.Coherence = time.Millisecond // fast fading:every frame gets a new epoch
	sched := sim.NewScheduler()
	m := New(sched, sim.NewSource(42))
	hB := &mockHandler{}
	d := prof.MedianRange(phy.Rate11)
	a := m.AddRadio(1, phy.Pos(0, 0), prof, &mockHandler{})
	m.AddRadio(2, phy.Pos(d, 0), prof, hB)

	const n = 400
	for i := 0; i < n; i++ {
		sched.RunUntil(time.Duration(i) * 2 * time.Millisecond)
		a.Transmit(dataFrame(1, 2, 100), phy.Rate11)
	}
	sched.Run()

	okCount := 0
	for _, r := range hB.rx {
		if r.ok {
			okCount++
		}
	}
	got := float64(okCount) / n
	if got < 0.40 || got > 0.60 {
		t.Fatalf("delivery rate at median range = %.2f, want ~0.5", got)
	}
}

func TestDeterminismAcrossRuns(t *testing.T) {
	run := func() (uint64, uint64) {
		prof := phy.DefaultProfile()
		sched := sim.NewScheduler()
		m := New(sched, sim.NewSource(99))
		a := m.AddRadio(1, phy.Pos(0, 0), prof, &mockHandler{})
		m.AddRadio(2, phy.Pos(prof.MedianRange(phy.Rate11), 0), prof, &mockHandler{})
		for i := 0; i < 100; i++ {
			sched.RunUntil(time.Duration(i) * 300 * time.Millisecond)
			a.Transmit(dataFrame(1, 2, 100), phy.Rate11)
		}
		sched.Run()
		return m.Deliveries, m.PHYErrors
	}
	d1, e1 := run()
	d2, e2 := run()
	if d1 != d2 || e1 != e2 {
		t.Fatalf("runs diverged: (%d,%d) vs (%d,%d)", d1, e1, d2, e2)
	}
}

// gainEntry returns from's link-gain entry for the link to rx,
// refreshing from's candidate memo and gain row first, as fanOut does
// at a transmission. rx must be one of from's candidates.
func gainEntry(t *testing.T, m *Medium, from, rx *Radio) *linkGain {
	t.Helper()
	m.ensureIndex()
	if from.candEpoch != m.posEpoch {
		m.rebuildCandidates(from)
	}
	i := slices.Index(from.cand, uint32(rx.slot))
	if i < 0 {
		t.Fatalf("radio %d is not a candidate of radio %d", rx.id, from.id)
	}
	return &from.gains[i]
}

// TestLinkGainCacheMatchesDirect pits the link-gain cache against the
// direct per-call PHY computation across everything that can invalidate
// an entry — time advancing through coherence epochs, either endpoint
// moving (within its grid cell and across cells), static and dynamic
// shadowing components, degradation epochs opening and closing — and
// requires the returned power to be bit-identical on every query,
// including repeat queries served from the cache. A fourth radio
// receives a's mean power 2 dB under the irrelevance cut, so the fade
// cut rejects some lookups: each of those must have a direct power
// under the cut.
func TestLinkGainCacheMatchesDirect(t *testing.T) {
	t.Run("ascending-ids", testLinkGainCache)
}

func testLinkGainCache(t *testing.T) {
	prof := phy.TestbedProfile() // static + dynamic shadowing components
	prof.Fading.Coherence = 10 * time.Millisecond
	sched := sim.NewScheduler()
	src := sim.NewSource(99)
	m := New(sched, src)
	a := m.AddRadio(1, phy.Pos(0, 0), prof, &mockHandler{})
	b := m.AddRadio(2, phy.Pos(35, 0), prof, &mockHandler{})
	c := m.AddRadio(3, phy.Pos(10, 40), prof, &mockHandler{})
	// e sits where the mean power from a is 2 dB under the irrelevance
	// cut: a candidate of a, whose static and epoch draws decide, link by
	// link and epoch by epoch, whether the fade cut rejects it.
	irrel := prof.NoiseFloorDBm - IrrelevantMarginDB
	e := m.AddRadio(4, phy.Pos(prof.PathLoss.RangeFor(prof.TxPowerDBm-(irrel-2)), 0), prof, &mockHandler{})
	m.ensureIndex()
	cell := a.reach // the grid's cell size: every radio shares the profile

	// query holds one linkPower lookup to the direct power want: a kept
	// link must match it bit for bit, and a link the fade cut rejects
	// must really lie under the receiver's irrelevance cut.
	kept := 0
	query := func(from, rx *Radio, g *linkGain, now time.Duration, want float64, i int) (float64, bool) {
		t.Helper()
		got, ok := m.linkPower(from, rx.slot, g, now)
		if !ok {
			if irrel := m.soaIrrel[rx.slot]; !(want < irrel) {
				t.Fatalf("linkPower(%d->%d, %v) query %d cut the link, but its direct power %v clears the cut %v",
					from.ID(), rx.ID(), now, i, want, irrel)
			}
			return 0, false
		}
		kept++
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("linkPower(%d->%d, %v) query %d = %v, want direct %v",
				from.ID(), rx.ID(), now, i, got, want)
		}
		return got, true
	}
	check := func(from, rx *Radio, now time.Duration) {
		t.Helper()
		d := phy.Dist(from.Pos(), rx.Pos())
		want := from.Profile().RxPowerDBm(src, uint64(from.ID()), uint64(rx.ID()), d, now)
		for i := 0; i < 3; i++ { // repeat: later queries come from the cache
			query(from, rx, gainEntry(t, m, from, rx), now, want, i)
		}
	}

	times := []time.Duration{0, 3 * time.Millisecond, 10 * time.Millisecond,
		14 * time.Millisecond, 50 * time.Millisecond}
	pairs := [][2]*Radio{{a, b}, {b, a}, {a, c}, {c, a}, {b, c}, {c, b}, {a, e}, {e, a}}
	for _, now := range times {
		for _, p := range pairs {
			check(p[0], p[1], now)
		}
	}

	// Move one endpoint at a time: both link directions touching it must
	// pick up the new distance, and every link must still match the
	// direct power once the move has rebuilt the rows.
	cellOf := func(p phy.Position) [2]float64 {
		return [2]float64{math.Floor(p.X / cell), math.Floor(p.Y / cell)}
	}
	for _, mv := range []struct {
		r      *Radio
		to     phy.Position
		across bool // the move changes the radio's grid cell
		at     []time.Duration
	}{
		{b, phy.Pos(80, 5), false, []time.Duration{50 * time.Millisecond}},
		{a, phy.Pos(-20, -20), true, []time.Duration{50 * time.Millisecond, 61 * time.Millisecond}},
		{c, phy.Pos(10, -40), true, []time.Duration{61 * time.Millisecond}},
	} {
		if got := cellOf(mv.to) != cellOf(mv.r.Pos()); got != mv.across {
			t.Fatalf("move of %d to %v crosses cells = %v, want %v", mv.r.id, mv.to, got, mv.across)
		}
		mv.r.SetPos(mv.to)
		for _, now := range mv.at {
			for _, p := range pairs {
				check(p[0], p[1], now)
			}
		}
	}

	// A degradation timeline composes after the shadowing sum, as
	// MeanRxPowerDBm(d) + (ShadowDB + offset): a station episode on b
	// and a partition rule isolating c, each opening and closing mid-run.
	dg := NewDegTimeline(4)
	dg.AddStationEpisode(int(b.slot), 72*time.Millisecond, 95*time.Millisecond, -6)
	dg.AddPairRule([]bool{false, false, true, false}, 80*time.Millisecond, 120*time.Millisecond, -15)
	dg.Finalize()
	m.SetDegradation(dg)
	for _, now := range []time.Duration{70 * time.Millisecond, 72 * time.Millisecond,
		85 * time.Millisecond, 96 * time.Millisecond, 130 * time.Millisecond} {
		for _, p := range pairs {
			from, rx := p[0], p[1]
			d := phy.Dist(from.Pos(), rx.Pos())
			want := prof.MeanRxPowerDBm(d) + (prof.Fading.ShadowDB(src, uint64(from.ID()), uint64(rx.ID()), now) +
				dg.LinkOffsetDB(from.slot, rx.slot, now))
			for i := 0; i < 2; i++ {
				query(from, rx, gainEntry(t, m, from, rx), now, want, i)
			}
		}
	}
	if off := dg.LinkOffsetDB(a.slot, c.slot, 85*time.Millisecond); off != -15 {
		t.Fatalf("partition offset a->c at 85ms = %v, want -15: the case does not exercise degradation", off)
	}
	if cuts := m.Stats().FadeCuts; kept == 0 || cuts == 0 {
		t.Fatalf("%d lookups kept, %d cut: the case must exercise both the cache comparison and the fade cut", kept, cuts)
	}
}

// TestLinkGainSize pins the link-gain entry at 64 bytes, one cache
// line. Every candidate link of every transmitter holds one, so the
// entry size scales the gain rows — about 8 MB of the quartered city's
// 50 MB live heap (128,618 entries after a 2 s run; 11 MB at the
// former 88 bytes) — and TestCityLiveHeap's bound: a new field must
// fit the existing padding, as the fade-cut bound uMax does, or grow
// every gain row on purpose.
func TestLinkGainSize(t *testing.T) {
	if got := unsafe.Sizeof(linkGain{}); got != 64 {
		t.Fatalf("unsafe.Sizeof(linkGain{}) = %d bytes, want 64", got)
	}
}

// TestGainRowsTrackCandidates gates the link-gain cache's footprint:
// after a run, every transmitter's gain row is exactly as long as its
// candidate list — not as wide as the field — and a radio that never
// transmitted holds no row at all. One transmitter crosses the field
// mid-run, so its row is rebuilt at a new size.
func TestGainRowsTrackCandidates(t *testing.T) {
	env, prof := newEnv()
	sched, m := env.sched, env.m
	const side = 8
	var radios []*Radio
	for y := 0; y < side; y++ {
		for x := 0; x < side; x++ {
			id := uint32(len(radios) + 1)
			radios = append(radios, m.AddRadio(id, phy.Pos(float64(x)*700, float64(y)*700), prof, &mockHandler{}))
		}
	}
	movedFrom := 0
	for step := 0; step < 6; step++ {
		sched.RunUntil(time.Duration(step) * 5 * time.Millisecond)
		if step == 3 {
			movedFrom = len(radios[0].gains)
			radios[0].SetPos(phy.Pos(side*700, side*700))
		}
		for i := 0; i < len(radios); i += 3 {
			radios[i].Transmit(dataFrame(radios[i].id, 0, 100), phy.Rate11)
		}
	}
	sched.Run()

	entries, narrow := 0, 0
	for _, r := range radios {
		if r.FramesSent == 0 {
			if r.gains != nil || r.cand != nil {
				t.Fatalf("radio %d never transmitted but holds %d gain entries, %d candidates",
					r.id, len(r.gains), len(r.cand))
			}
			continue
		}
		if len(r.gains) != len(r.cand) {
			t.Fatalf("radio %d: gain row of %d entries for %d candidates", r.id, len(r.gains), len(r.cand))
		}
		if len(r.cand) < len(radios) {
			narrow++
		}
		entries += len(r.gains)
	}
	if len(radios[0].gains) == movedFrom {
		t.Fatalf("the moved transmitter's row stayed at %d entries: the move does not resize it", movedFrom)
	}
	if narrow == 0 {
		t.Fatal("every transmitter reaches the whole field: the case cannot tell candidate rows from dense ones")
	}
	if got := m.Stats().GainEntries; got != uint64(entries) {
		t.Fatalf("Stats().GainEntries = %d, want the %d entries the rows hold", got, entries)
	}
}
