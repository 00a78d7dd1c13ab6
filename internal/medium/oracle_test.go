package medium

import (
	"cmp"
	"math"
	"math/rand"
	"slices"
	"testing"
	"time"

	"adhocsim/internal/phy"
	"adhocsim/internal/sim"
)

// Per-decision oracles: each fast structure in the transmit and receive
// paths is checked, decision by decision, against reference code the
// test computes from scratch — the exhaustive all-slots walk for the
// spatial index and its memos, a fresh left-to-right fold for the
// maintained energy sums.

// directPowerDBm is the link power straight from the PHY model, with
// no cache: phy.Profile.RxPowerDBm, or under a degradation timeline
// MeanRxPowerDBm(d) + (ShadowDB + offset), the association the link-gain
// cache composes.
func directPowerDBm(m *Medium, from, rx *Radio, now time.Duration) float64 {
	d := phy.Dist(from.pos, rx.pos)
	prof := from.profile
	if dg := m.deg; dg != nil {
		shadow := prof.Fading.ShadowDB(m.src, uint64(from.id), uint64(rx.id), now)
		return prof.MeanRxPowerDBm(d) + (shadow + dg.LinkOffsetDB(from.slot, rx.slot, now))
	}
	return prof.RxPowerDBm(m.src, uint64(from.id), uint64(rx.id), d, now)
}

// exhaustiveFanOut is the fan-out oracle's reference: every radio but
// the transmitter, kept when its direct link power clears the
// receiver's irrelevance cut, in ascending radio-id order.
func exhaustiveFanOut(m *Medium, from *Radio, now time.Duration) []arrivalTarget {
	var out []arrivalTarget
	for slot, rx := range m.radios {
		if rx == from {
			continue
		}
		p := directPowerDBm(m, from, rx, now)
		if p < m.soaIrrel[slot] {
			continue
		}
		out = append(out, arrivalTarget{rx: rx, reg: rx.reg, dbm: p, mw: phy.DBmToMilliwatt(p)})
	}
	slices.SortFunc(out, func(a, b arrivalTarget) int { return cmp.Compare(a.rx.id, b.rx.id) })
	return out
}

// dispatched runs r.Transmit and returns the receiver set it dispatched.
// A fresh descriptor is put on top of the medium's pool first, so the
// transmission Transmit builds is the one inspected.
func dispatched(m *Medium, r *Radio) []arrivalTarget {
	probe := new(transmission)
	m.freeTx = append(m.freeTx, probe)
	r.Transmit(dataFrame(r.id, 0, 100), phy.Rate11)
	return slices.Clone(probe.targets)
}

// TestFanOutMatchesExhaustive checks the receiver set of every
// transmission — whether replayed from the fan-out memo or rebuilt from
// the (memoized) candidate list — against the exhaustive walk, with
// exact float equality on both power forms. The schedule repeats
// transmissions inside one fade epoch (memo replays), rolls fade epochs
// over, opens and closes degradation episodes, and moves stations
// across grid cells. It runs with node-style ascending ids on a field
// the spatial index prunes and on a degenerate one (path-loss exponent
// 0) that has no index, where every radio is a candidate, and on a leg
// without the degradation timeline and with Symmetric fading. On every
// non-degenerate leg the fade cut (a link rejected from its fade's
// uniform deviates alone) must fire, and every rejection must agree
// with the exhaustive walk. Every leg must check links in both
// orientations, tx < rx and tx > rx: under Symmetric fading the first
// draws its fade from the transmitter's folded chain and the second
// from the root seed.
func TestFanOutMatchesExhaustive(t *testing.T) {
	for _, leg := range []struct {
		suffix                string
		degenerate, undegrade bool
	}{
		{"", false, false},
		{"/degenerate", true, false},
		{"/symmetric-no-timeline", false, true},
	} {
		t.Run("ascending-ids"+leg.suffix, func(t *testing.T) {
			testFanOut(t, leg.degenerate, leg.undegrade)
		})
	}
}

// testFanOut runs the fan-out oracle on one field. undegrade drops the
// degradation timeline and makes the fading Symmetric.
func testFanOut(t *testing.T, degenerate, undegrade bool) {
	const n = 18
	// A steep urban-canyon exponent keeps the relevance radius (the
	// grid's cell size) to about a hundred meters, so the index prunes;
	// static and dynamic shadowing both feed the gain cache. The
	// degenerate field keeps the same geometry with a zero exponent.
	prof := phy.DefaultProfile()
	prof.PathLoss.Exponent = 5
	prof.Fading.StaticSigmaDB = 1
	prof.Fading.SigmaDB = 1
	prof.Fading.Coherence = 10 * time.Millisecond
	prof.Fading.Symmetric = undegrade
	sched := sim.NewScheduler()
	m := New(sched, sim.NewSource(5))
	cell := prof.ReachRange(prof.NoiseFloorDBm - IrrelevantMarginDB)
	if degenerate {
		prof.PathLoss.Exponent = 0
	}

	// A 4×4 lattice straddling a cell corner, wide enough that its far
	// corners fall out of each other's earshot, and a pair three cells
	// away that no lattice query returns.
	radios := make([]*Radio, n)
	for i := range radios {
		p := phy.Pos((0.6+float64(i%4)*0.3)*cell, (0.6+float64(i/4)*0.3)*cell)
		if i >= 16 {
			p = phy.Pos((4.5+float64(i-16)*0.1)*cell, 4.5*cell)
		}
		radios[i] = m.AddRadio(uint32(i+1), p, prof, &mockHandler{})
	}

	dg := NewDegTimeline(n)
	dg.AddStationEpisode(3, 31*time.Millisecond, 57*time.Millisecond, -8)
	inside := make([]bool, n)
	for i := 0; i < 4; i++ {
		inside[i] = true
	}
	dg.AddPairRule(inside, 45*time.Millisecond, 75*time.Millisecond, -12)
	dg.Finalize()
	if !undegrade {
		m.SetDegradation(dg)
	}

	cellOf := func(p phy.Position) [2]float64 {
		return [2]float64{math.Floor(p.X / cell), math.Floor(p.Y / cell)}
	}
	crossings := 0
	move := func(r *Radio, dx, dy float64) {
		before := cellOf(r.Pos())
		r.SetPos(phy.Pos(r.Pos().X+dx, r.Pos().Y+dy))
		if cellOf(r.Pos()) != before {
			crossings++
		}
	}

	checked := 0
	var up, down int // checked receivers above and below the transmitter's id
	for step := 0; step < 60; step++ {
		now := time.Duration(step) * 2 * time.Millisecond
		sched.RunUntil(now)
		switch step {
		case 20:
			move(radios[5], 0.5*cell, 0)
		case 21:
			move(radios[10], -0.4*cell, 0.3*cell)
		case 40:
			move(radios[16], -3.45*cell, -3.45*cell) // from the far pair into the lattice
		case 50:
			move(radios[0], 2.2*cell, 2.2*cell) // out of everyone's earshot
			move(radios[15], 0.01, 0)           // inside its cell
		}
		for _, r := range radios {
			want := exhaustiveFanOut(m, r, now)
			got := dispatched(m, r)
			if len(got) != len(want) {
				t.Fatalf("t=%v tx %d: dispatched %d receivers, exhaustive walk %d",
					now, r.id, len(got), len(want))
			}
			for i := range want {
				g, w := got[i], want[i]
				if g.rx != w.rx || g.dbm != w.dbm || g.mw != w.mw {
					t.Fatalf("t=%v tx %d receiver %d: got (id %d, %v dBm, %v mW), exhaustive (id %d, %v dBm, %v mW)",
						now, r.id, i, g.rx.id, g.dbm, g.mw, w.rx.id, w.dbm, w.mw)
				}
				if w.rx.id > r.id {
					up++
				} else {
					down++
				}
			}
			checked += len(want)
		}
	}
	sched.Run()

	st := m.Stats()
	if crossings < 4 {
		t.Fatalf("only %d cell crossings: the schedule does not move stations across cells", crossings)
	}
	if st.FanReplays == 0 || st.FanBuilds == 0 || st.CandReuses == 0 || st.CandRebuilds < 4 {
		t.Fatalf("memo paths not all exercised: %+v", st)
	}
	if checked < 60*n {
		t.Fatalf("only %d receivers checked: the field is too sparse to prove anything", checked)
	}
	if up == 0 || down == 0 {
		t.Fatalf("checked %d links with tx < rx and %d with tx > rx: want both orientations", up, down)
	}
	if cuts := st.FadeCuts; degenerate == (cuts > 0) {
		t.Fatalf("fade cut fired %d times on a degenerate=%v field: want it to fire exactly when the path loss leaves links under the cut", cuts, degenerate)
	}
	if degenerate != (m.index == nil) {
		t.Fatalf("degenerate=%v but spatial index present=%v", degenerate, m.index != nil)
	}
}

// freshFolds is the incremental-sum oracle's reference: the three energy
// folds computed from scratch over the arrivals, left to right.
func freshFolds(r *Radio) (cca, floor, interf float64) {
	floor = r.lin.NoiseFloorMW
	for _, a := range r.arrivals {
		cca += a.mw
		floor += a.mw
		if a.tx != r.locked {
			interf += a.mw
		}
	}
	return cca, floor, interf
}

// TestIncrementalSumsMatchFreshFold steps a fixture one event at a time
// and, after every event, requires each radio's maintained ccaMW,
// floorMW and interfMW to equal a fresh fold over its arrivals exactly.
// The fixture overlaps arrivals at one receiver, switches its lock by
// capture, makes it transmit mid-reception (half-duplex) and powers
// another radio down mid-lock and back up.
func TestIncrementalSumsMatchFreshFold(t *testing.T) {
	env, prof := newEnv()
	sched, m := env.sched, env.m
	c := m.AddRadio(1, phy.Pos(0, 0), prof, &mockHandler{})        // the receiver under test
	far := m.AddRadio(2, phy.Pos(100, 0), prof, &mockHandler{})    // weak, locks first
	side := m.AddRadio(3, phy.Pos(0, 110), prof, &mockHandler{})   // overlapping interferer
	near := m.AddRadio(4, phy.Pos(5, 0), prof, &mockHandler{})     // captures c
	e := m.AddRadio(5, phy.Pos(95, 5), prof, &mockHandler{})       // powered down mid-lock
	late := m.AddRadio(6, phy.Pos(60, 40), prof, &mockHandler{})   // arrives during e's downtime
	other := m.AddRadio(7, phy.Pos(-40, 30), prof, &mockHandler{}) // more overlap
	radios := []*Radio{c, far, side, near, e, late, other}

	tx := func(at time.Duration, r *Radio, size int, rate phy.Rate) {
		sched.At(at, func() { r.Transmit(dataFrame(r.id, 1, size), rate) })
	}
	maxOverlap := 0
	var halfDuplex, downLocked bool
	tx(0, far, 512, phy.Rate1)
	tx(300*time.Microsecond, side, 256, phy.Rate1)
	sched.At(350*time.Microsecond, func() {
		downLocked = e.locked != nil
		e.PowerDown()
	})
	tx(600*time.Microsecond, near, 256, phy.Rate11)
	tx(650*time.Microsecond, late, 512, phy.Rate2)
	tx(700*time.Microsecond, other, 128, phy.Rate1)
	sched.At(750*time.Microsecond, func() {
		halfDuplex = c.locked != nil && len(c.arrivals) >= 2
		c.Transmit(dataFrame(1, 2, 64), phy.Rate11)
	})
	sched.At(2500*time.Microsecond, func() { e.PowerUp() })
	tx(6*time.Millisecond, side, 512, phy.Rate1)
	tx(6200*time.Microsecond, near, 512, phy.Rate1)

	events := 0
	for sched.Step() {
		events++
		for _, r := range radios {
			cca, floor, interf := freshFolds(r)
			if r.ccaMW != cca || r.floorMW != floor || r.interfMW != interf {
				t.Fatalf("event %d (t=%v) radio %d: maintained (cca %v, floor %v, interf %v), fresh fold (%v, %v, %v)",
					events, sched.Now(), r.id, r.ccaMW, r.floorMW, r.interfMW, cca, floor, interf)
			}
			maxOverlap = max(maxOverlap, len(r.arrivals))
		}
	}

	if c.CaptureSwitches == 0 {
		t.Fatal("no capture switch: the fixture does not exercise a lock re-seed")
	}
	if !halfDuplex {
		t.Fatal("c was not locked with overlapping arrivals when it transmitted")
	}
	if !downLocked {
		t.Fatal("e was not locked when powered down")
	}
	if maxOverlap < 4 {
		t.Fatalf("at most %d overlapping arrivals: the fixture is too thin", maxOverlap)
	}
	if e.FramesMissed == 0 || e.Down() {
		t.Fatalf("e missed %d frames, down=%v: the downtime is not exercised", e.FramesMissed, e.Down())
	}
}

// TestLockAndVerdictMatchUncached drives one receiver through random
// arrival sequences — leading and trailing edges in random order, with
// powers from far under the noise floor to far over it, some so weak
// that adding them leaves the floor's bits unchanged, some exactly on
// the lock threshold — and holds every preamble-lock and decode
// decision to the formula with no cached floor: the lock test against
// phy.MilliwattToDBm of the pre-arrival floor fold, the verdict against
// phy.MilliwattToDBm of the noise floor plus the worst interference.
// Every floor a decision reads must also convert to the uncached
// value's exact bits. Both the bare-floor case the cache serves and the
// interfered one must occur, with both outcomes each.
func TestLockAndVerdictMatchUncached(t *testing.T) {
	env, prof := newEnv()
	// A preamble-detect threshold under the 1 Mbit/s SINR requirement
	// over the bare floor, so a lock on a quiet channel can fail too.
	prof.SINRRequiredDB[phy.Rate1.Index()] = prof.PLCPDetectDBm - prof.NoiseFloorDBm + 3
	h := &mockHandler{}
	r := env.m.AddRadio(1, phy.Pos(0, 0), prof, h)
	rng := rand.New(rand.NewSource(5))
	rates := []phy.Rate{phy.Rate1, phy.Rate2, phy.Rate5_5, phy.Rate11}
	var inAir []*transmission
	// tally[bare][outcome] per decision kind.
	var locks, verdicts [2][2]int
	vanished := 0 // bare-floor lock decisions with arrivals in the air
	// checkFloor holds the cached conversion to the uncached one, bit
	// for bit, at every floor a decision reads.
	checkFloor := func(mw float64) {
		t.Helper()
		if got, want := r.floorDBm(mw), phy.MilliwattToDBm(mw); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("floorDBm(%v) = %v, MilliwattToDBm %v", mw, got, want)
		}
	}
	b2i := func(b bool) int {
		if b {
			return 1
		}
		return 0
	}
	for step := 0; step < 20000; step++ {
		if len(inAir) == 0 || (len(inAir) < 6 && rng.Intn(2) == 0) {
			tx := &transmission{f: dataFrame(2, 1, 100), rate: rates[rng.Intn(len(rates))]}
			preFloor := r.floorMW
			var dbm float64
			switch rng.Intn(5) {
			case 0:
				dbm = -300 + 100*rng.Float64() // mostly vanishes into the floor's rounding
			case 1:
				// Exactly on the lock threshold: a floor off by one ulp
				// flips the decision.
				dbm = phy.MilliwattToDBm(preFloor) + prof.SINRRequiredDB[phy.Rate1.Index()]
			default:
				dbm = -110 + 40*rng.Float64()
			}
			checkFloor(preFloor)
			idle := r.locked == nil && r.state == stateListen && dbm >= prof.PLCPDetectDBm
			want := dbm >= phy.MilliwattToDBm(preFloor)+prof.SINRRequiredDB[phy.Rate1.Index()]
			r.arrivalStart(tx, dbm, phy.DBmToMilliwatt(dbm))
			inAir = append(inAir, tx)
			if idle {
				if got := r.locked == tx; got != want {
					t.Fatalf("step %d: lock at %v dBm over floor %v mW: got %v, uncached formula %v", step, dbm, preFloor, got, want)
				}
				bare := preFloor == r.lin.NoiseFloorMW
				locks[b2i(bare)][b2i(want)]++
				if bare && len(r.arrivals) > 1 {
					vanished++
				}
			}
			continue
		}
		i := rng.Intn(len(inAir))
		tx := inAir[i]
		inAir = append(inAir[:i], inAir[i+1:]...)
		locked := r.locked == tx
		floor := r.lin.NoiseFloorMW + r.maxInterfMW
		checkFloor(floor)
		idx := tx.rate.Index()
		want := r.lockedPower >= prof.SensitivityDBm[idx] &&
			r.lockedPower-phy.MilliwattToDBm(floor) >= prof.SINRRequiredDB[idx]
		n := len(h.rx)
		r.arrivalEnd(tx)
		if !locked {
			continue
		}
		if len(h.rx) != n+1 {
			t.Fatalf("step %d: the locked frame ended without an RxEnd", step)
		}
		if got := h.rx[n].ok; got != want {
			t.Fatalf("step %d: verdict at %v dBm over floor %v mW: got %v, uncached formula %v", step, r.lockedPower, floor, got, want)
		}
		verdicts[b2i(floor == r.lin.NoiseFloorMW)][b2i(want)]++
	}
	for bare := range 2 {
		for outcome := range 2 {
			if locks[bare][outcome] == 0 || verdicts[bare][outcome] == 0 {
				t.Fatalf("decision mix (bare floor, outcome): locks %v, verdicts %v; want every cell exercised", locks, verdicts)
			}
		}
	}
	if vanished == 0 {
		t.Fatal("no bare-floor lock decision had arrivals in the air: the rounding case is not exercised")
	}
	t.Logf("locks %v, verdicts %v (indexed [bare floor][outcome]); %d bare-floor locks over vanished arrivals", locks, verdicts, vanished)
}
