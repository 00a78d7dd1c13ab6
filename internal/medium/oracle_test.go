package medium

import (
	"cmp"
	"math"
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
