package sim

import (
	"fmt"
	"math/rand"
	"testing"
	"time"
)

// The countdown oracle runs one byte-coded script twice: once on
// Countdown, once on an explicit chain of one-slot events written here
// — the reference a countdown stands for. Every event a script
// schedules runs more of the script when it fires, so the two runs
// consume the same bytes only while they fire in the same order. The
// scripts mix plain events, events exactly one slot ahead, countdowns
// started on a shared slot grid (delays are multiples of half a slot),
// freezes at boundary instants from inside and outside Step, final
// firings that schedule and start more, and Reset with countdowns
// pending. Both runs must log the same firings, the same slots left at
// every freeze and the same Fired after every top-level op.

const ocSlot = 20 * time.Nanosecond

// ocDelays are the delays a script draws from: mostly multiples of half
// a slot, so that events, countdown starts and freezes pile onto shared
// boundary instants, with the one-slot delay over-represented.
var ocDelays = []time.Duration{0, 10, 20, 20, 30, 40, 60, 20, 5, 0, 10, 20}

const ocActors = 4

// ocEntry is one line of a run's log.
type ocEntry struct {
	kind byte // 'e' event fired, 'c' countdown fired, 'f' freeze, 'F' Fired, 'R' reset
	id   int
	at   time.Duration
	val  uint64
}

// ocWorld is one run of a script.
type ocWorld struct {
	s      *Scheduler
	chain  bool // count down by an explicit chain of one-slot events
	script []byte
	pos    int
	log    []ocEntry
	actors [ocActors]ocActor
	nextID int
}

// ocActor counts down: on the scheduler's Countdown, or (chain) by
// re-arming a one-slot tick and decrementing left.
type ocActor struct {
	w    *ocWorld
	id   int
	ev   Event
	left int
}

// ocTick is the chain's one-slot event.
type ocTick ocActor

func (t *ocTick) Act() {
	a := (*ocActor)(t)
	if a.left--; a.left > 0 {
		a.ev = a.w.s.AfterAction(ocSlot, t)
		return
	}
	a.Act()
}

// Act is the countdown's final firing.
func (a *ocActor) Act() {
	a.w.log = append(a.w.log, ocEntry{kind: 'c', id: a.id, at: a.w.s.Now()})
	a.w.program()
}

func (a *ocActor) start(n int) {
	if a.ev.Pending() {
		return
	}
	if a.w.chain {
		a.left = n
		a.ev = a.w.s.AfterAction(ocSlot, (*ocTick)(a))
		return
	}
	a.ev = a.w.s.Countdown(ocSlot, n, a)
}

func (a *ocActor) freeze() {
	if !a.ev.Pending() {
		return
	}
	left := a.left
	if !a.w.chain {
		left = a.w.s.Left(a.ev)
	}
	a.w.s.Cancel(a.ev)
	a.w.log = append(a.w.log, ocEntry{kind: 'f', id: a.id, at: a.w.s.Now(), val: uint64(left)})
}

// ocEvent is a plain scripted event.
type ocEvent struct {
	w  *ocWorld
	id int
}

func (e *ocEvent) Act() {
	e.w.log = append(e.w.log, ocEntry{kind: 'e', id: e.id, at: e.w.s.Now()})
	e.w.program()
}

func (w *ocWorld) next() int {
	if w.pos >= len(w.script) {
		return 0
	}
	w.pos++
	return int(w.script[w.pos-1])
}

func (w *ocWorld) schedule(d time.Duration) {
	w.s.AfterAction(d, &ocEvent{w: w, id: w.nextID})
	w.nextID++
}

// program runs up to three ops of the script. With the script
// exhausted it runs none, so every run drains.
func (w *ocWorld) program() {
	for k := w.next() % 4; k > 0; k-- {
		switch op := w.next() % 6; op {
		case 0, 1:
			w.schedule(ocDelays[w.next()%len(ocDelays)])
		case 2:
			w.schedule(ocSlot)
		case 3:
			w.actors[w.next()%ocActors].start(1 + w.next()%8)
		case 4:
			w.actors[w.next()%ocActors].freeze()
		}
	}
}

// stepLogged steps to the next firing the log records: one Step on
// Countdown, as many as the chain's intermediate ticks take otherwise.
func (w *ocWorld) stepLogged() {
	for n := len(w.log); len(w.log) == n; {
		if !w.s.Step() {
			return
		}
	}
}

// run interprets the whole script and drains the queue.
func (w *ocWorld) run() []ocEntry {
	w.s = NewScheduler()
	for i := range w.actors {
		w.actors[i] = ocActor{w: w, id: i}
	}
	for w.pos < len(w.script) {
		switch op := w.next() % 8; op {
		case 0, 1, 2:
			w.stepLogged()
		case 3:
			w.s.RunUntil(w.s.Now() + ocDelays[w.next()%len(ocDelays)])
		case 4, 5, 6:
			w.program() // from outside Step
		case 7:
			w.log = append(w.log, ocEntry{kind: 'R', at: w.s.Now(), val: w.s.Fired()})
			w.s.Reset()
		}
		w.log = append(w.log, ocEntry{kind: 'F', at: w.s.Now(), val: w.s.Fired()})
	}
	w.s.Run()
	return append(w.log, ocEntry{kind: 'F', at: w.s.Now(), val: w.s.Fired()})
}

// checkCountdownMatchesChain runs script both ways and compares.
func checkCountdownMatchesChain(t *testing.T, script []byte) {
	t.Helper()
	got := (&ocWorld{script: script}).run()
	want := (&ocWorld{script: script, chain: true}).run()
	for i := range min(len(got), len(want)) {
		if got[i] != want[i] {
			t.Fatalf("entry %d: countdown logged %s, chain %s", i, fmtEntry(got[i]), fmtEntry(want[i]))
		}
	}
	if len(got) != len(want) {
		t.Fatalf("countdown logged %d entries, chain %d", len(got), len(want))
	}
}

func fmtEntry(e ocEntry) string {
	return fmt.Sprintf("%c id=%d at=%v val=%d", e.kind, e.id, e.at, e.val)
}

func TestCountdownMatchesChain(t *testing.T) {
	n := 2000
	if testing.Short() {
		n = 300
	}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < n; i++ {
		script := make([]byte, 50+rng.Intn(400))
		rng.Read(script)
		checkCountdownMatchesChain(t, script)
		if t.Failed() {
			t.Fatalf("script %d: %x", i, script)
		}
	}
}

func FuzzCountdownMatchesChain(f *testing.F) {
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < 16; i++ {
		script := make([]byte, 64+rng.Intn(256))
		rng.Read(script)
		f.Add(script)
	}
	f.Fuzz(checkCountdownMatchesChain)
}

// TestCountdownFiredAtHorizon checks that a countdown still running at
// the horizon has counted, in Fired and Stats, every boundary up to it.
func TestCountdownFiredAtHorizon(t *testing.T) {
	var s Scheduler
	a := &countedAction{s: &s}
	ev := s.Countdown(ocSlot, 10, a)
	s.RunUntil(3 * ocSlot)
	if got := s.Fired(); got != 3 {
		t.Fatalf("Fired() = %d at the third boundary, want 3", got)
	}
	if got := s.Left(ev); got != 7 {
		t.Fatalf("Left() = %d, want 7", got)
	}
	st := s.Stats()
	if st.Fired != 3 || st.CountdownSlots != 3 || st.Pushes != 1 {
		t.Fatalf("Stats() = %+v, want 3 fired, 3 countdown slots, 1 push", st)
	}
	s.Run()
	if a.fired != 1 || s.Fired() != 10 || s.Stats().CountdownSlots != 9 {
		t.Fatalf("after the run: %d firings, Fired() = %d, stats %+v; want 1, 10, 9 countdown slots",
			a.fired, s.Fired(), s.Stats())
	}
}

// TestCountdownRelabel drives one grid into relabelling: a long
// countdown runs while, at every boundary, a new countdown starts ahead
// of all the running ones and an event is scheduled one slot ahead.
// Each start takes a rank below the last, so the front of the rank
// space runs out thousands of times over; the firings, freezes and
// Fired must still match the chain's.
func TestCountdownRelabel(t *testing.T) {
	const boundaries = 6000
	run := func(chain bool) []ocEntry {
		w := &ocWorld{chain: chain, s: NewScheduler()}
		for i := range w.actors {
			w.actors[i] = ocActor{w: w, id: i}
		}
		w.actors[0].start(boundaries + 10)
		for k := 1; k <= boundaries; k++ {
			w.s.At(time.Duration(k)*ocSlot, func() {
				w.actors[1+k%3].start(2)
				w.schedule(ocSlot)
			})
		}
		w.s.At(boundaries*ocSlot, func() { w.actors[0].freeze() })
		w.s.Run()
		return append(w.log, ocEntry{kind: 'F', at: w.s.Now(), val: w.s.Fired()})
	}
	got, want := run(false), run(true)
	for i := range min(len(got), len(want)) {
		if got[i] != want[i] {
			t.Fatalf("entry %d: countdown logged %s, chain %s", i, fmtEntry(got[i]), fmtEntry(want[i]))
		}
	}
	if len(got) != len(want) {
		t.Fatalf("countdown logged %d entries, chain %d", len(got), len(want))
	}
}
