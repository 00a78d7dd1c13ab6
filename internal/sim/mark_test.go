package sim

import (
	"math/rand"
	"testing"
	"time"
)

// The mark tests file each mark in the reference queue as an event that
// does nothing, and check the scheduler against it with the FIFO
// interpreter (interpretFIFOOps with marks on): the reference passes a
// mark, counting it in Fired, exactly where it would have fired that
// event, and Len and PeekAt never see it. Every Unmark must report
// passed exactly when the reference no longer holds the mark.

// refMark is a mark in the reference.
type refMark struct {
	m     Mark
	e     refEntry
	done  bool // withdrawn
	stale bool // set before the last Reset
}

// markRun counts what one script's mark ops did.
type markRun struct {
	set, banded               int // marks set; set one slot ahead while countdowns run
	withdrawn, withdrawnAfter int // Unmarks before and after the loop passed the mark
}

func (r *markRun) add(o markRun) {
	r.set += o.set
	r.banded += o.banded
	r.withdrawn += o.withdrawn
	r.withdrawnAfter += o.withdrawnAfter
}

// mark sets a mark d ahead on both sides.
func (env *orderEnv) mark(d time.Duration) *refMark {
	now := env.s.Now()
	run := env.markRun
	if env.s.slot != 0 && d == env.s.slot {
		run.banded++
	}
	m := &refMark{m: env.s.Mark(now + d)}
	m.e = env.file(now+d, uint64(now)<<1)
	env.marks[m.e.id] = true
	env.marked++
	run.set++
	if len(env.mks) < maxLive {
		env.mks = append(env.mks, m)
	} else {
		env.mks[m.e.id%maxLive] = m
	}
	return m
}

// unmark withdraws m on both sides, once, and checks what Unmark
// reports: passed exactly when the reference has passed it.
func (env *orderEnv) unmark(m *refMark) {
	if m.done {
		return
	}
	m.done = true
	_, pending := env.holds(m.e)
	want := !pending && !m.stale
	if got := env.s.Unmark(m.m); got != want {
		env.t.Fatalf("Unmark of mark %d at %v = %v, want %v", m.e.id, m.e.key.at, got, want)
	}
	switch {
	case pending:
		env.drop(m.e)
		delete(env.marks, m.e.id)
		env.markRun.withdrawn++
	case !m.stale:
		env.markRun.withdrawnAfter++
	}
}

// resetMarks mirrors Reset: every mark is gone, every handle stale.
func (env *orderEnv) resetMarks() {
	for _, m := range env.mks {
		m.stale = true
	}
	clear(env.marks)
	env.marked = 0
}

// markerAction re-marks from inside the loop, as a station's idle edge
// re-arms its deferral: each firing withdraws its previous mark, marks
// gap ahead, and re-arms itself gap later, hops times.
type markerAction struct {
	env  *orderEnv
	id   int
	hops int
	gap  time.Duration
	last *refMark
}

func (a *markerAction) Act() {
	env := a.env
	env.fire(a.id)
	if a.last != nil {
		env.unmark(a.last)
	}
	a.last = env.mark(a.gap)
	if a.hops > 0 {
		a.hops--
		a.arm(a.gap)
	}
}

func (a *markerAction) arm(d time.Duration) {
	env := a.env
	a.id = env.nextID
	ev := env.s.AfterAction(d, a)
	env.keep(ev, env.file(env.s.Now()+d, uint64(env.s.Now())<<1))
}

// markOp runs one of the interpreter's mark ops, 10 to 12. A mark lies
// after now, so a zero delay marks a slot ahead instead.
func (env *orderEnv) markOp(op byte, next func() byte, delay func() time.Duration) {
	delay = func(d func() time.Duration) func() time.Duration {
		return func() time.Duration {
			if v := d(); v > 0 {
				return v
			}
			return env.slot
		}
	}(delay)
	switch op {
	case 10: // a mark one of the delays ahead
		env.mark(delay())
	case 11: // withdraw a mark; then re-mark it, or schedule its event
		if len(env.mks) == 0 {
			return
		}
		m := env.mks[int(next())%len(env.mks)]
		env.unmark(m)
		switch next() % 3 {
		case 1:
			env.mark(delay())
		case 2:
			at := m.e.key.at
			if at < env.s.Now() {
				at = env.s.Now() + delay()
			}
			env.at(at)
		}
	case 12: // an event that re-marks each time it fires
		a := &markerAction{env: env, hops: int(next() % 8), gap: delay()}
		a.arm(delay())
	}
}

// TestSchedulerMarksMatchReference runs seeded scripts through the
// FIFO interpreter with marks on. It requires that they set marks one
// slot ahead while countdowns ran (banded, which relabel rewrites), and
// withdrew marks both before and after the loop passed them.
func TestSchedulerMarksMatchReference(t *testing.T) {
	var total markRun
	relabels := 0
	for seed := int64(0); seed < 60; seed++ {
		rng := rand.New(rand.NewSource(seed))
		data := make([]byte, 200+rng.Intn(1500))
		rng.Read(data)
		run := interpretFIFOOps(t, data, true)
		if t.Failed() {
			t.Fatalf("seed %d diverged", seed)
		}
		total.add(run.marks)
		relabels += run.relabels
	}
	if total.banded == 0 || total.withdrawn == 0 || total.withdrawnAfter == 0 || relabels == 0 {
		t.Fatalf("scripts did not cover marks: %+v, %d relabels", total, relabels)
	}
}

// FuzzSchedulerMarks lets the fuzzer search for a script on which the
// scheduler's marks and the reference's no-op events disagree:
//
//	go test -fuzz=FuzzSchedulerMarks -fuzztime=20s ./internal/sim
func FuzzSchedulerMarks(f *testing.F) {
	rng := rand.New(rand.NewSource(4))
	for i := 0; i < 8; i++ {
		script := make([]byte, 64+rng.Intn(512))
		rng.Read(script)
		f.Add(script)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 1<<13 {
			t.Skip("script too long")
		}
		interpretFIFOOps(t, data, true)
	})
}

// TestMarkCounts walks one mark through its life: Len, PeekAt and
// Step never see it; Fired counts it once the loop passes its key,
// whether an event after it fires or RunUntil runs to its instant; a
// mark withdrawn before that never counts; and Reset drops every mark.
func TestMarkCounts(t *testing.T) {
	s := NewScheduler()
	var log []string
	m := s.Mark(10)
	w := s.Mark(10)
	record(s, &log, "a", 10) // same instant, later key: passes both marks
	if s.Len() != 1 {
		t.Fatalf("Len() = %d with one event and two marks, want 1", s.Len())
	}
	if s.Unmark(w) {
		t.Fatal("a mark withdrawn before its instant reports passed")
	}
	s.Step()
	if s.Fired() != 2 || s.Stats().Marks != 2 {
		t.Fatalf("Fired() = %d, Marks = %d after the event; want 2 (one event, one mark), 2", s.Fired(), s.Stats().Marks)
	}
	if !s.Unmark(m) {
		t.Fatal("a passed mark reports not passed")
	}
	if s.Fired() != 2 {
		t.Fatalf("withdrawing a passed mark changed Fired() to %d", s.Fired())
	}
	late := s.Mark(30)
	if s.Step() {
		t.Fatal("Step fired a mark")
	}
	if _, ok := s.PeekAt(); ok {
		t.Fatal("PeekAt reports a mark")
	}
	s.RunUntil(29)
	if s.Fired() != 2 {
		t.Fatalf("Fired() = %d before the horizon reached the mark, want 2", s.Fired())
	}
	s.RunUntil(30)
	if s.Fired() != 3 {
		t.Fatalf("Fired() = %d once the horizon reached the mark, want 3", s.Fired())
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("a mark at the current instant did not panic")
			}
		}()
		s.Mark(30)
	}()
	pending := s.Mark(40)
	s.Reset()
	if s.Unmark(late) || s.Unmark(pending) || s.Fired() != 0 || s.Stats().Marks != 0 {
		t.Fatal("a mark survived Reset")
	}
	equalLog(t, log, "a")
}

// TestMarkStaysPassed: a message injected for the current instant, sent
// earlier, sorts before the event that just fired, and firing it must
// not make a mark the loop has passed read as pending again.
func TestMarkStaysPassed(t *testing.T) {
	s := NewScheduler()
	var log []string
	s.RunUntil(5)
	s.Mark(10)
	record(s, &log, "a", 5) // same instant, later key than the mark
	s.Step()
	if s.Fired() != 2 {
		t.Fatalf("Fired() = %d after passing the mark, want 2", s.Fired())
	}
	s.InjectAt(10, 0, actionFunc(func() { log = append(log, "late") }))
	s.Step()
	if s.Fired() != 3 {
		t.Fatalf("Fired() = %d after a message sorting before the mark, want 3", s.Fired())
	}
	equalLog(t, log, "a", "late")
}
