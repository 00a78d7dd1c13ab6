package sim

import (
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
	"time"
)

func TestSchedulerZeroValueUsable(t *testing.T) {
	var s Scheduler
	fired := false
	s.After(time.Millisecond, func() { fired = true })
	s.Run()
	if !fired {
		t.Fatal("event did not fire")
	}
	if got, want := s.Now(), time.Millisecond; got != want {
		t.Fatalf("Now() = %v, want %v", got, want)
	}
}

func TestSchedulerOrdersByTime(t *testing.T) {
	s := NewScheduler()
	var order []int
	s.At(3*time.Millisecond, func() { order = append(order, 3) })
	s.At(1*time.Millisecond, func() { order = append(order, 1) })
	s.At(2*time.Millisecond, func() { order = append(order, 2) })
	s.Run()
	want := []int{1, 2, 3}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
}

func TestSchedulerFIFOTieBreak(t *testing.T) {
	s := NewScheduler()
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		s.At(time.Millisecond, func() { order = append(order, i) })
	}
	s.Run()
	for i := 0; i < 10; i++ {
		if order[i] != i {
			t.Fatalf("same-time events fired out of scheduling order: %v", order)
		}
	}
}

func TestSchedulerCancel(t *testing.T) {
	s := NewScheduler()
	fired := false
	e := s.After(time.Millisecond, func() { fired = true })
	if !e.Pending() {
		t.Fatal("event should be pending")
	}
	s.Cancel(e)
	if e.Pending() {
		t.Fatal("cancelled event still pending")
	}
	s.Run()
	if fired {
		t.Fatal("cancelled event fired")
	}
	s.Cancel(e)       // double cancel is a no-op
	s.Cancel(Event{}) // zero-value cancel is a no-op
}

func TestSchedulerCancelMiddleOfHeap(t *testing.T) {
	s := NewScheduler()
	var order []int
	var events []Event
	for i := 0; i < 20; i++ {
		i := i
		events = append(events, s.At(time.Duration(i)*time.Millisecond, func() { order = append(order, i) }))
	}
	// Cancel every third event.
	for i := 0; i < 20; i += 3 {
		s.Cancel(events[i])
	}
	s.Run()
	for _, v := range order {
		if v%3 == 0 {
			t.Fatalf("cancelled event %d fired", v)
		}
	}
	if len(order) != 13 {
		t.Fatalf("fired %d events, want 13", len(order))
	}
}

func TestSchedulerRunUntil(t *testing.T) {
	s := NewScheduler()
	var fired []time.Duration
	for _, d := range []time.Duration{1, 2, 3, 4, 5} {
		d := d * time.Millisecond
		s.At(d, func() { fired = append(fired, d) })
	}
	s.RunUntil(3 * time.Millisecond)
	if len(fired) != 3 {
		t.Fatalf("fired %d events, want 3 (events at exactly the horizon must fire)", len(fired))
	}
	if s.Now() != 3*time.Millisecond {
		t.Fatalf("Now() = %v, want 3ms", s.Now())
	}
	s.RunUntil(10 * time.Millisecond)
	if len(fired) != 5 {
		t.Fatalf("fired %d events, want 5", len(fired))
	}
	if s.Now() != 10*time.Millisecond {
		t.Fatalf("Now() = %v, want 10ms (clock advances to horizon)", s.Now())
	}
}

func TestSchedulerPastPanics(t *testing.T) {
	s := NewScheduler()
	s.At(time.Millisecond, func() {})
	s.Run()
	defer func() {
		if recover() == nil {
			t.Fatal("scheduling in the past did not panic")
		}
	}()
	s.At(0, func() {})
}

func TestSchedulerNestedScheduling(t *testing.T) {
	s := NewScheduler()
	depth := 0
	var rec func()
	rec = func() {
		depth++
		if depth < 100 {
			s.After(time.Microsecond, rec)
		}
	}
	s.After(0, rec)
	s.Run()
	if depth != 100 {
		t.Fatalf("depth = %d, want 100", depth)
	}
	// First call fires at t=0, the 100th at t=99µs.
	if got, want := s.Now(), 99*time.Microsecond; got != want {
		t.Fatalf("Now() = %v, want %v", got, want)
	}
}

func TestSchedulerReschedule(t *testing.T) {
	s := NewScheduler()
	count := 0
	e := s.At(time.Millisecond, func() { count++ })
	e = s.Reschedule(e, 2*time.Millisecond, actionFunc(func() { count += 10 }))
	s.Run()
	if count != 10 {
		t.Fatalf("count = %d, want 10 (original must not fire)", count)
	}
	if e.Pending() {
		t.Fatal("event still pending after firing")
	}
}

// Property: for any random set of insertions and cancellations, the
// surviving events fire exactly once, in nondecreasing time order, with
// FIFO order within equal timestamps.
func TestSchedulerOrderingProperty(t *testing.T) {
	f := func(seed int64, n uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		s := NewScheduler()
		type rec struct {
			at  time.Duration
			seq int
		}
		var fired []rec
		var events []Event
		var expect []rec
		count := int(n%64) + 1
		for i := 0; i < count; i++ {
			at := time.Duration(rng.Intn(50)) * time.Millisecond
			i := i
			events = append(events, s.At(at, func() { fired = append(fired, rec{at, i}) }))
			expect = append(expect, rec{at, i})
		}
		cancelled := map[int]bool{}
		for i := 0; i < count/3; i++ {
			k := rng.Intn(count)
			s.Cancel(events[k])
			cancelled[k] = true
		}
		s.Run()
		var want []rec
		for _, r := range expect {
			if !cancelled[r.seq] {
				want = append(want, r)
			}
		}
		sort.SliceStable(want, func(i, j int) bool { return want[i].at < want[j].at })
		if len(fired) != len(want) {
			return false
		}
		for i := range want {
			if fired[i] != want[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestEventHandleSafeAcrossSlotReuse pins the generation-counter
// contract of the pooled arena: a handle to a fired event stays inert —
// not pending, cancel a no-op — even after its slot has been recycled
// for a newer event.
func TestEventHandleSafeAcrossSlotReuse(t *testing.T) {
	s := NewScheduler()
	stale := s.After(time.Millisecond, func() {})
	s.Run()
	if stale.Pending() {
		t.Fatal("fired event still pending")
	}
	// The next event must reuse the freed slot (single-slot arena).
	fresh := s.After(time.Millisecond, func() {})
	if !fresh.Pending() {
		t.Fatal("fresh event not pending")
	}
	if stale.Pending() {
		t.Fatal("stale handle reports the recycled slot's new event as its own")
	}
	s.Cancel(stale) // must not cancel fresh
	if !fresh.Pending() {
		t.Fatal("cancelling a stale handle killed the slot's new event")
	}
	fired := 0
	s.Reschedule(stale, s.Now()+time.Millisecond, actionFunc(func() { fired++ }))
	s.Run()
	if fired != 1 {
		t.Fatalf("fired = %d, want 1", fired)
	}
	if got, want := fresh.At(), 2*time.Millisecond; got != want {
		t.Fatalf("fresh.At() = %v, want %v (handle keeps its own timestamp)", got, want)
	}
}

// countedAction is a pooled Action payload for the alloc-free tests.
type countedAction struct {
	s     *Scheduler
	left  int
	fired int
}

func (a *countedAction) Act() {
	a.fired++
	if a.left--; a.left > 0 {
		a.s.AfterAction(time.Microsecond, a)
	}
}

func TestSchedulerActions(t *testing.T) {
	s := NewScheduler()
	a := &countedAction{s: s, left: 50}
	e := s.AfterAction(time.Microsecond, a)
	if !e.Pending() {
		t.Fatal("action event not pending")
	}
	s.Run()
	if a.fired != 50 {
		t.Fatalf("action fired %d times, want 50", a.fired)
	}
	if got, want := s.Now(), 50*time.Microsecond; got != want {
		t.Fatalf("Now() = %v, want %v", got, want)
	}
}

// TestSchedulerSteadyStateAllocFree pins the kernel's zero-alloc
// contract: once the arena and heap have warmed up, a
// schedule-action/fire cycle performs no heap allocation.
func TestSchedulerSteadyStateAllocFree(t *testing.T) {
	s := NewScheduler()
	a := &countedAction{s: s, left: 1 << 30}
	s.AfterAction(time.Microsecond, a)
	s.Step() // warm up: arena slot allocated, heap backing array grown
	allocs := testing.AllocsPerRun(1000, func() {
		s.Step()
	})
	if allocs != 0 {
		t.Fatalf("steady-state Step allocated %.1f times per event, want 0", allocs)
	}
}

func TestSchedulerFiredCounter(t *testing.T) {
	s := NewScheduler()
	for i := 0; i < 5; i++ {
		s.At(time.Duration(i)*time.Millisecond, func() {})
	}
	s.Run()
	if s.Fired() != 5 {
		t.Fatalf("Fired() = %d, want 5", s.Fired())
	}
	if s.Len() != 0 {
		t.Fatalf("Len() = %d, want 0", s.Len())
	}
}

// TestSchedulerReset pins the arena-reuse contract: after Reset the
// scheduler behaves exactly like a fresh one (same firing order for the
// same schedule), pending events are gone, their handles are inert, and
// the counters restart from zero.
func TestSchedulerReset(t *testing.T) {
	run := func(s *Scheduler) []int {
		var order []int
		s.After(30*time.Millisecond, func() { order = append(order, 3) })
		s.After(10*time.Millisecond, func() { order = append(order, 1) })
		s.After(10*time.Millisecond, func() { order = append(order, 2) }) // FIFO tie
		s.RunUntil(time.Second)
		return order
	}

	s := NewScheduler()
	// Grow the arena with some churn, leave events pending, then reset.
	for i := 0; i < 100; i++ {
		s.After(time.Duration(i)*time.Millisecond, func() {})
	}
	s.RunUntil(50 * time.Millisecond)
	stale := s.After(time.Hour, func() { t.Fatal("stale event fired after Reset") })
	s.Reset()

	if s.Now() != 0 || s.Len() != 0 || s.Fired() != 0 {
		t.Fatalf("after Reset: now=%v len=%d fired=%d, want all zero", s.Now(), s.Len(), s.Fired())
	}
	if stale.Pending() {
		t.Fatal("pre-Reset handle still pending")
	}
	s.Cancel(stale) // must be a harmless no-op

	got := run(s)
	want := run(NewScheduler())
	if len(got) != len(want) {
		t.Fatalf("reset scheduler fired %d events, fresh fired %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("firing order diverged at %d: reset=%v fresh=%v", i, got, want)
		}
	}
	if s.Fired() != uint64(len(want)) {
		t.Fatalf("Fired() = %d after reset run, want %d", s.Fired(), len(want))
	}
}

// The ordering tests below check the heap against a naive reference
// queue: a slice of (at, sub, seq) keys kept sorted by insertion under
// its own lexicographic comparison (refLess, independent of the
// scheduler's less). A byte-coded op interpreter, shared by a seeded
// property test and a fuzz target, turns any byte stream into a program
// of At/After/AtAction/AfterAction/Cancel/Reschedule/InjectAt/Step/
// RunUntil/Reset operations, including callbacks that schedule
// follow-ups from inside Step and cancels and reschedules of stale
// handles, closure and action alike. Every fired event must be the
// reference's head, and Len, PeekAt and Pending must agree with it
// after every op.

// refEntry is one pending event of the reference queue: its ordering
// key (idx unused) and the id the script minted for it.
type refEntry struct {
	key heapEntry
	id  int
}

// liveEvent is a handle the script may cancel or reschedule, with the
// reference entry it was filed as.
type liveEvent struct {
	ev Event
	refEntry
}

// orderEnv drives one interpreted script against a scheduler and its
// reference queue in lockstep.
type orderEnv struct {
	t       *testing.T
	s       *Scheduler
	pending []refEntry // the reference queue, sorted by key
	seq     uint64     // the reference's own sequence counter
	fired   uint64
	live    []liveEvent // the most recent handles, fired or not
	nextID  int

	// Countdowns, which the reference counts down as explicit chains of
	// one-slot ticks (see refCountdown).
	slot  time.Duration
	ticks map[int]*refCountdown // pending tick id → its countdown
	cds   []*refCountdown       // the most recent countdowns, ended or not

	// Marks, which the reference files as events that do nothing (see
	// refMark).
	marks  map[int]bool // pending mark ids
	mks    []*refMark   // the most recent marks, withdrawn or not
	marked uint64       // marks set since the last Reset

	// markRun is nil unless the script runs mark ops. Then Fired is
	// checked inside every event, not only between ops, and every
	// countdown's final firing marks a slot ahead.
	markRun *markRun
}

// maxLive bounds the handles a script can cancel or reschedule, which
// keeps the per-op Pending cross-check cheap on long scripts.
const maxLive = 256

// refLess is the reference order: lexicographic on (at, sub, seq).
func refLess(a, b heapEntry) bool {
	return a.at < b.at ||
		a.at == b.at && (a.sub < b.sub || a.sub == b.sub && a.seq < b.seq)
}

// search returns the position of key in the reference queue, or where
// it would be inserted.
func (env *orderEnv) search(key heapEntry) int {
	return sort.Search(len(env.pending), func(i int) bool { return !refLess(env.pending[i].key, key) })
}

// holds reports whether the reference queue holds e. Keys are unique
// among pending entries, but a handle from before a Reset may share its
// key with a newer event, so the id decides.
func (env *orderEnv) holds(e refEntry) (int, bool) {
	i := env.search(e.key)
	return i, i < len(env.pending) && env.pending[i] == e
}

// file inserts a newly scheduled event into the reference queue under
// the next sequence number and returns its entry.
func (env *orderEnv) file(at time.Duration, sub uint64) refEntry {
	e := refEntry{heapEntry{at: at, sub: sub, seq: env.seq}, env.nextID}
	env.seq++
	env.nextID++
	i := env.search(e.key)
	env.pending = append(env.pending, refEntry{})
	copy(env.pending[i+1:], env.pending[i:])
	env.pending[i] = e
	return e
}

// keep records a handle the script may later cancel or reschedule.
func (env *orderEnv) keep(ev Event, e refEntry) {
	if len(env.live) < maxLive {
		env.live = append(env.live, liveEvent{ev, e})
	} else {
		env.live[e.id%maxLive] = liveEvent{ev, e}
	}
}

// drop removes e from the reference queue if it is still pending.
func (env *orderEnv) drop(e refEntry) {
	if i, ok := env.holds(e); ok {
		env.pending = append(env.pending[:i], env.pending[i+1:]...)
	}
}

// fire is every event's callback: the scheduler must be firing exactly
// the reference's head, at its timestamp, once the reference has passed
// the countdown ticks that sort before it.
func (env *orderEnv) fire(id int) {
	env.passTicks(math.MaxInt64)
	if len(env.pending) == 0 {
		env.t.Fatalf("event %d fired with the reference queue empty", id)
	}
	if head := env.pending[0]; head.id != id || head.key.at != env.s.Now() {
		env.t.Fatalf("fired event %d at %v, reference head is %d at %v", id, env.s.Now(), head.id, head.key.at)
	}
	env.pending = append(env.pending[:0], env.pending[1:]...)
	env.fired++
	if f := env.s.Fired(); f != env.fired {
		env.t.Fatalf("event %d: Fired() = %d inside it, reference fired %d", id, f, env.fired)
	}
}

// at schedules a checked closure at absolute time t.
func (env *orderEnv) at(t time.Duration) {
	id := env.nextID
	ev := env.s.At(t, func() { env.fire(id) })
	env.keep(ev, env.file(t, uint64(env.s.Now())<<1))
}

// check compares the scheduler's observable queue state with the
// reference's.
func (env *orderEnv) check() {
	env.t.Helper()
	if want := len(env.pending) - len(env.marks); env.s.Len() != want {
		env.t.Fatalf("Len() = %d, reference holds %d events", env.s.Len(), want)
	}
	if env.s.Fired() != env.fired {
		env.t.Fatalf("Fired() = %d, reference fired %d", env.s.Fired(), env.fired)
	}
	if m := env.s.Stats().Marks; m != env.marked {
		env.t.Fatalf("Stats().Marks = %d, reference set %d", m, env.marked)
	}
	// A countdown's one entry is due at its last tick, not its next;
	// marks are never due.
	var first time.Duration = math.MaxInt64
	for _, e := range env.pending {
		if env.marks[e.id] {
			continue
		}
		at := e.key.at
		if c := env.ticks[e.id]; c != nil {
			at += time.Duration(c.left-1) * env.slot
		}
		first = min(first, at)
	}
	at, ok := env.s.PeekAt()
	if ok != (first != math.MaxInt64) || ok && at != first {
		env.t.Fatalf("PeekAt() = %v, %v disagrees with the reference", at, ok)
	}
	for _, l := range env.live {
		if _, pending := env.holds(l.refEntry); l.ev.Pending() != pending {
			env.t.Fatalf("event %d: Pending() = %v, reference says %v", l.id, l.ev.Pending(), pending)
		}
	}
	for _, c := range env.cds {
		if c.ev.Pending() != (c.left > 0) || env.s.Left(c.ev) != c.left {
			env.t.Fatalf("countdown: Pending() = %v, Left() = %d; reference has %d ticks left",
				c.ev.Pending(), env.s.Left(c.ev), c.left)
		}
	}
}

// chainAction is a pooled self-rescheduling action: each firing checks
// itself against the reference and re-arms gap later, hops times. It
// exercises AtAction and scheduling from inside Step, same-instant
// follow-ups included (gap may be zero).
type chainAction struct {
	env  *orderEnv
	id   int
	hops int
	gap  time.Duration
}

func (a *chainAction) Act() {
	a.env.fire(a.id)
	if a.hops > 0 {
		a.hops--
		a.env.arm(a, a.gap)
	}
}

// arm schedules a after d under a fresh id.
func (env *orderEnv) arm(a *chainAction, d time.Duration) {
	a.id = env.nextID
	ev := env.s.AfterAction(d, a)
	env.keep(ev, env.file(env.s.Now()+d, uint64(env.s.Now())<<1))
}

// interpretOps runs one byte-coded script against a fresh scheduler,
// checking it against the reference queue after every op, then drains
// both.
func interpretOps(t *testing.T, data []byte) {
	env := &orderEnv{t: t, s: NewScheduler()}
	s := env.s
	pos := 0
	next := func() byte {
		if pos >= len(data) {
			return 0
		}
		b := data[pos]
		pos++
		return b
	}
	u16 := func() time.Duration {
		return time.Duration(uint64(next()) | uint64(next())<<8)
	}
	// small draws land events on eight instants, so same-instant ties
	// between local events and injected messages are common
	small := func() time.Duration { return time.Duration(next()%8) * time.Microsecond }
	pick := func() int { return int(u16()) % len(env.live) }
	for pos < len(data) {
		op := next()
		// The op is op%12; the otherwise unused op/12 picks the payload
		// of ops 4 and 7 (closure or pooled action) without changing
		// which bytes any script consumes or the events it files.
		pooled := op/12%2 == 1
		switch op % 12 {
		case 0, 1, 2: // near future
			env.at(s.Now() + small())
		case 3: // far future
			env.at(s.Now() + u16()*10*time.Millisecond)
		case 4: // same-instant tie: FIFO order must hold
			if pooled {
				a := &chainAction{env: env, id: env.nextID}
				ev := s.AtAction(s.Now(), a)
				env.keep(ev, env.file(s.Now(), uint64(s.Now())<<1))
			} else {
				env.at(s.Now())
			}
		case 5: // pooled self-rescheduling chain
			a := &chainAction{env: env, hops: int(next() % 5), gap: small()}
			env.arm(a, u16()*time.Microsecond)
		case 6: // cancel an outstanding handle, possibly stale
			if len(env.live) > 0 {
				l := env.live[pick()]
				s.Cancel(l.ev)
				env.drop(l.refEntry)
			}
		case 7: // reschedule an outstanding handle, possibly stale
			if len(env.live) > 0 {
				old := env.live[pick()]
				at := s.Now() + u16()*time.Microsecond
				id := env.nextID
				var a Action = actionFunc(func() { env.fire(id) })
				if pooled {
					a = &chainAction{env: env, id: id}
				}
				env.drop(old.refEntry)
				ev := s.Reschedule(old.ev, at, a)
				env.keep(ev, env.file(at, uint64(s.Now())<<1))
			}
		case 8: // inter-region message: sub carries sentAt and the message bit
			at := s.Now() + small()
			sentAt := max(s.Now()-small(), 0)
			a := &chainAction{env: env, id: env.nextID}
			s.InjectAt(at, sentAt, a)
			env.file(at, uint64(sentAt)<<1|1)
		case 9: // step a few events
			for i := byte(0); i < next()%8; i++ {
				s.Step()
			}
		case 10: // run a bounded horizon
			until := s.Now() + u16()*time.Microsecond
			s.RunUntil(until)
			if s.Now() != until {
				t.Fatalf("RunUntil(%v) left the clock at %v", until, s.Now())
			}
		case 11: // occasional full reset; old handles stay live, now stale
			if next()%4 == 0 {
				s.Reset()
				env.pending, env.seq, env.fired = env.pending[:0], 0, 0
			}
		}
		env.check()
	}
	for s.Step() {
	}
	env.check()
	if len(env.pending) != 0 {
		t.Fatalf("scheduler drained with %d reference events pending", len(env.pending))
	}
}

// TestSchedulerMatchesReference runs seeded random op scripts through
// the interpreter.
func TestSchedulerMatchesReference(t *testing.T) {
	for seed := int64(0); seed < 100; seed++ {
		rng := rand.New(rand.NewSource(seed))
		data := make([]byte, 200+rng.Intn(2000))
		rng.Read(data)
		interpretOps(t, data)
		if t.Failed() {
			t.Fatalf("seed %d diverged", seed)
		}
	}
}

// FuzzSchedulerOrder lets the fuzzer search for an op script on which
// the heap and the reference queue disagree:
//
//	go test -fuzz=FuzzSchedulerOrder -fuzztime=20s ./internal/sim
func FuzzSchedulerOrder(f *testing.F) {
	f.Add([]byte{0, 1, 2, 0xff, 9, 3, 3, 0xa0, 0x0f, 10, 0xff, 0xff})
	f.Add([]byte{3, 0xff, 0xff, 3, 0x10, 0x00, 11, 0, 0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10})
	rng := rand.New(rand.NewSource(7))
	seedScript := make([]byte, 512)
	rng.Read(seedScript)
	f.Add(seedScript)
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 1<<14 {
			t.Skip("script too long")
		}
		interpretOps(t, data)
	})
}

// benchmarkSchedulerHold measures the steady-state pop/push cycle a
// simulation spends its life in: n pending timers, each firing and
// re-arming a pseudo-random small delay ahead.
func benchmarkSchedulerHold(b *testing.B, n int) {
	s := NewScheduler()
	rng := rand.New(rand.NewSource(1))
	var arm func()
	arm = func() {
		s.After(time.Duration(1+rng.Intn(2000))*time.Microsecond, arm)
	}
	for i := 0; i < n; i++ {
		arm()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Step()
	}
}

func BenchmarkSchedulerHold4k(b *testing.B)  { benchmarkSchedulerHold(b, 4096) }
func BenchmarkSchedulerHold64k(b *testing.B) { benchmarkSchedulerHold(b, 65536) }

// idleStation is one station's deferral timer: each firing re-arms it
// at the next of its delays and re-arms another station's timer,
// cancelling that one's pending event, so half of all insertions are
// cancelled before they fire.
type idleStation struct {
	s      *Scheduler
	ev     Event
	peers  []idleStation
	delays []time.Duration
	k      int
	rng    *uint64
}

// next returns the delay the station's timer is re-armed at next.
func (st *idleStation) next() time.Duration {
	st.k++
	return st.delays[st.k%len(st.delays)]
}

func (st *idleStation) Act() {
	st.ev = st.s.AfterAction(st.next(), st)
	*st.rng ^= *st.rng << 13
	*st.rng ^= *st.rng >> 7
	*st.rng ^= *st.rng << 17
	p := &st.peers[*st.rng%uint64(len(st.peers))]
	p.ev = st.s.Reschedule(p.ev, st.s.Now()+p.next(), p)
}

// stations arms n idle stations cycling through delays.
func stations(s *Scheduler, n int, delays []time.Duration) {
	rng := uint64(1)
	peers := make([]idleStation, n)
	for i := range peers {
		peers[i] = idleStation{s: s, peers: peers, delays: delays, k: i, rng: &rng}
		peers[i].ev = s.AtAction(time.Duration(i)*delays[0]/time.Duration(n), &peers[i])
	}
}

// BenchmarkSchedulerIdleTimers models a city's idle stations: 1024
// pending timers re-armed +50 µs ahead, half of them cancelled before
// they fire, beside 64 traffic timers at pseudo-random delays.
func BenchmarkSchedulerIdleTimers(b *testing.B) {
	s := NewScheduler()
	stations(s, 1024, []time.Duration{50 * time.Microsecond})
	traffic := rand.New(rand.NewSource(1))
	var arm func()
	arm = func() {
		s.After(time.Duration(1+traffic.Intn(2000))*time.Microsecond, arm)
	}
	for i := 0; i < 64; i++ {
		arm()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Step()
	}
}

// BenchmarkSchedulerFourStations is the paper-scale counterpart: four
// stations cycling through the four-node runs' delays (DIFS, EIFS, the
// 1 µs propagation edge, a 1500-byte frame at 11 Mbit/s, SIFS), so the
// queue stays shorter than fifoMinLen.
func BenchmarkSchedulerFourStations(b *testing.B) {
	s := NewScheduler()
	us := time.Microsecond
	stations(s, 4, []time.Duration{50 * us, 364 * us, us, 50 * us, 610455 * time.Nanosecond, us, 50 * us, 10 * us})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Step()
	}
}
