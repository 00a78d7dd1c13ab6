package sim

import (
	"math"
	"math/rand"
	"testing"
	"time"
)

// The FIFO tests drive the constant-delay FIFOs beside the heap. The
// op interpreter below extends the reference-queue check of
// interpretOps: its scripts draw every delay from a set of two to five
// values, one of them the countdown slot, so that delays repeat and
// bind FIFOs; they cancel and reschedule FIFO heads as well as arbitrary
// handles, inject messages, start and freeze countdowns, force relabel
// with long runs of countdown starts, and Reset with everything
// pending. The reference counts each countdown down as the chain of
// one-slot ticks it stands for, so fire order, Fired, Len, PeekAt,
// Pending and Left are all checked after every op.

// refCountdown is a countdown in the reference: its pending tick, and
// the ticks left to count, the pending one included (0 once it fired or
// was cancelled).
type refCountdown struct {
	ev   Event
	tick refEntry
	left int
}

// passTicks passes the countdown ticks and marks at the head of the
// reference queue, up to and including instant limit, as the chain
// would fire them: each tick files the next tick a slot later under a
// fresh sequence number, and a mark fires doing nothing. A countdown's
// last tick is a real event, and stops the walk.
func (env *orderEnv) passTicks(limit time.Duration) {
	for len(env.pending) > 0 {
		head := env.pending[0]
		if env.marks[head.id] {
			if head.key.at > limit {
				return
			}
			env.pending = append(env.pending[:0], env.pending[1:]...)
			delete(env.marks, head.id)
			env.fired++
			continue
		}
		c := env.ticks[head.id]
		if c == nil || c.left == 1 || head.key.at > limit {
			return
		}
		env.pending = append(env.pending[:0], env.pending[1:]...)
		delete(env.ticks, head.id)
		env.fired++
		c.left--
		c.tick = env.file(head.key.at+env.slot, uint64(head.key.at)<<1)
		env.ticks[c.tick.id] = c
	}
}

// cdAction is a countdown's final firing.
type cdAction struct {
	env *orderEnv
	c   *refCountdown
}

func (a *cdAction) Act() {
	a.env.passTicks(math.MaxInt64)
	id := a.c.tick.id
	a.env.fire(id)
	delete(a.env.ticks, id)
	a.c.left = 0
	if a.env.markRun != nil {
		// A mark one slot ahead set here takes the countdown's rank as
		// its band.
		a.env.mark(a.env.slot)
	}
}

// countdown starts a countdown of n slots on the scheduler and its
// chain in the reference.
func (env *orderEnv) countdown(n int) *refCountdown {
	c := &refCountdown{left: n}
	c.ev = env.s.Countdown(env.slot, n, &cdAction{env, c})
	c.tick = env.file(env.s.Now()+env.slot, uint64(env.s.Now())<<1)
	env.ticks[c.tick.id] = c
	if len(env.cds) < maxLive {
		env.cds = append(env.cds, c)
	} else {
		env.cds[c.tick.id%maxLive] = c
	}
	return c
}

// freeze cancels a running countdown on both sides.
func (env *orderEnv) freeze(c *refCountdown) {
	env.s.Cancel(c.ev)
	if c.left > 0 {
		env.drop(c.tick)
		delete(env.ticks, c.tick.id)
		c.left = 0
	}
}

// starter starts a three-slot countdown every two slots, hops times.
// Each start sorts before the running countdowns' ticks at its instant,
// so it takes a rank below all of theirs on the one grid they share,
// until the rank space runs out and the grid is relabelled; a rank
// above the previous start's shows that happened.
type starter struct {
	env      *orderEnv
	id       int
	hops     int
	prevRank uint64
	relabels int
}

// starterHops is enough starts to exhaust a grid's rank space from its
// midpoint: bandMid/bandStep steps of bandStep, then halvings.
const starterHops = int(bandMid/bandStep) + 64

func (a *starter) Act() {
	env := a.env
	env.fire(a.id)
	c := env.countdown(3)
	rank := env.s.cds[env.s.slots[c.ev.idx].lane-1].rank
	if a.prevRank != 0 && rank > a.prevRank {
		a.relabels++
	}
	a.prevRank = rank
	if a.hops > 0 {
		a.hops--
		a.arm()
	}
}

// arm schedules the next start two slots ahead.
func (a *starter) arm() {
	env := a.env
	a.id = env.nextID
	d := 2 * env.slot
	ev := env.s.AfterAction(d, a)
	env.keep(ev, env.file(env.s.Now()+d, uint64(env.s.Now())<<1))
}

// ballastEvent keeps an interpreted script's queue long enough for
// FIFOs to take events: it re-arms itself ballastAt ahead every time it
// fires, out of the script's reach, until the final drain.
type ballastEvent struct {
	env  *orderEnv
	id   int
	stop *bool
}

func (b *ballastEvent) Act() {
	b.env.fire(b.id)
	if !*b.stop {
		b.arm()
	}
}

func (b *ballastEvent) arm() {
	env := b.env
	b.id = env.nextID
	at := env.s.Now() + ballastAt
	env.s.AtAction(at, b)
	env.file(at, uint64(env.s.Now())<<1)
}

// fifoHead returns a live handle for the head of a non-empty FIFO
// chosen by b, if the script still holds one.
func (env *orderEnv) fifoHead(b byte) (liveEvent, bool) {
	for k := range nFIFOs {
		q := &env.s.fifos[(int(b)+k)%nFIFOs]
		if q.empty() {
			continue
		}
		idx := q.hd.idx
		for _, l := range env.live {
			if l.ev.idx == idx && l.ev.Pending() {
				return l, true
			}
		}
		return liveEvent{}, false
	}
	return liveEvent{}, false
}

// fifoRun is what one interpreted script did beyond what it checked.
type fifoRun struct {
	relabels        int    // relabels the starters observed
	appends, pushes uint64 // FIFO appends and all insertions, over every Reset
	marks           markRun
}

// interpretFIFOOps runs one byte-coded script against a fresh
// scheduler, checking it against the reference after every op, then
// drains both. Every run starts, and restarts after each Reset, with
// fifoMinLen ballast events. With marks set, three more ops set and
// withdraw marks (markOp); without, every script means what it always
// did.
func interpretFIFOOps(t *testing.T, data []byte, marks bool) (run fifoRun) {
	env := &orderEnv{t: t, s: NewScheduler(), ticks: make(map[int]*refCountdown), marks: make(map[int]bool)}
	if marks {
		env.markRun = &run.marks
	}
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
	// The delay set: the countdown slot first, then one to four more,
	// multiples of 5 µs from 0 to 35 µs, so that delays repeat, FIFOs
	// bind, and events pile onto the slot grid's instants.
	env.slot = time.Duration(1+next()%4) * 10 * time.Microsecond
	delays := []time.Duration{env.slot}
	for k := 1 + next()%4; k > 0; k-- {
		delays = append(delays, time.Duration(next()%8)*5*time.Microsecond)
	}
	delay := func() time.Duration { return delays[int(next())%len(delays)] }
	pick := func() int { return (int(next()) | int(next())<<8) % len(env.live) }
	draining := false
	ballast := func() {
		for range fifoMinLen {
			(&ballastEvent{env: env, stop: &draining}).arm()
		}
	}
	tally := func() {
		st := s.Stats()
		run.appends += st.FIFOAppends
		run.pushes += st.Pushes
	}
	ballast()
	var starters []*starter
	nOps := byte(10)
	if marks {
		nOps = 13
	}
	for pos < len(data) {
		switch op := next(); op % nOps {
		case 0, 1, 2: // a closure one of the delays ahead
			env.at(s.Now() + delay())
		case 3: // a pooled timer re-arming itself one of the delays ahead
			a := &chainAction{env: env, hops: int(next() % 8), gap: delay()}
			env.arm(a, delay())
		case 4: // start a countdown
			env.countdown(1 + int(next()%8))
		case 5: // cancel a FIFO head, any handle, or a countdown
			switch next() % 3 {
			case 0:
				if l, ok := env.fifoHead(next()); ok {
					s.Cancel(l.ev)
					env.drop(l.refEntry)
				}
			case 1:
				if len(env.live) > 0 {
					l := env.live[pick()]
					s.Cancel(l.ev)
					env.drop(l.refEntry)
				}
			case 2:
				if len(env.cds) > 0 {
					env.freeze(env.cds[int(next())%len(env.cds)])
				}
			}
		case 6: // reschedule a FIFO head or any handle, possibly stale
			var l liveEvent
			ok := false
			if next()%2 == 0 {
				l, ok = env.fifoHead(next())
			} else if len(env.live) > 0 {
				l, ok = env.live[pick()], true
			}
			if ok {
				at := s.Now() + delay()
				id := env.nextID
				env.drop(l.refEntry)
				ev := s.Reschedule(l.ev, at, actionFunc(func() { env.fire(id) }))
				env.keep(ev, env.file(at, uint64(s.Now())<<1))
			}
		case 7: // inter-region message
			at := s.Now() + delay()
			sentAt := max(s.Now()-delay(), 0)
			a := &chainAction{env: env, id: env.nextID}
			s.InjectAt(at, sentAt, a)
			env.file(at, uint64(sentAt)<<1|1)
		case 8: // step a few events, or run a horizon
			if b := next(); b%2 == 0 {
				for i := byte(0); i < b%16; i++ {
					s.Step()
				}
			} else {
				until := s.Now() + time.Duration(b%8)*delay()
				s.RunUntil(until)
				env.passTicks(until)
			}
		case 9:
			switch next() % 8 {
			case 0, 1: // reset; old handles stay live, now stale
				tally()
				s.Reset()
				env.pending, env.seq, env.fired = env.pending[:0], 0, 0
				clear(env.ticks)
				for _, c := range env.cds {
					c.left = 0
				}
				env.resetMarks()
				ballast()
			case 2: // a run of countdown starts long enough to relabel
				a := &starter{env: env, hops: starterHops}
				starters = append(starters, a)
				a.arm()
			}
		default:
			env.markOp(op%nOps, next, delay)
		}
		env.check()
	}
	draining = true
	for s.Step() {
	}
	env.check()
	if n := len(env.pending); n > 0 {
		// Step never passes a mark; run to the last one.
		last := env.pending[n-1].key.at
		s.RunUntil(last)
		env.passTicks(last)
		env.check()
	}
	if len(env.pending) != 0 {
		t.Fatalf("scheduler drained with %d reference events pending", len(env.pending))
	}
	tally()
	for _, a := range starters {
		run.relabels += a.relabels
	}
	return run
}

// TestSchedulerFIFOMatchesReference runs seeded scripts through the
// FIFO interpreter. It requires that they relabelled at least once, and
// that FIFOs took a quarter of all insertions. Countdowns, events one
// slot ahead and messages never join a FIFO, and each delay's first
// bindMisses-1 events after a Reset go to the heap too.
func TestSchedulerFIFOMatchesReference(t *testing.T) {
	var total fifoRun
	for seed := int64(0); seed < 60; seed++ {
		rng := rand.New(rand.NewSource(seed))
		data := make([]byte, 200+rng.Intn(1500))
		rng.Read(data)
		run := interpretFIFOOps(t, data, false)
		if t.Failed() {
			t.Fatalf("seed %d diverged", seed)
		}
		total.relabels += run.relabels
		total.appends += run.appends
		total.pushes += run.pushes
	}
	if total.relabels == 0 {
		t.Fatal("no script relabelled a grid")
	}
	if 4*total.appends < total.pushes {
		t.Fatalf("FIFOs took %d of %d insertions, want a quarter", total.appends, total.pushes)
	}
}

// FuzzSchedulerFIFOOrder lets the fuzzer search for a script on which
// the heap with its FIFOs and the reference queue disagree:
//
//	go test -fuzz=FuzzSchedulerFIFOOrder -fuzztime=20s ./internal/sim
func FuzzSchedulerFIFOOrder(f *testing.F) {
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 8; i++ {
		script := make([]byte, 64+rng.Intn(512))
		rng.Read(script)
		f.Add(script)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 1<<13 {
			t.Skip("script too long")
		}
		interpretFIFOOps(t, data, false)
	})
}

// fifoAt returns the FIFO bound to delay d, or nil.
func fifoAt(s *Scheduler, d time.Duration) *fifo {
	for i := range s.fifos {
		if s.delays[i] == d && !s.fifos[i].empty() {
			return &s.fifos[i]
		}
	}
	return nil
}

// ballastAt is where ballast events wait: after everything else a unit
// test schedules.
const ballastAt = time.Hour

// ballast fills the heap with fifoMinLen events that fire last and do
// nothing, so that the events a test schedules next may join FIFOs.
func ballast(s *Scheduler) {
	for i := range fifoMinLen {
		s.At(ballastAt+time.Duration(i), func() {})
	}
}

// prime schedules bindMisses-1 events d ahead that do nothing. They go
// to the heap, and the next event scheduled d ahead binds a FIFO.
func prime(s *Scheduler, d time.Duration) {
	for range bindMisses - 1 {
		s.After(d, func() {})
	}
}

// record schedules an event d ahead that appends its name to log.
func record(s *Scheduler, log *[]string, name string, d time.Duration) Event {
	return s.After(d, func() { *log = append(*log, name) })
}

func equalLog(t *testing.T, got []string, want ...string) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("fired %v, want %v", got, want)
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("fired %v, want %v", got, want)
		}
	}
}

// TestFIFOShortQueueUsesHeap: while fewer than fifoMinLen events are
// pending every event goes to the heap, however often its delay
// repeats; once the queue is that long, a repeated delay binds a FIFO.
func TestFIFOShortQueueUsesHeap(t *testing.T) {
	s := NewScheduler()
	var log []string
	for range fifoMinLen {
		record(s, &log, "x", 50)
	}
	if s.queued != 0 || s.missed != [nMissed]miss{} {
		t.Fatalf("a queue shorter than %d used the FIFOs or counted misses", fifoMinLen)
	}
	prime(s, 50)
	if s.queued != 0 {
		t.Fatalf("a delay bound a FIFO after %d misses, want %d", bindMisses-1, bindMisses)
	}
	record(s, &log, "y", 50)
	if q := fifoAt(s, 50); q == nil || q.tail-q.head != 1 {
		t.Fatal("a repeated delay should bind a FIFO once the queue is long")
	}
	s.Run()
	if len(log) != fifoMinLen+1 || log[fifoMinLen] != "y" {
		t.Fatalf("fired %v", log)
	}
}

// TestFIFOBindsRepeatedDelay: a delay's first bindMisses-1 events go to
// the heap, and the next binds a FIFO and joins it, as do the rest.
func TestFIFOBindsRepeatedDelay(t *testing.T) {
	s := NewScheduler()
	ballast(s)
	var log []string
	for i := range bindMisses + 1 {
		record(s, &log, string(rune('a'+i)), 50)
	}
	if len(s.heap) != fifoMinLen+bindMisses-1 || s.queued != 2 || fifoAt(s, 50) == nil {
		t.Fatalf("heap %d, FIFOs %d; want the first %d events in the heap and two in a FIFO", len(s.heap), s.queued, bindMisses-1)
	}
	if st := s.Stats(); st.Pushes != fifoMinLen+bindMisses+1 || st.FIFOAppends != 2 {
		t.Fatalf("Stats() = %+v, want %d pushes, 2 FIFO appends", st, fifoMinLen+bindMisses+1)
	}
	s.Run()
	for i, name := range log {
		if name != string(rune('a'+i)) {
			t.Fatalf("fired %v out of order", log)
		}
	}
}

// TestFIFORebindsAfterDrain: with every FIFO bound, a new delay takes
// over a drained FIFO only once it has missed more often than that FIFO
// was used, never a FIFO that holds events, and the order stays exact.
func TestFIFORebindsAfterDrain(t *testing.T) {
	s := NewScheduler()
	ballast(s)
	var log []string
	for _, d := range []time.Duration{10, 40, 30, 20} {
		prime(s, d)
		for range 3 {
			record(s, &log, "x", d)
		}
	}
	for _, d := range []time.Duration{10, 20, 30, 40} {
		if fifoAt(s, d) == nil {
			t.Fatalf("no FIFO bound to %v", d)
		}
	}
	// Each FIFO counts the misses that bound it and two appends.
	uses := s.fifos[0].n
	if uses != bindMisses+3 {
		t.Fatalf("the 10 ns FIFO counts %d uses, want %d", uses, bindMisses+3)
	}
	s.RunUntil(15) // drains the 10 ns FIFO only
	log = log[:0]
	var want []string
	for i := range int(uses) + 2 {
		name := string(rune('A' + i))
		want = append(want, name)
		record(s, &log, name, 60)
		if bound := fifoAt(s, 60) != nil; bound != (i >= int(uses)) {
			t.Fatalf("after %d misses of 60 ns: bound %v, want %v", i+1, bound, !bound)
		}
	}
	if q := fifoAt(s, 60); q != &s.fifos[0] {
		t.Fatalf("delay 60 bound to %p, want the drained FIFO %p", q, &s.fifos[0])
	}
	for _, d := range []time.Duration{20, 30, 40} {
		if fifoAt(s, d) == nil {
			t.Fatalf("FIFO bound to %v was rebound while it held events", d)
		}
	}
	s.Run()
	var sixty []string
	for _, name := range log {
		if name != "x" {
			sixty = append(sixty, name)
		}
	}
	equalLog(t, sixty, want...)
	if len(log) != len(want)+9 {
		t.Fatalf("fired %d events, want %d", len(log), len(want)+9)
	}
}

// TestFIFOCancelHead: cancelling a FIFO's head moves the head to the
// next live entry at once, and frees the cancelled slot.
func TestFIFOCancelHead(t *testing.T) {
	s := NewScheduler()
	ballast(s)
	prime(s, 50)
	var log []string
	a := record(s, &log, "a", 50)
	record(s, &log, "b", 50)
	free := len(s.free)
	s.Cancel(a)
	q := fifoAt(s, 50)
	if q == nil || q.tail-q.head != 1 || q.hd.at != 50 || len(s.free) != free+1 {
		t.Fatalf("after cancelling the head: FIFO %+v, free slots %d → %d", q, free, len(s.free))
	}
	if want := fifoMinLen + bindMisses; a.Pending() || s.Len() != want {
		t.Fatalf("Pending() = %v, Len() = %d; want false, %d", a.Pending(), s.Len(), want)
	}
	s.Run()
	equalLog(t, log, "b")
}

// TestFIFOTombstonesOnly: cancelling entries behind the head leaves
// tombstones; cancelling the head then sweeps them all, so a FIFO never
// holds only tombstones, and Len and PeekAt stay exact throughout.
func TestFIFOTombstonesOnly(t *testing.T) {
	s := NewScheduler()
	ballast(s)
	prime(s, 30)
	var log []string
	evs := []Event{record(s, &log, "a", 30), record(s, &log, "b", 30), record(s, &log, "c", 30)}
	far := record(s, &log, "far", 90)
	s.Cancel(evs[1])
	s.Cancel(evs[2])
	if q := fifoAt(s, 30); q == nil || q.tail-q.head != 3 {
		t.Fatal("tombstones behind a live head should stay queued")
	}
	if want := fifoMinLen + bindMisses - 1 + 2; s.Len() != want {
		t.Fatalf("Len() = %d with two tombstones queued, want %d", s.Len(), want)
	}
	s.Cancel(evs[0])
	if fifoAt(s, 30) != nil || s.queued != 0 {
		t.Fatal("cancelling the live head should sweep the tombstones behind it")
	}
	s.RunUntil(30)
	if at, ok := s.PeekAt(); !ok || at != 90 || s.Len() != fifoMinLen+1 {
		t.Fatalf("PeekAt() = %v, %v, Len() = %d; want 90, true, %d", at, ok, s.Len(), fifoMinLen+1)
	}
	s.Cancel(far)
	if at, _ := s.PeekAt(); at != ballastAt || s.Len() != fifoMinLen {
		t.Fatalf("PeekAt() = %v, Len() = %d; want the ballast only", at, s.Len())
	}
	if len(log) != 0 {
		t.Fatalf("cancelled events fired: %v", log)
	}
}

// TestFIFOReset: Reset with FIFOs holding live entries and tombstones
// empties and unbinds them, keeps their rings, invalidates every
// handle, and leaves a scheduler that runs like a fresh one.
func TestFIFOReset(t *testing.T) {
	s := NewScheduler()
	var log []string
	var evs []Event
	for i := range 100 {
		evs = append(evs, record(s, &log, "x", time.Duration(10+10*(i%3))))
	}
	s.Cancel(evs[90])
	s.Cancel(evs[40])
	s.Step()
	if s.queued == 0 {
		t.Fatal("the script should have filled FIFOs")
	}
	var rings [nFIFOs]int
	for i := range s.fifos {
		rings[i] = len(s.fifos[i].buf)
	}
	s.Reset()
	if s.Len() != 0 || s.queued != 0 {
		t.Fatalf("Len() = %d after Reset", s.Len())
	}
	if _, ok := s.PeekAt(); ok {
		t.Fatal("PeekAt() reports an event after Reset")
	}
	for i := range s.fifos {
		if q := &s.fifos[i]; !q.empty() || s.delays[i] != 0 || q.n != 0 || len(q.buf) != rings[i] {
			t.Fatalf("FIFO %d after Reset: bound to %v, %d queued, ring %d (was %d)", i, s.delays[i], q.tail-q.head, len(q.buf), rings[i])
		}
	}
	if s.missed != [nMissed]miss{} {
		t.Fatal("Reset kept the table of misses")
	}
	for _, e := range evs {
		if e.Pending() {
			t.Fatal("a handle from before Reset is still pending")
		}
	}
	run := func(s *Scheduler) ([]string, Stats) {
		var log []string
		for i := range 150 {
			record(s, &log, string(rune('a'+i%26)), time.Duration(10*(i%4)))
		}
		s.Run()
		return log, s.Stats()
	}
	got, gotStats := run(s)
	want, wantStats := run(NewScheduler())
	equalLog(t, got, want...)
	if gotStats != wantStats || gotStats.FIFOAppends == 0 {
		t.Fatalf("Stats() after Reset = %+v, fresh scheduler %+v; want equal, with FIFO appends", gotStats, wantStats)
	}
}

// TestFIFOAppendGuard drives the append guard white-box: an entry
// that would sort before a FIFO's tail — here one keyed like a message
// sent in the past, which schedule never mints — is refused, and the
// heap then orders it correctly.
func TestFIFOAppendGuard(t *testing.T) {
	s := NewScheduler()
	ballast(s)
	var log []string
	s.RunUntil(100)
	prime(s, 50)
	record(s, &log, "a", 50)
	record(s, &log, "b", 50)
	q := fifoAt(s, 50)
	if q == nil || q.tail-q.head != 2 {
		t.Fatal("two events should be queued in the FIFO")
	}
	idx := s.alloc()
	s.slots[idx].act = actionFunc(func() { log = append(log, "early") })
	early := heapEntry{at: 150, sub: 0, seq: s.seq, idx: idx}
	s.seq++
	if !less(early, q.back()) {
		t.Fatal("the crafted entry should sort before the tail")
	}
	if s.enqueue(50, early) {
		t.Fatal("enqueue accepted an entry that sorts before the FIFO's tail")
	}
	if q.tail-q.head != 2 {
		t.Fatal("a refused entry changed the FIFO")
	}
	s.push(early)
	s.Run()
	equalLog(t, log, "early", "a", "b")
}
