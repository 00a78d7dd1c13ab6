// Package sim provides the discrete-event simulation kernel used by every
// other subsystem: a virtual clock, an event queue with deterministic
// ordering, cancellable timers, and seeded random-number streams.
//
// The kernel is single-goroutine by design. Determinism is a hard
// requirement for reproducing the paper's experiments: two runs with the
// same seed produce bit-identical results, which lets tests assert tight
// numeric bands instead of loose statistical ones.
//
// The queue is a hand-rolled 4-ary heap over a pooled slot arena rather
// than container/heap: pushing an event neither boxes it into an
// interface nor allocates a node, so the steady-state hot path of a
// saturated simulation (schedule arrival → fire → schedule next) runs
// without touching the garbage collector. Freed slots are recycled
// through a free list; a per-slot generation counter keeps stale Event
// handles (held by MAC timers, TCP retransmit state, ...) safely inert
// after their slot has been reused.
//
// Per-event paths schedule Actions, not closures. A capturing closure
// passed to At or After is allocated on every call, and so is a method
// value such as m.resume; on a path that fires once per frame or per
// backoff countdown that allocation is most of what the event costs. Hot
// callers implement Action on a type they already own — a pooled record
// (the medium's transmissions), an embedded field, or a pointer
// conversion such as `type slotTick MAC` whose Act calls back into the
// MAC — and schedule it with AtAction, AfterAction or Reschedule.
// Closures are for cold paths: set-up, fault schedules, tests.
//
// Beside the heap sit a few FIFOs, each bound to one delay. Many of a
// large run's insertions are MAC timers scheduled a fixed delay ahead:
// NAV expiries, and the DIFS and EIFS waits of stations with a frame
// to send. Once the queue holds fifoMinLen events, an event scheduled
// exactly d ahead joins the FIFO bound to d and never enters the heap.
// The clock never runs backwards and sequence numbers only grow, so
// such a stream arrives already sorted by (at, sub, seq): appending,
// popping and cancelling cost O(1), and Step, taking the least of the
// heap top and the FIFO heads by the same less, fires events in exactly
// the order the heap alone would. Events one slot ahead while
// countdowns run, countdowns and injected messages always go to the
// heap. The FIFOs are not a second backend: there is no switch, and
// every event leaves through the one pop path. A calendar queue once
// ran beside the heap and was deleted; DESIGN.md ("Why one heap",
// "Constant-delay FIFOs beside the heap") keeps the numbers for both.
//
// A chain of one-slot events — the DCF backoff, which used to be most of
// every contended run's events — is one heap entry (Countdown): the
// slot boundaries before its last are never pushed or popped. They still
// count in Fired, one per boundary crossed, and the entry and any event
// scheduled exactly one slot ahead carry ordering bands in seq that
// reproduce the chain's (at, sub, seq) order exactly, so a countdown
// fires and freezes (Left) where the chain would have. countdown.go has
// the argument; DESIGN.md ("Backoff without slot events") the numbers.
//
// An event that would do nothing when it fired — the DCF wait of a
// station with nothing to send, once most of a large run's insertions —
// is not queued at all: Mark reserves its key and Fired counts it where
// it would have fired (mark.go; DESIGN.md, "Quiet stations arm no
// timer").
package sim

import (
	"fmt"
	"time"
)

// Action is an alloc-free event payload: scheduling a pooled object that
// implements Action costs no per-event allocation, unlike a closure,
// which captures its variables on the heap. Hot paths (the medium's
// arrival records, the MAC's DCF timers) schedule Actions; cold paths
// keep the convenience of closures via At/After.
type Action interface {
	// Act runs the event. It is invoked exactly once, from the event
	// loop, at the scheduled instant.
	Act()
}

// Event is a handle to a scheduled callback. It is a small value, not a
// pointer: the event's state lives in the scheduler's slot arena, and
// the handle carries the slot's generation so that a handle kept after
// its event fired (or was cancelled) stays a harmless no-op even once
// the slot has been recycled for a new event. The zero Event is valid
// and never pending.
type Event struct {
	s   *Scheduler
	idx int32
	gen uint64
	at  time.Duration
}

// At reports the simulated time the event was scheduled to fire at.
func (e Event) At() time.Duration { return e.at }

// Pending reports whether the event is still in the queue (neither fired
// nor cancelled).
func (e Event) Pending() bool {
	return e.s != nil && e.s.slots[e.idx].gen == e.gen
}

// slot is one arena entry. A slot is queued exactly while its
// generation matches the handles minted for it; firing or cancelling
// bumps gen, releases the callback reference, and returns the slot to
// the free list.
type slot struct {
	gen  uint64
	pos  int32 // heap position, fifoPos, or released
	lane int32 // 1 + the countdown's index, 0 for a plain event
	fn   func()
	act  Action
}

// released is slot.pos of a slot on the free list.
const released = -1

// fifoPos is slot.pos for a slot queued at ring index i of FIFO f;
// atFIFO inverts it.
func fifoPos(f int, i uint32) int32 { return -2 - int32(i)*nFIFOs - int32(f) }
func atFIFO(pos int32) (f int, i uint32) {
	v := -2 - pos
	return int(v % nFIFOs), uint32(v / nFIFOs)
}

// nFIFOs is the number of constant-delay FIFOs. Four cover DIFS, EIFS,
// the NAV (SIFS + ACK) and the 1 µs propagation edge; in the city and
// mesh presets the top two delays carry 61–76% of all insertions
// (DESIGN.md, "Constant-delay FIFOs beside the heap").
const nFIFOs = 4

// fifo is a ring of heap entries all scheduled the same delay ahead —
// the delay it is bound to, Scheduler.delays — which therefore sit in
// (at, sub, seq) order. head and tail count
// entries ever popped and pushed; the ring's length is a power of two,
// mask one less. A cancelled entry stays in the ring as a tombstone,
// its idx set to dead, until it reaches the head, where it is skipped
// at once: a non-empty FIFO's head is its least pending event, and hd
// keeps a copy of it for the min-scans. A FIFO is always bound to some
// delay; a zero Scheduler's are bound to 0 and count no use, so the
// first delays to repeat take them over.
type fifo struct {
	hd         heapEntry
	head, tail uint32
	mask       uint32
	buf        []heapEntry
	n          uint64 // appends since bound, plus the misses that bound it
}

// dead is the idx of a tombstone.
const dead = -1

// empty reports whether the FIFO holds nothing, tombstones included.
func (q *fifo) empty() bool { return q.head == q.tail }

// back returns the tail entry of a non-empty FIFO.
func (q *fifo) back() heapEntry { return q.buf[(q.tail-1)&q.mask] }

// heapEntry is one heap element, and one FIFO element. The ordering
// keys (at, sub, seq) live inline in the heap rather than in the slot
// arena: every sift comparison then reads adjacent heap memory instead
// of dereferencing two random slots, which is most of what a comparison
// used to cost on large queues.
//
// sub is the schedule-time subkey that makes event order reproducible
// across the parallel region kernel: the simulated instant the event
// was scheduled at, left-shifted one bit, with bit 0 set for events
// injected as inter-region messages (InjectAt). For a single-scheduler
// run sub is redundant — the clock is monotone, so within one instant
// ascending seq already implies ascending sub and the (at, sub, seq)
// order coincides exactly with the historical (at, seq) order. For a
// region scheduler it is load-bearing: a message injected late (its
// region's horizon only just reached it) still sorts against local
// events by when it was *sent*, not by when the window protocol got
// around to injecting it, so the executed event order is independent of
// worker count and window timing.
type heapEntry struct {
	at  time.Duration
	sub uint64
	seq uint64
	idx int32
}

// Scheduler is a discrete-event scheduler. The zero value is ready to use.
//
// Events scheduled for the same instant fire in the order they were
// scheduled (FIFO tie-break via a sequence number), which keeps runs
// deterministic regardless of heap internals.
type Scheduler struct {
	now   time.Duration
	slots []slot
	free  []int32     // recycled slot indices
	heap  []heapEntry // 4-ary heap ordered by (at, sub, seq)
	seq   uint64
	fired uint64

	queued int                   // live entries in the FIFOs
	first  int                   // the FIFO with the least head, while queued > 0
	delays [nFIFOs]time.Duration // the delay each FIFO is bound to

	// Out-of-band observability counters (Stats): plain fields because a
	// scheduler is owned by exactly one goroutine; the obs layer copies
	// them out only at barrier-safe points.
	pushes  uint64 // insertions, heap and FIFO
	appends uint64 // FIFO insertions

	// Countdowns (countdown.go). cur is the highest key fired at the
	// current instant; afterAll once RunUntil has passed the instant.
	slot      time.Duration
	cur       heapEntry
	cds       []countdown
	cdFree    []int32
	grids     []grid
	gridOf    map[time.Duration]int32 // residue modulo slot → grid
	gridFree  []int32
	idleGrids []int32 // grids with no countdown, recyclable once their instant passes
	live      int     // running countdowns
	cdSlots   uint64  // virtual ticks of countdowns already ended

	fifos  [nFIFOs]fifo
	missed [nMissed]miss // delays no FIFO took, and how often

	// Marks (mark.go): reserved keys, in rings bound to their delay.
	// epoch tells a Mark set before the last Reset.
	rings  []markRing
	epoch  uint32
	marked uint64 // marks set
}

// Stats is a point-in-time copy of a scheduler's out-of-band counters.
// Read it only from the goroutine driving the scheduler (or across a
// barrier in parallel mode); it never influences event order.
type Stats struct {
	Fired  uint64 // events executed, a countdown's virtual ticks included
	Pushes uint64 // event-queue insertions, heap and FIFO
	// FIFOAppends counts the insertions filed in a constant-delay FIFO
	// instead of the heap: the part of Pushes that no sift paid for.
	FIFOAppends uint64
	// CountdownSlots counts the slot boundaries countdowns crossed
	// without a heap event: the part of Fired that Pushes never paid.
	CountdownSlots uint64
	// Marks counts the keys reserved by Mark instead of scheduling an
	// event that would do nothing; those that are passed count in Fired.
	Marks uint64
}

// Stats returns the scheduler's observability counters.
func (s *Scheduler) Stats() Stats {
	s.foldMarks()
	r := s.running()
	return Stats{Fired: s.fired + r, Pushes: s.pushes, FIFOAppends: s.appends, CountdownSlots: s.cdSlots + r, Marks: s.marked}
}

// NewScheduler returns an empty scheduler at time zero.
func NewScheduler() *Scheduler { return &Scheduler{} }

// Now returns the current simulated time.
func (s *Scheduler) Now() time.Duration { return s.now }

// Len returns the number of pending events.
func (s *Scheduler) Len() int {
	return len(s.heap) + s.queued
}

// Fired returns the total number of events executed so far, passed
// marks and countdowns' virtual ticks included.
func (s *Scheduler) Fired() uint64 {
	s.foldMarks()
	return s.fired + s.running()
}

// At schedules fn to run at absolute simulated time t.
// Scheduling in the past panics: it always indicates a logic bug in a
// protocol state machine, and silently reordering time would corrupt the
// simulation.
func (s *Scheduler) At(t time.Duration, fn func()) Event {
	if fn == nil {
		panic("sim: nil event callback")
	}
	return s.schedule(t, fn, nil)
}

// After schedules fn to run d after the current simulated time.
func (s *Scheduler) After(d time.Duration, fn func()) Event {
	if d < 0 {
		panic(fmt.Sprintf("sim: negative delay %v", d))
	}
	return s.At(s.now+d, fn)
}

// AtAction schedules a.Act() at absolute simulated time t. Unlike At it
// performs no allocation: the action value is stored directly in the
// recycled slot, so pooled callers run allocation-free.
func (s *Scheduler) AtAction(t time.Duration, a Action) Event {
	if a == nil {
		panic("sim: nil action")
	}
	return s.schedule(t, nil, a)
}

// AfterAction schedules a.Act() to run d after the current simulated time.
func (s *Scheduler) AfterAction(d time.Duration, a Action) Event {
	if d < 0 {
		panic(fmt.Sprintf("sim: negative delay %v", d))
	}
	return s.AtAction(s.now+d, a)
}

// schedule acquires a slot, fills it and files it in the FIFO bound to
// its delay, or else in the heap.
func (s *Scheduler) schedule(t time.Duration, fn func(), act Action) Event {
	if t < s.now {
		panic(fmt.Sprintf("sim: scheduling event at %v before now %v", t, s.now))
	}
	idx := s.alloc()
	sl := &s.slots[idx]
	sl.fn = fn
	sl.act = act
	e := heapEntry{at: t, sub: uint64(s.now) << 1, seq: s.seq, idx: idx}
	s.seq++
	if d := t - s.now; s.slot != 0 && d == s.slot {
		// relabel rewrites the band of heap entries only.
		e.seq = s.banded(e.seq)
		s.push(e)
	} else if s.Len() < fifoMinLen || !s.enqueue(d, e) {
		s.push(e)
	}
	return Event{s: s, idx: idx, gen: sl.gen, at: t}
}

// banded returns the seq of an event scheduled now exactly one slot
// ahead under sequence number seq. It ties on (at, sub) with the ticks
// of countdowns on this instant's grid, and its band places it among
// them (countdown.go).
func (s *Scheduler) banded(seq uint64) uint64 {
	return s.band()<<bandShift | (seq + 1)
}

// miss counts the events scheduled d ahead that no FIFO took since d
// entered the table of misses.
type miss struct {
	d time.Duration
	n uint64
}

// nMissed is the size of the table of misses. A delay not in it
// replaces the entry with the fewest misses, so the few delays that
// carry most of a run's insertions stay in it. bindMisses is how often
// a delay must miss before it may take a FIFO over.
const (
	nMissed    = 4
	bindMisses = 16
)

// fifoMinLen is the queue length below which every event goes to the
// heap. A heap that short is one or two levels deep, and its sifts cost
// less than the FIFOs' bookkeeping and the extra head to compare on
// every pop; the paper's two- and four-station runs stay below it
// throughout and never use the FIFOs.
const fifoMinLen = 16

// enqueue files e, scheduled d ahead, in the FIFO bound to d and
// reports whether it did. An entry that would sort before the FIFO's
// tail is refused: that never happens to (at, sub, seq) keys minted by
// schedule, but the FIFO's order must not rest on it.
//
// A delay no FIFO is bound to takes over a drained FIFO once it has
// missed bindMisses times, and more often than that FIFO was used since
// it was bound. So the FIFOs end up bound to the most frequent delays:
// a rare delay never binds one, and a busy delay whose FIFO drains for
// a moment keeps it.
func (s *Scheduler) enqueue(d time.Duration, e heapEntry) bool {
	f := -1
	for i, b := range s.delays {
		if b == d {
			f = i
			break
		}
	}
	if f < 0 {
		m := &s.missed[0]
		for i := range s.missed {
			if c := &s.missed[i]; c.d == d {
				m = c
				break
			} else if c.n < m.n {
				m = c
			}
		}
		if m.d != d {
			*m = miss{d: d}
		}
		if m.n++; m.n < bindMisses {
			return false
		}
		for i := range s.fifos {
			if q := &s.fifos[i]; q.empty() && q.n < m.n && (f < 0 || q.n < s.fifos[f].n) {
				f = i
			}
		}
		if f < 0 {
			return false
		}
		s.delays[f], s.fifos[f].n = d, m.n
		*m = miss{}
	}
	q := &s.fifos[f]
	if !q.empty() {
		if less(e, q.back()) {
			return false
		}
	} else {
		q.hd = e
		if s.queued == 0 || less(e, s.fifos[s.first].hd) {
			s.first = f
		}
	}
	if q.tail-q.head == uint32(len(q.buf)) {
		s.growFIFO(q, f)
	}
	i := q.tail & q.mask
	q.buf[i] = e
	q.tail++
	q.n++
	s.slots[e.idx].pos = fifoPos(f, i)
	s.queued++
	s.pushes++
	s.appends++
	return true
}

// growFIFO doubles FIFO f's ring, moving its entries to the front.
func (s *Scheduler) growFIFO(q *fifo, f int) {
	n := q.tail - q.head
	buf := make([]heapEntry, max(2*len(q.buf), 64))
	for i := range n {
		e := q.buf[(q.head+i)&q.mask]
		buf[i] = e
		if e.idx != dead {
			s.slots[e.idx].pos = fifoPos(f, i)
		}
	}
	q.buf, q.mask, q.head, q.tail = buf, uint32(len(buf)-1), 0, n
}

// alloc takes a slot from the free list, or grows the arena.
func (s *Scheduler) alloc() int32 {
	if n := len(s.free); n > 0 {
		idx := s.free[n-1]
		s.free = s.free[:n-1]
		return idx
	}
	s.slots = append(s.slots, slot{})
	return int32(len(s.slots) - 1)
}

// push files an entry into the heap.
func (s *Scheduler) push(e heapEntry) {
	s.pushes++
	s.slots[e.idx].pos = int32(len(s.heap))
	s.heap = append(s.heap, e)
	s.siftUp(len(s.heap) - 1)
}

// InjectAt schedules a.Act() at absolute time t on behalf of an event
// that executed at sentAt on another region's scheduler. It is the
// inter-region message entry point of the parallel kernel (sim.Exec):
// the injected event carries sentAt — not this scheduler's current
// clock — as its ordering subkey, with the message bit set, so its
// position among same-instant events is a pure function of simulated
// time rather than of when the conservative window let the message in.
// Messages tie-break after local events of the same (instant, sentAt),
// and the caller (Exec) injects concurrent messages in a canonical
// order, which together make region runs worker-count-invariant.
func (s *Scheduler) InjectAt(t, sentAt time.Duration, a Action) {
	if a == nil {
		panic("sim: nil action")
	}
	if t < s.now {
		// A message from the past means the conservative lookahead was
		// violated — corrupt, not recoverable.
		panic(fmt.Sprintf("sim: injecting message at %v before now %v", t, s.now))
	}
	idx := s.alloc()
	sl := &s.slots[idx]
	sl.fn = nil
	sl.act = a
	e := heapEntry{at: t, sub: uint64(sentAt)<<1 | 1, seq: s.seq, idx: idx}
	s.seq++
	s.push(e)
}

// PeekAt returns the timestamp of the earliest pending event, or false
// when the queue is empty. The parallel kernel publishes it as the
// region's conservative clock.
func (s *Scheduler) PeekAt() (time.Duration, bool) {
	src, ok := s.next()
	if !ok {
		return 0, false
	}
	return s.due(src), true
}

// next reports where the earliest pending event is queued: -1 for the
// heap, f for FIFO f. ok is false when nothing is pending. It is one
// comparison, shared by RunUntil's peek and the Step that follows, and
// none while the FIFOs are empty.
func (s *Scheduler) next() (src int, ok bool) {
	if s.queued > 0 {
		return s.nextOfBoth(), true
	}
	return -1, len(s.heap) > 0
}

// nextOfBoth is next while a FIFO holds an event. It is kept out of
// line so that next inlines into Step and RunUntil.
//
//go:noinline
func (s *Scheduler) nextOfBoth() int {
	if len(s.heap) == 0 || less(s.fifos[s.first].hd, s.heap[0]) {
		return s.first
	}
	return -1
}

// due returns when the earliest event of queue src, as next reports
// it, is due.
func (s *Scheduler) due(src int) time.Duration {
	if src >= 0 {
		return s.fifos[src].hd.at
	}
	return s.heap[0].at
}

// settle pops the tombstones at FIFO f's head, so that its head is
// live again, then finds the FIFO with the least head anew if f was it.
// Heads are live, so that is one scan with no lookups.
func (s *Scheduler) settle(f int) {
	q := &s.fifos[f]
	for ; !q.empty(); q.head++ {
		if e := q.buf[q.head&q.mask]; e.idx != dead {
			q.hd = e
			break
		}
	}
	if q.empty() {
		// Start over at the front of the ring: a FIFO that holds a few
		// entries at a time then stays in a few cache lines.
		q.head, q.tail = 0, 0
	}
	if f != s.first || s.queued == 0 {
		return
	}
	best := -1
	for i := range s.fifos {
		if q := &s.fifos[i]; !q.empty() && (best < 0 || less(q.hd, s.fifos[best].hd)) {
			best = i
		}
	}
	s.first = best
}

// Cancel removes a pending event from the queue. Cancelling a zero,
// fired, or already-cancelled event is a no-op, so callers can cancel
// unconditionally in cleanup paths. Cancelling another scheduler's
// event panics: a handle is only valid against the arena that minted
// it, and silently operating cross-arena would hide a wiring bug.
func (s *Scheduler) Cancel(e Event) {
	if e.s == nil {
		return
	}
	if e.s != s {
		panic("sim: Cancel of an event from a different scheduler")
	}
	sl := &s.slots[e.idx]
	if sl.gen != e.gen {
		return
	}
	if sl.lane != 0 {
		ci := sl.lane - 1
		s.endCountdown(ci, s.passed(&s.cds[ci]), false)
	}
	if sl.pos >= 0 {
		s.removeHeap(int(sl.pos))
		return
	}
	// In a FIFO: the entry stays as a tombstone.
	f, i := atFIFO(sl.pos)
	q := &s.fifos[f]
	q.buf[i].idx = dead
	s.queued--
	s.release(e.idx)
	if i == q.head&q.mask {
		s.settle(f)
	}
}

// Reschedule cancels e (if pending) and schedules a.Act() at absolute
// time t, returning the new event. It is the re-arm of self-rearming
// timers, which are per-event paths, so it takes an Action and, like
// AtAction, performs no allocation.
func (s *Scheduler) Reschedule(e Event, t time.Duration, a Action) Event {
	s.Cancel(e)
	return s.AtAction(t, a)
}

// release bumps the slot's generation (invalidating outstanding
// handles), drops the callback references so the GC can reclaim their
// captures, and returns the slot to the free list.
func (s *Scheduler) release(idx int32) {
	sl := &s.slots[idx]
	sl.gen++
	sl.pos = released
	sl.lane = 0
	sl.fn = nil
	sl.act = nil
	s.free = append(s.free, idx)
}

// removeHeap removes the heap entry at heap position h and releases its
// slot.
func (s *Scheduler) removeHeap(h int) {
	idx := s.heap[h].idx
	last := len(s.heap) - 1
	if h != last {
		s.heap[h] = s.heap[last]
		s.slots[s.heap[h].idx].pos = int32(h)
	}
	s.heap = s.heap[:last]
	if h != last {
		if !s.siftDown(h) {
			s.siftUp(h)
		}
	}
	s.release(idx)
}

// Step executes the earliest pending event, advancing the clock to its
// timestamp. It returns false when the queue is empty.
func (s *Scheduler) Step() bool {
	src, ok := s.next()
	if ok {
		s.fire(src)
	}
	return ok
}

// fire pops the earliest pending event from src, the queue next found
// it in, and runs it. cur becomes its key wherever it was queued, unless
// an event already fired at this instant sorts after it: a message
// injected at now but sent earlier sorts before events the loop has
// passed. The countdowns and marks read cur as how far the loop has
// got, so it never moves back within an instant.
func (s *Scheduler) fire(src int) {
	var e heapEntry
	if src >= 0 {
		q := &s.fifos[src]
		e = q.hd
		q.head++
		s.queued--
		s.settle(src)
	} else {
		e = s.heap[0]
		last := len(s.heap) - 1
		s.heap[0] = s.heap[last]
		s.heap = s.heap[:last]
		if last > 0 {
			s.slots[s.heap[0].idx].pos = 0
			s.siftDown(0)
		}
	}
	if e.at != s.now || below(s.cur, e) {
		s.cur = e
	}
	s.now = e.at
	idx := e.idx
	sl := &s.slots[idx]
	fn, act, lane := sl.fn, sl.act, sl.lane
	// Release before running: the callback observes its own event as no
	// longer pending, and may immediately reuse the slot for a follow-up.
	s.release(idx)
	if lane != 0 {
		s.endCountdown(lane-1, s.cds[lane-1].n, true)
	} else {
		s.fired++
	}
	if fn != nil {
		fn()
	} else {
		act.Act()
	}
}

// RunUntil executes events until the queue is empty or the next event is
// strictly after t, then advances the clock to exactly t. Events scheduled
// at exactly t are executed.
func (s *Scheduler) RunUntil(t time.Duration) {
	if t < s.now {
		panic(fmt.Sprintf("sim: RunUntil(%v) before now %v", t, s.now))
	}
	for {
		src, ok := s.next()
		if !ok || s.due(src) > t {
			break
		}
		s.fire(src)
	}
	s.now = t
	s.cur = afterAll
	s.foldMarks()
}

// Run executes events until the queue is empty. Most experiments should
// prefer RunUntil with an explicit horizon: saturating traffic sources
// never drain the queue.
func (s *Scheduler) Run() {
	for s.Step() {
	}
}

// Reset returns the scheduler to its just-constructed state — time
// zero, no pending events or marks, counters and FIFO bindings cleared
// — while keeping the slot arena, heap, FIFO and mark-ring capacity, so
// a replication sweep reuses the memory a previous run grew. Every
// outstanding Event handle is invalidated (generations bump exactly as
// if each event had been cancelled), and so is every Mark; a fresh run
// scheduled after Reset is bit-identical to one on a new scheduler,
// because event ordering depends only on (time, sequence), never on
// slot indices or on which queue holds an event.
func (s *Scheduler) Reset() {
	s.heap = s.heap[:0]
	s.free = s.free[:0]
	for i := range s.slots {
		sl := &s.slots[i]
		sl.gen++
		sl.pos = released
		sl.lane = 0
		sl.fn = nil
		sl.act = nil
		s.free = append(s.free, int32(i))
	}
	for i := range s.fifos {
		q := &s.fifos[i]
		*q = fifo{mask: q.mask, buf: q.buf}
	}
	s.delays = [nFIFOs]time.Duration{}
	s.queued = 0
	s.missed = [nMissed]miss{}
	s.resetCountdowns()
	s.resetMarks()
	s.now = 0
	s.seq = 0
	s.fired = 0
	s.pushes = 0
	s.appends = 0
}

// less orders heap entries by (time, schedule subkey, sequence): FIFO
// within one instant for a single-scheduler run (where sub is monotone
// in seq and therefore inert), send-time order across region kernels.
func less(a, b heapEntry) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	if a.sub != b.sub {
		return a.sub < b.sub
	}
	return a.seq < b.seq
}

// The heap is 4-ary: children of heap position i sit at 4i+1..4i+4.
// Compared with a binary heap this halves the tree depth, trading a few
// extra comparisons per level for markedly fewer cache lines touched on
// the sift paths — the right trade for a queue that is popped once per
// simulated event.

// siftUp restores the heap property upward from position i.
func (s *Scheduler) siftUp(i int) {
	e := s.heap[i]
	for i > 0 {
		parent := (i - 1) / 4
		if !less(e, s.heap[parent]) {
			break
		}
		s.heap[i] = s.heap[parent]
		s.slots[s.heap[i].idx].pos = int32(i)
		i = parent
	}
	s.heap[i] = e
	s.slots[e.idx].pos = int32(i)
}

// siftDown restores the heap property downward from position i,
// reporting whether the entry moved.
func (s *Scheduler) siftDown(i int) bool {
	e := s.heap[i]
	start := i
	n := len(s.heap)
	for {
		first := 4*i + 1
		if first >= n {
			break
		}
		best := first
		end := first + 4
		if end > n {
			end = n
		}
		for c := first + 1; c < end; c++ {
			if less(s.heap[c], s.heap[best]) {
				best = c
			}
		}
		if !less(s.heap[best], e) {
			break
		}
		s.heap[i] = s.heap[best]
		s.slots[s.heap[i].idx].pos = int32(i)
		i = best
	}
	s.heap[i] = e
	s.slots[e.idx].pos = int32(i)
	return i != start
}
