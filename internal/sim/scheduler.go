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
// The heap is the only queue. A calendar-queue backend used to run
// beside it; on the city presets the heap measured about 3× faster with
// the same fire order, and DESIGN.md ("Why one heap") keeps the numbers.
//
// A chain of one-slot events — the DCF backoff, which used to be most of
// every contended run's events — is one heap entry (Countdown): the
// slot boundaries before its last are never pushed or popped. They still
// count in Fired, one per boundary crossed, and the entry and any event
// scheduled exactly one slot ahead carry ordering bands in seq that
// reproduce the chain's (at, sub, seq) order exactly, so a countdown
// fires and freezes (Left) where the chain would have. countdown.go has
// the argument; DESIGN.md ("Backoff without slot events") the numbers.
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

// slot is one arena entry. A slot is in the heap exactly while its
// generation matches the handles minted for it; firing or cancelling
// bumps gen, releases the callback reference, and returns the slot to
// the free list.
type slot struct {
	gen     uint64
	heapIdx int32
	lane    int32 // 1 + the countdown's index, 0 for a plain event
	fn      func()
	act     Action
}

// heapEntry is one heap element. The ordering keys (at, sub, seq) live
// inline in the heap rather than in the slot arena: every sift
// comparison then reads adjacent heap memory instead of dereferencing
// two random slots, which is most of what a comparison used to cost on
// large queues.
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

	// Out-of-band observability counters (Stats): plain fields because a
	// scheduler is owned by exactly one goroutine; the obs layer copies
	// them out only at barrier-safe points.
	pushes uint64 // heap insertions

	// Countdowns (countdown.go). cur is the key of the event firing, or
	// last fired; afterAll once RunUntil has passed the instant.
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
}

// Stats is a point-in-time copy of a scheduler's out-of-band counters.
// Read it only from the goroutine driving the scheduler (or across a
// barrier in parallel mode); it never influences event order.
type Stats struct {
	Fired  uint64 // events executed, a countdown's virtual ticks included
	Pushes uint64 // heap insertions
	// CountdownSlots counts the slot boundaries countdowns crossed
	// without a heap event: the part of Fired that Pushes never paid.
	CountdownSlots uint64
}

// Stats returns the scheduler's observability counters.
func (s *Scheduler) Stats() Stats {
	r := s.running()
	return Stats{Fired: s.fired + r, Pushes: s.pushes, CountdownSlots: s.cdSlots + r}
}

// NewScheduler returns an empty scheduler at time zero.
func NewScheduler() *Scheduler { return &Scheduler{} }

// Now returns the current simulated time.
func (s *Scheduler) Now() time.Duration { return s.now }

// Len returns the number of pending events.
func (s *Scheduler) Len() int {
	return len(s.heap)
}

// Fired returns the total number of events executed so far.
func (s *Scheduler) Fired() uint64 { return s.fired + s.running() }

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

// schedule acquires a slot, fills it and pushes it onto the heap.
func (s *Scheduler) schedule(t time.Duration, fn func(), act Action) Event {
	if t < s.now {
		panic(fmt.Sprintf("sim: scheduling event at %v before now %v", t, s.now))
	}
	idx := s.alloc()
	sl := &s.slots[idx]
	sl.fn = fn
	sl.act = act
	seq := s.seq
	if s.slot != 0 && t-s.now == s.slot {
		// One slot ahead: the event ties on (at, sub) with the ticks of
		// countdowns on this instant's grid; its band places it among
		// them (countdown.go).
		seq = s.band()<<bandShift | (s.seq + 1)
	}
	s.push(heapEntry{at: t, sub: uint64(s.now) << 1, seq: seq, idx: idx})
	s.seq++
	return Event{s: s, idx: idx, gen: sl.gen, at: t}
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
	s.slots[e.idx].heapIdx = int32(len(s.heap))
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
	s.push(heapEntry{at: t, sub: uint64(sentAt)<<1 | 1, seq: s.seq, idx: idx})
	s.seq++
}

// PeekAt returns the timestamp of the earliest pending event, or false
// when the queue is empty. The parallel kernel publishes it as the
// region's conservative clock.
func (s *Scheduler) PeekAt() (time.Duration, bool) {
	if len(s.heap) == 0 {
		return 0, false
	}
	return s.heap[0].at, true
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
	s.removeHeap(int(sl.heapIdx))
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
	sl.heapIdx = -1
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
		s.slots[s.heap[h].idx].heapIdx = int32(h)
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
	if len(s.heap) == 0 {
		return false
	}
	s.cur = s.heap[0]
	idx := s.cur.idx
	sl := &s.slots[idx]
	s.now = s.cur.at
	fn, act, lane := sl.fn, sl.act, sl.lane
	last := len(s.heap) - 1
	s.heap[0] = s.heap[last]
	s.heap = s.heap[:last]
	if last > 0 {
		s.slots[s.heap[0].idx].heapIdx = 0
		s.siftDown(0)
	}
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
	return true
}

// RunUntil executes events until the queue is empty or the next event is
// strictly after t, then advances the clock to exactly t. Events scheduled
// at exactly t are executed.
func (s *Scheduler) RunUntil(t time.Duration) {
	if t < s.now {
		panic(fmt.Sprintf("sim: RunUntil(%v) before now %v", t, s.now))
	}
	for len(s.heap) > 0 && s.heap[0].at <= t {
		s.Step()
	}
	s.now = t
	s.cur = afterAll
}

// Run executes events until the queue is empty. Most experiments should
// prefer RunUntil with an explicit horizon: saturating traffic sources
// never drain the queue.
func (s *Scheduler) Run() {
	for s.Step() {
	}
}

// Reset returns the scheduler to its just-constructed state — time
// zero, no pending events, counters cleared — while keeping the slot
// arena and heap capacity, so a replication sweep reuses the memory a
// previous run grew. Every outstanding Event handle is invalidated
// (generations bump exactly as if each event had been cancelled); a
// fresh run scheduled after Reset is bit-identical to one on a new
// scheduler, because event ordering depends only on (time, sequence),
// never on slot indices.
func (s *Scheduler) Reset() {
	s.heap = s.heap[:0]
	s.free = s.free[:0]
	for i := range s.slots {
		sl := &s.slots[i]
		sl.gen++
		sl.heapIdx = -1
		sl.lane = 0
		sl.fn = nil
		sl.act = nil
		s.free = append(s.free, int32(i))
	}
	s.resetCountdowns()
	s.now = 0
	s.seq = 0
	s.fired = 0
	s.pushes = 0
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
		s.slots[s.heap[i].idx].heapIdx = int32(i)
		i = parent
	}
	s.heap[i] = e
	s.slots[e.idx].heapIdx = int32(i)
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
		s.slots[s.heap[i].idx].heapIdx = int32(i)
		i = best
	}
	s.heap[i] = e
	s.slots[e.idx].heapIdx = int32(i)
	return i != start
}
