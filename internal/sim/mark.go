package sim

import (
	"fmt"
	"time"
)

// A mark stands for an event that would do nothing when it fired: a
// DCF deferral at a station with nothing to send is most of a large
// run's insertions. Mark reserves the key (at, sub, seq) such an event
// would get, using up the same sequence number, so no other event's key
// or tie order moves; nothing is queued for it and no Action runs.
// PeekAt, Len, Step and RunUntil do not see marks. Fired still counts a
// mark exactly when its event would have fired: once the loop has
// passed its key — an event sorting after it has fired, or RunUntil has
// run to its instant — unless it was withdrawn (Unmark) before that.
//
// Marks scheduled the same delay ahead arrive in key order, as the
// constant-delay FIFOs' events do, so they are kept in rings bound to
// their delay. Passed marks are folded into fired from the ring heads:
// a ring's when it is full, and every ring's when RunUntil returns and
// when Fired or Stats reads the count.

// Mark is a handle to a reserved key. The zero Mark is valid and
// withdraws nothing.
type Mark struct {
	at    time.Duration // the key's instant
	ring  int32         // 1 + the index of the ring holding it; 0 for the zero Mark
	pos   uint32        // its position in the ring's count of appends
	epoch uint32        // Scheduler.epoch when it was set
}

// markRing is a ring of reserved keys in key order, like a fifo's: head
// and tail count the entries ever folded and appended, so a Mark's pos
// stays valid until Reset; the ring's length is a power of two, mask
// one less. Every key in it was reserved d ahead, so an entry holds only
// its instant and seq: its sub is (at - d)<<1. A withdrawn entry stays
// as a tombstone until it is folded, its at complemented (negative), so
// that its key still orders the ring.
type markRing struct {
	head, tail uint32
	mask       uint32
	buf        []markEntry
	d          time.Duration
}

type markEntry struct {
	at  time.Duration
	seq uint64
}

// key returns the full key of entry e.
func (q *markRing) key(e markEntry) heapEntry {
	at := e.at
	if at < 0 {
		at = ^at
	}
	return heapEntry{at: at, sub: uint64(at-q.d) << 1, seq: e.seq}
}

// Mark reserves the key of an event scheduled now for t, without
// scheduling anything. t must lie after now: a key at the current
// instant could sort before the event firing now, which the loop has
// already passed. A mark past the last event Run fires is never passed:
// Run has no horizon to run marks to.
func (s *Scheduler) Mark(t time.Duration) Mark {
	if t <= s.now {
		panic(fmt.Sprintf("sim: marking %v, not after now %v", t, s.now))
	}
	// The key an event scheduled now for t would get (schedule).
	e := markEntry{at: t, seq: s.seq}
	s.seq++
	d := t - s.now
	if s.slot != 0 && d == s.slot {
		e.seq = s.banded(e.seq)
	}
	s.marked++
	r := s.ringFor(d, e)
	q := &s.rings[r]
	if q.tail-q.head == uint32(len(q.buf)) {
		// Full: make room by folding, and grow only if that is not
		// enough. A ring is folded here and when RunUntil returns, so it
		// grows to the most marks pending at once, not to a run's count.
		if s.fold(q); q.tail-q.head == uint32(len(q.buf)) {
			q.grow()
		}
	}
	q.buf[q.tail&q.mask] = e
	q.tail++
	return Mark{at: t, ring: int32(r + 1), pos: q.tail - 1, epoch: s.epoch}
}

// ringFor returns the index of the ring a mark reserved d ahead joins:
// the ring bound to d, unless e sorts before its tail; else a drained
// ring, bound to d anew; else a new one.
func (s *Scheduler) ringFor(d time.Duration, e markEntry) int {
	for i := range s.rings {
		if q := &s.rings[i]; q.d == d {
			if q.head == q.tail || !e.before(q.buf[(q.tail-1)&q.mask]) {
				return i
			}
			break
		}
	}
	for i := range s.rings {
		if q := &s.rings[i]; q.d != d {
			if s.fold(q); q.head == q.tail {
				q.d = d
				return i
			}
		}
	}
	s.rings = append(s.rings, markRing{d: d})
	return len(s.rings) - 1
}

// before reports whether entry e sorts before entry o of the same ring.
// Their delay is the same, so their subs compare as their instants do.
func (e markEntry) before(o markEntry) bool {
	at := o.at
	if at < 0 {
		at = ^at
	}
	return e.at < at || e.at == at && e.seq < o.seq
}

// Unmark withdraws the mark m and reports whether the loop had already
// passed its key, in which case it has counted in Fired (or will, once
// folded) and withdrawing it changes nothing. Withdraw a mark at most
// once: a mark withdrawn and then folded reads as passed. A zero Mark,
// or one set before the last Reset, reports false.
func (s *Scheduler) Unmark(m Mark) bool {
	if m.at < s.now {
		// Its instant is over: no need to look it up.
		return m.ring != 0 && m.epoch == s.epoch
	}
	return s.unmark(m)
}

// unmark is Unmark of a mark at the current instant or later.
func (s *Scheduler) unmark(m Mark) bool {
	if m.ring == 0 || m.epoch != s.epoch {
		return false
	}
	q := &s.rings[m.ring-1]
	if m.pos-q.head >= q.tail-q.head {
		return true // folded
	}
	e := &q.buf[m.pos&q.mask]
	if e.at < 0 {
		return false // withdrawn before
	}
	if s.markPassed(q.key(*e)) {
		return true
	}
	e.at = ^e.at
	return false
}

// markPassed reports whether the loop has passed key k: k's instant is
// over, or k sorts before the highest key fired at it (every key does,
// once RunUntil has run to now and cur is afterAll). cur never moves
// back within an instant, so a mark the loop has passed never reads as
// pending again.
func (s *Scheduler) markPassed(k heapEntry) bool {
	if k.at != s.now {
		return k.at < s.now
	}
	return below(k, s.cur)
}

// below reports whether key a sorts before key b of the same instant.
func below(a, b heapEntry) bool {
	return a.sub < b.sub || a.sub == b.sub && a.seq < b.seq
}

// foldMarks folds every ring's passed marks into fired.
func (s *Scheduler) foldMarks() {
	for i := range s.rings {
		s.fold(&s.rings[i])
	}
}

// fold drops the withdrawn and passed entries at q's head, counting the
// passed ones in fired.
func (s *Scheduler) fold(q *markRing) {
	for ; q.head != q.tail; q.head++ {
		e := q.buf[q.head&q.mask]
		if e.at >= 0 {
			if !s.markPassed(q.key(e)) {
				return
			}
			s.fired++
		}
	}
}

// grow doubles the ring, keeping every entry at its count position.
func (q *markRing) grow() {
	buf := make([]markEntry, max(2*len(q.buf), 64))
	mask := uint32(len(buf) - 1)
	for p := q.head; p != q.tail; p++ {
		buf[p&mask] = q.buf[p&q.mask]
	}
	q.buf, q.mask = buf, mask
}

// resetMarks drops every mark, keeping the rings' capacity, and
// invalidates every outstanding Mark.
func (s *Scheduler) resetMarks() {
	for i := range s.rings {
		q := &s.rings[i]
		*q = markRing{mask: q.mask, buf: q.buf}
	}
	s.epoch++
	s.marked = 0
}
