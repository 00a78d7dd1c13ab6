package sim

import (
	"fmt"
	"math"
	"slices"
	"time"
)

// A countdown is one heap entry standing for a chain of n slot events:
// the chain an event at t0 would start by scheduling a tick at t0+slot,
// whose firing schedules the next tick one slot later, and so on, the
// n-th tick running the action. Only the n-th tick is pushed. The n-1
// boundaries before it are virtual: nothing is pushed or popped for
// them, yet they count as fired events (Fired) exactly as the chain's
// ticks did, and a countdown cancelled mid-way reports through Left how
// many slots it had still to count.
//
// The countdown must fire, and its virtual ticks must pass, exactly
// where the chain's events would have sorted among everything else at
// their instants. A chain tick at T carries the key (T, T-slot, q), q
// being the sequence number current when the previous tick fired; the
// final entry is therefore keyed (tEnd, tEnd-slot, ·), and the only real
// events it can tie with on (at, sub) are those scheduled exactly one
// slot before their instant. Their order against the ticks — and the
// ticks' order against each other — is decided one slot earlier, by
// where the scheduling event fired relative to the ticks then. That
// position is a rank on the countdown's grid (the instants congruent to
// its start modulo the slot):
//
//   - every countdown gets a rank when it starts, placed after every
//     tick, start or one-slot schedule that fired before its start event
//     on that grid at that instant, and before the rest;
//   - an event scheduled exactly one slot ahead carries, as its band,
//     the rank of the last such marker that fired before its scheduler;
//   - the final entry's seq is rank<<bandShift, a one-slot event's is
//     band<<bandShift | (its sequence number + 1), so within one
//     (at, sub) the heap's plain seq comparison orders them all as the
//     chain would.
//
// Ranks only ever compare within one grid, among countdowns running
// together, so a grid starts over in the middle of the rank space
// whenever it has no countdown and its instant has passed. When an
// insertion finds no free rank between its neighbours, relabel spreads
// the grid's ranks out again, rewriting the seq of every heap entry that
// carries one; the remapping is monotone, so no comparison changes and
// the heap stays valid.

const (
	bandShift = 40 // low bits: the sequence number (2^40 events per run)
	bandLimit = uint64(1) << (64 - bandShift)
	bandMid   = bandLimit / 2
	bandStep  = uint64(1) << 12 // spacing of ranks pushed at a grid's ends
)

// afterAll is the key position past every event at the current instant:
// where the clock stands after RunUntil, Reset, or before the first Step.
var afterAll = heapEntry{sub: math.MaxUint64, seq: math.MaxUint64}

// countdown is one running countdown's bookkeeping.
type countdown struct {
	start time.Duration // the instant it was armed; ticks fall at start+k·slot
	n     int64         // slots counted by the whole countdown
	rank  uint64
	grid  int32 // index into Scheduler.grids
}

// grid is the rank state of one residue class of instants modulo the
// slot.
type grid struct {
	res   time.Duration
	lanes []int32       // running countdowns, unordered
	curAt time.Duration // the instant cur belongs to
	cur   uint64        // highest marker rank passed at curAt
	idle  bool          // listed in Scheduler.idleGrids
}

// Countdown arms a countdown of n slots of the given length: a.Act()
// runs n·slot from now, ordered against every other event exactly as
// the last of a chain of n one-slot events would be (see the comment at
// the top of countdown.go). Cancel stops it; Left reports how far it
// got. Every countdown on one scheduler must share one slot length,
// until Reset; n must be at least 1.
func (s *Scheduler) Countdown(slot time.Duration, n int, a Action) Event {
	if a == nil {
		panic("sim: nil action")
	}
	if slot <= 0 || n < 1 {
		panic(fmt.Sprintf("sim: countdown of %d slots of %v", n, slot))
	}
	if s.slot != slot {
		if s.slot != 0 {
			panic(fmt.Sprintf("sim: countdown slot %v on a scheduler counting %v slots", slot, s.slot))
		}
		s.slot = slot
	}
	gi := s.gridAt()
	g := &s.grids[gi]
	rank := s.rankAfter(g)
	var ci int32
	if k := len(s.cdFree); k > 0 {
		ci = s.cdFree[k-1]
		s.cdFree = s.cdFree[:k-1]
	} else {
		s.cds = append(s.cds, countdown{})
		ci = int32(len(s.cds) - 1)
	}
	g.lanes = append(g.lanes, ci)
	s.live++
	idx := s.alloc()
	sl := &s.slots[idx]
	sl.fn, sl.act, sl.lane = nil, a, ci+1
	s.cds[ci] = countdown{start: s.now, n: int64(n), rank: rank, grid: gi}
	t := s.now + time.Duration(n)*slot
	s.push(heapEntry{at: t, sub: uint64(t-slot) << 1, seq: rank << bandShift, idx: idx})
	return Event{s: s, idx: idx, gen: sl.gen, at: t}
}

// Left reports how many slots the countdown e has still to count: its
// n less the boundaries already passed. A boundary at the current
// instant counts as passed only if its tick sorts before the event now
// firing. Left of an event that is not a pending countdown is 0.
func (s *Scheduler) Left(e Event) int {
	if !e.Pending() || e.s != s || s.slots[e.idx].lane == 0 {
		return 0
	}
	c := &s.cds[s.slots[e.idx].lane-1]
	return int(c.n - s.passed(c))
}

// passed counts the boundaries countdown c has crossed so far.
func (s *Scheduler) passed(c *countdown) int64 {
	if s.now <= c.start {
		return 0
	}
	d := s.now - c.start
	k := int64(d / s.slot)
	if d%s.slot == 0 && !s.tickPassed(c.rank) {
		k--
	}
	return min(k, c.n)
}

// tickPassed reports whether the virtual tick of rank r at the current
// instant sorts before cur, the highest key fired at it.
func (s *Scheduler) tickPassed(r uint64) bool {
	return below(heapEntry{sub: uint64(s.now-s.slot) << 1, seq: r << bandShift}, s.cur)
}

// endCountdown retires countdown ci whose entry fired or was cancelled
// after crossing k boundaries, all but fire of them virtual.
func (s *Scheduler) endCountdown(ci int32, k int64, fire bool) {
	c := &s.cds[ci]
	s.fired += uint64(k)
	if fire {
		k--
	}
	s.cdSlots += uint64(k)
	g := &s.grids[c.grid]
	i := slices.Index(g.lanes, ci)
	g.lanes[i] = g.lanes[len(g.lanes)-1]
	g.lanes = g.lanes[:len(g.lanes)-1]
	if len(g.lanes) == 0 && !g.idle {
		g.idle = true
		s.idleGrids = append(s.idleGrids, c.grid)
	}
	s.live--
	s.cdFree = append(s.cdFree, ci)
}

// running sums passed over the running countdowns: the virtual ticks
// Fired and Stats count before their countdown ends.
func (s *Scheduler) running() uint64 {
	if s.live == 0 {
		return 0
	}
	var n uint64
	for i := range s.grids {
		for _, ci := range s.grids[i].lanes {
			n += uint64(s.passed(&s.cds[ci]))
		}
	}
	return n
}

// band is the band of an event scheduled now exactly one slot ahead.
func (s *Scheduler) band() uint64 {
	return s.cursor(&s.grids[s.gridAt()])
}

// cursor returns the rank of the last marker passed on g at the current
// instant — a countdown's tick or start, or a one-slot schedule — and
// records it as g's cursor. Ticks are passed in rank order, so cur, the
// highest key fired at this instant, has passed none of them (it sorts
// before the instant's ticks), all of them (after), or those up to its
// own band (it ties with them on (at, sub), being itself a one-slot
// event or a countdown's end).
func (s *Scheduler) cursor(g *grid) uint64 {
	var m uint64
	if g.curAt == s.now {
		m = g.cur
	}
	if s.now >= s.slot {
		ts := uint64(s.now-s.slot) << 1
		if s.cur.sub == ts {
			m = max(m, s.cur.seq>>bandShift)
		} else if s.cur.sub > ts {
			for _, ci := range g.lanes {
				m = max(m, s.cds[ci].rank)
			}
		}
	}
	g.curAt, g.cur = s.now, m
	return m
}

// rankAfter allocates the rank of a countdown starting now on g: above
// the cursor, below every running countdown ranked above it.
func (s *Scheduler) rankAfter(g *grid) uint64 {
	for {
		m := s.cursor(g)
		n := bandLimit
		for _, ci := range g.lanes {
			if r := s.cds[ci].rank; r > m && r < n {
				n = r
			}
		}
		if n-m >= 2 {
			var r uint64
			switch {
			case len(g.lanes) == 0 && m < bandMid:
				r = bandMid
			case n == bandLimit:
				r = m + min(bandStep, (n-m)/2)
			case m == 0:
				r = n - min(bandStep, n/2)
			default:
				r = m + (n-m)/2
			}
			g.cur = r
			return r
		}
		s.relabel(g)
	}
}

// relabel spreads the ranks in use on g evenly over the rank space. It
// rewrites every holder — running countdowns and their entries, one-slot
// events' bands, queued or marked, the cursor and the firing event's
// key — through one monotone map, so every comparison keeps its
// outcome. Entries that carry a rank are never in a FIFO (schedule
// files them in the heap), so the heap and the marks are all it scans.
func (s *Scheduler) relabel(g *grid) {
	onGrid := func(e heapEntry) bool {
		return e.sub&1 == 0 && e.at >= s.slot && e.sub == uint64(e.at-s.slot)<<1 && e.at%s.slot == g.res
	}
	vals := []uint64{g.cur}
	for _, ci := range g.lanes {
		vals = append(vals, s.cds[ci].rank)
	}
	for _, e := range s.heap {
		if onGrid(e) {
			vals = append(vals, e.seq>>bandShift)
		}
	}
	for i := range s.rings {
		q := &s.rings[i]
		for p := q.head; p != q.tail; p++ {
			if e := q.buf[p&q.mask]; onGrid(q.key(e)) {
				vals = append(vals, e.seq>>bandShift)
			}
		}
	}
	if onGrid(s.cur) {
		vals = append(vals, s.cur.seq>>bandShift)
	}
	slices.Sort(vals)
	vals = slices.Compact(vals)
	if vals[0] != 0 {
		vals = slices.Insert(vals, 0, 0) // 0, the floor, maps to itself
	}
	step := bandLimit / uint64(len(vals)+1)
	remap := func(v uint64) uint64 {
		i, _ := slices.BinarySearch(vals, v)
		return uint64(i) * step
	}
	rebase := func(seq uint64) uint64 {
		return remap(seq>>bandShift)<<bandShift | seq&(1<<bandShift-1)
	}
	g.cur = remap(g.cur)
	for _, ci := range g.lanes {
		s.cds[ci].rank = remap(s.cds[ci].rank)
	}
	for i := range s.heap {
		if onGrid(s.heap[i]) {
			s.heap[i].seq = rebase(s.heap[i].seq)
		}
	}
	for i := range s.rings {
		q := &s.rings[i]
		for p := q.head; p != q.tail; p++ {
			if e := &q.buf[p&q.mask]; onGrid(q.key(*e)) {
				e.seq = rebase(e.seq)
			}
		}
	}
	if onGrid(s.cur) {
		s.cur.seq = rebase(s.cur.seq)
	}
}

// gridAt returns the index of the grid the current instant lies on,
// creating it if need be. A grid with no countdown whose instant has
// passed holds nothing anything still compares with; such grids are
// recycled here rather than kept for every residue ever seen.
func (s *Scheduler) gridAt() int32 {
	res := s.now % s.slot
	if gi, ok := s.gridOf[res]; ok {
		return gi
	}
	if s.gridOf == nil {
		s.gridOf = make(map[time.Duration]int32)
	}
	keep := s.idleGrids[:0]
	for _, gi := range s.idleGrids {
		switch g := &s.grids[gi]; {
		case g.curAt == s.now && len(g.lanes) == 0:
			keep = append(keep, gi)
		case len(g.lanes) > 0:
			g.idle = false // running again; endCountdown re-lists it
		default:
			g.idle = false
			delete(s.gridOf, g.res)
			s.gridFree = append(s.gridFree, gi)
		}
	}
	s.idleGrids = keep
	var gi int32
	if k := len(s.gridFree); k > 0 {
		gi = s.gridFree[k-1]
		s.gridFree = s.gridFree[:k-1]
	} else {
		s.grids = append(s.grids, grid{})
		gi = int32(len(s.grids) - 1)
	}
	g := &s.grids[gi]
	*g = grid{res: res, lanes: g.lanes[:0], curAt: -1, idle: true}
	s.gridOf[res] = gi
	s.idleGrids = append(s.idleGrids, gi)
	return gi
}

// resetCountdowns drops every countdown and grid, keeping capacity.
func (s *Scheduler) resetCountdowns() {
	s.slot = 0
	s.cur = afterAll
	s.cdFree = s.cdFree[:0]
	for i := range s.cds {
		s.cdFree = append(s.cdFree, int32(len(s.cds)-1-i))
	}
	clear(s.gridOf)
	s.gridFree = s.gridFree[:0]
	for i := range s.grids {
		s.grids[i].lanes = s.grids[i].lanes[:0]
		s.grids[i].idle = false
		s.gridFree = append(s.gridFree, int32(len(s.grids)-1-i))
	}
	s.idleGrids = s.idleGrids[:0]
	s.live = 0
	s.cdSlots = 0
}
