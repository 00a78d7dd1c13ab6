package sim

import (
	"fmt"
	"math"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"adhocsim/internal/obs"
)

// Exec runs a set of region schedulers in parallel under a conservative
// bounded time window — the space-partitioned parallel mode of the
// event kernel. Each region owns one Scheduler (all events of the
// stations inside it); cross-region influence travels as timestamped
// messages (Send → Scheduler.InjectAt).
//
// # Protocol
//
// Execution proceeds in windows separated by barriers. Each window:
//
//  1. Prep (parallel over regions): drain the region's inbox, inject
//     every received message into its scheduler in canonical
//     (at, sentAt, source, send-sequence) order, and publish the
//     region's next pending event time L.
//
//  2. Barrier — the published L values now form a consistent snapshot.
//
//  3. Execute (parallel over regions): each region runs events strictly
//     earlier than its horizon
//
//     min over every other region R of (L(R) + md(R, self))
//
//     where md is the all-pairs shortest-path closure of the
//     caller-supplied pairwise minimum influence delays
//     (phy.MinPropagationDelay over the regions' separation, for the
//     medium's partition), with md(R, R) the shortest delay cycle
//     through R. The region's own reflected influence is bounded
//     dynamically instead: each message it sends to region k with
//     timestamp a caps its window at a + md(k, self), since anything
//     the region does to itself must route through a send it actually
//     made. Until it sends, it owes nothing to itself and may burn
//     through its serial event stream — the difference between a
//     window advancing one event cluster and a window advancing a
//     whole inter-transmission stretch. Messages generated here are
//     appended to the destination inboxes for the next window's prep.
//
//  4. Barrier, and back to 1. The run ends when the global minimum of
//     the L values passes the run horizon.
//
// Safety: mid-window causation is purely local (messages wait for the
// next prep), so every event executed anywhere descends from an event
// that was pending in its own region at the snapshot. A message
// arriving at region i therefore closes an influence chain rooted
// either at some other region j's pending event at time ≥ L(j) — and
// every link of the chain costs at least its pairwise delay, so the
// message's timestamp is at least L(j) + md(j, i) ≥ horizon(i) — or at
// region i itself, in which case the chain's first cross-region hop is
// a message i actually sent, say to region k with timestamp a, and the
// return path costs at least md(k, i): the dynamic cap a + md(k, i)
// bounds exactly that. The dynamic cap is sound wherever the static
// self term L(i) + md(i, i) was (a ≥ L(i) + md(i, k), so the cap never
// drops below it) while being dramatically wider between sends — the
// static term capped every busy region at one closure-cycle (~2 µs)
// per window, which made windows one event cluster wide.
//
// The snapshot-at-a-barrier structure matters as much as the closure:
// horizons derived from asynchronously-published clocks can tear
// (region A's clock read before a message lowered it, region B's read
// after it advanced past the send), which lets a region run ahead of
// mail already addressed to it.
//
// # Determinism
//
// The executed event sequence of every region — and therefore every
// simulation result — is a pure function of the initial events and the
// message timestamps, independent of worker count and wall-clock
// interleaving: the window boundaries depend only on the L snapshot,
// which is itself deterministic, and each prep sorts its batch into the
// canonical order before injection, erasing arrival interleaving. The
// equivalence suite in internal/scenario pins this worker-count
// invariance bit-for-bit.
//
// # Termination
//
// Run(until) executes everything at or before until (matching
// Scheduler.RunUntil semantics, including events at exactly until) and
// leaves every region clock at exactly until. Messages timestamped
// after until still inject — they stay pending in their destination
// scheduler, and a later Run executes them, exactly as the sequential
// kernel carries directly-scheduled events across RunUntil slices (the
// CLI's -progress mode runs the horizon in 100 such slices).
type Exec struct {
	regions []*execRegion
	// md[from*len(regions)+to] is the minimum simulated time for
	// influence to travel between the two regions along ANY chain of
	// cross-region hops — the shortest-path closure of the pairwise
	// delays, in nanoseconds. Diagonal entries hold the shortest cycle
	// back to the region (the reflected-influence bound).
	md         []int64
	workers    int
	sequential bool
	until      time.Duration
	windowsRun uint64
	hooks      ExecObs
}

// ExecObs holds the executor's optional out-of-band timing hooks. The
// histograms are updated with single atomic adds and never read by the
// protocol, so enabling them cannot change a result; nil histograms
// cost one branch per window (wall) or per barrier crossing (wait).
type ExecObs struct {
	// WindowWall receives worker 0's wall-clock nanoseconds per full
	// window iteration (prep + barrier + execute + barrier).
	WindowWall *obs.Histogram
	// BarrierWait receives every worker's wall-clock nanoseconds spent
	// inside each barrier crossing — the direct measure of load
	// imbalance (idle workers wait; the straggler doesn't).
	BarrierWait *obs.Histogram
}

// SetObs installs the executor's timing hooks. Call between Runs only.
func (e *Exec) SetObs(h ExecObs) { e.hooks = h }

// execRegion is one region's execution state.
type execRegion struct {
	sched *Scheduler

	// next is the region's published next-pending-event time in
	// nanoseconds (math.MaxInt64 = nothing pending), written by the
	// owning worker during prep and read by every worker after the
	// window barrier — the barrier's happens-before edge makes the
	// plain field safe.
	next int64

	// mu guards inbox against concurrent senders during the execute
	// phase. The owner drains it in prep without the lock: the window
	// barrier orders every sender's append before the drain.
	mu    sync.Mutex
	inbox []regionMsg

	// Owner-only state (the goroutine currently servicing the region).
	//
	// out[k] buffers this region's messages to region k for the current
	// window: Send appends lock-free (only the owning worker sends from
	// this region), and the owner flushes each non-empty buffer into its
	// destination inbox in one locked append at the end of the window —
	// one lock acquisition per (source, destination) pair per window
	// instead of one per message.
	out        [][]regionMsg
	staged     []regionMsg
	freeGroups []*groupAction
	sends      uint64
	delivered  uint64
	// dirty marks that the region executed events last window, so its
	// published next time must be recomputed; clean regions with empty
	// inboxes skip prep entirely.
	dirty bool
	// cap is the region's dynamic reflected-influence bound for the
	// window being executed: min over its own sends of the message
	// timestamp plus the closure delay back from the destination.
	cap int64
}

// regionMsg is one cross-region message: run act at time at; the
// sending event executed at sentAt in region src as its srcSeq-th send.
type regionMsg struct {
	at     time.Duration
	sentAt time.Duration
	src    int32
	srcSeq uint64
	act    Action
}

// NewExec creates a parallel executor over n fresh region schedulers.
// delay(a, b) must return the minimum simulated time for influence to
// travel from region a to region b; it is captured into a matrix once.
func NewExec(n int, delay func(a, b int) time.Duration) *Exec {
	if n < 1 {
		panic(fmt.Sprintf("sim: exec needs at least one region, got %d", n))
	}
	e := &Exec{
		regions: make([]*execRegion, n),
		md:      make([]int64, n*n),
		workers: 1,
	}
	for i := range e.regions {
		e.regions[i] = &execRegion{sched: NewScheduler(), next: infClock, out: make([][]regionMsg, n)}
	}
	for a := 0; a < n; a++ {
		for b := 0; b < n; b++ {
			if a == b {
				e.md[a*n+b] = infClock
				continue
			}
			d := delay(a, b)
			if d <= 0 {
				panic(fmt.Sprintf("sim: non-positive lookahead %v between regions %d and %d", d, a, b))
			}
			e.md[a*n+b] = int64(d)
		}
	}
	// Floyd–Warshall closure: chains through intermediate regions can
	// undercut a direct delay, and the diagonal picks up the shortest
	// return cycle — with one region there is none, and the lone
	// diagonal entry stays infinite (nothing to reflect off).
	for k := 0; k < n; k++ {
		for a := 0; a < n; a++ {
			ak := e.md[a*n+k]
			if ak == infClock {
				continue
			}
			for b := 0; b < n; b++ {
				kb := e.md[k*n+b]
				if kb == infClock {
					continue
				}
				if v := ak + kb; v < e.md[a*n+b] {
					e.md[a*n+b] = v
				}
			}
		}
	}
	return e
}

// Regions returns the region count.
func (e *Exec) Regions() int { return len(e.regions) }

// Sched returns region i's scheduler. Everything owned by region i
// (its stations' MAC timers, radio edges, application ticks) must be
// scheduled here and nowhere else.
func (e *Exec) Sched(i int) *Scheduler { return e.regions[i].sched }

// Now returns the common simulated time. Region clocks only diverge
// inside Run; between runs they all sit at the last horizon.
func (e *Exec) Now() time.Duration { return e.regions[0].sched.Now() }

// Windows returns the number of barrier windows executed across all
// Runs so far — the executor's main overhead metric (each window costs
// two barrier crossings plus a prep sweep).
func (e *Exec) Windows() uint64 { return e.windowsRun }

// Fired returns the total number of events executed across all regions.
// Messages injected at the same instant from the same send time fire as
// one pooled group event (see prep), so this undercounts the individual
// cross-region actions; Messages counts those.
func (e *Exec) Fired() uint64 {
	var n uint64
	for _, r := range e.regions {
		n += r.sched.Fired()
	}
	return n
}

// Messages returns the total cross-region messages delivered into
// region schedulers across all Runs so far — the executor's boundary
// traffic metric (each message is one canonical-sort entry and at most
// one injected event).
func (e *Exec) Messages() uint64 {
	var n uint64
	for _, r := range e.regions {
		n += r.delivered
	}
	return n
}

// RegionFired returns the per-region executed event counts, indexed by
// region. max/mean over it is the executor's load-balance factor: how
// far the busiest region's event share sits above a perfectly even
// partition.
func (e *Exec) RegionFired() []uint64 {
	out := make([]uint64, len(e.regions))
	for i, r := range e.regions {
		out[i] = r.sched.Fired()
	}
	return out
}

// Workers returns the configured worker count (after SetWorkers's
// clamping) — diagnostic only; results never depend on it.
func (e *Exec) Workers() int { return e.workers }

// SetWorkers sets the goroutine count for subsequent Runs. Values below
// 1 or above the region count are clamped. The result of a Run does not
// depend on the worker count — that invariance is the mode's central
// test surface.
func (e *Exec) SetWorkers(n int) {
	if n < 1 {
		n = 1
	}
	if n > len(e.regions) {
		n = len(e.regions)
	}
	e.workers = n
}

// SetSequential forces (true) or releases (false) the single-goroutine
// reference path: Run services all regions from the calling goroutine
// under the identical window protocol. It is the parallel kernel's
// verification escape hatch: equivalence tests and fuzz targets run the
// same seed both ways and require byte-identical results, which
// separates executor races from protocol bugs. Production callers never
// need it.
func (e *Exec) SetSequential(on bool) { e.sequential = on }

// Send delivers act to region to at absolute simulated time at. It must
// be called from an event executing on region from's scheduler (the
// send time is read from that scheduler's clock). Messages timestamped
// after the current Run's horizon are still delivered — they inject as
// pending events a later Run picks up, exactly as the sequential kernel
// leaves directly-scheduled events pending across RunUntil slices (a
// sliced parallel run must agree with a sliced sequential one). Safe
// for concurrent use by distinct sending regions: the message lands in
// the source region's per-destination outbox and crosses into the
// destination inbox at the window flush.
func (e *Exec) Send(from, to int, at time.Duration, act Action) {
	src := e.regions[from]
	seq := src.sends
	src.sends++
	// Reflections of this message can land back home no earlier than
	// its own timestamp plus the closure delay from the destination.
	if back := e.md[to*len(e.regions)+from]; back != infClock && int64(at)+back < src.cap {
		src.cap = int64(at) + back
	}
	src.out[to] = append(src.out[to], regionMsg{at: at, sentAt: src.sched.Now(), src: int32(from), srcSeq: seq, act: act})
}

// flush hands region src's buffered outgoing messages to their
// destination inboxes, one locked append per destination. Runs on the
// owner at the end of each window's execute phase, before the barrier
// that publishes the appends to the next prep.
func (e *Exec) flush(src *execRegion) {
	for to, msgs := range src.out {
		if len(msgs) == 0 {
			continue
		}
		dst := e.regions[to]
		dst.mu.Lock()
		dst.inbox = append(dst.inbox, msgs...)
		dst.mu.Unlock()
		for i := range msgs {
			msgs[i].act = nil
		}
		src.out[to] = msgs[:0]
	}
}

// Run executes every region's events through simulated time until
// (inclusive, matching Scheduler.RunUntil) and leaves every region
// clock at exactly until.
func (e *Exec) Run(until time.Duration) {
	if until < e.Now() {
		panic(fmt.Sprintf("sim: exec Run(%v) before now %v", until, e.Now()))
	}
	e.until = until
	// Events may have been scheduled directly on region schedulers since
	// the last Run; force a full first prep so every published next time
	// is fresh.
	for _, r := range e.regions {
		r.dirty = true
	}
	workers := e.workers
	if e.sequential || len(e.regions) == 1 {
		workers = 1
	}
	if workers <= 1 {
		e.windows(0, 1, nil)
	} else {
		bar := newBarrier(workers)
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				e.windows(w, workers, bar)
			}(w)
		}
		wg.Wait()
	}
	for _, r := range e.regions {
		r.sched.RunUntil(until)
	}
}

const infClock = int64(math.MaxInt64)

// windows is one worker's run loop: it services regions w, w+stride,
// w+2·stride, … through the window protocol until the global minimum
// pending time passes the horizon. All workers compute the same global
// minimum from the same snapshot, so they exit the same window
// together; bar is nil on the single-worker path, where the barriers
// are trivially unnecessary.
func (e *Exec) windows(w, stride int, bar *barrier) {
	n := len(e.regions)
	until := int64(e.until)
	for {
		timeWin := w == 0 && e.hooks.WindowWall != nil
		var winStart time.Time
		if timeWin {
			winStart = time.Now()
		}
		if w == 0 {
			e.windowsRun++
		}
		for i := w; i < n; i += stride {
			e.prep(e.regions[i])
		}
		if bar != nil {
			e.barWait(bar)
		}
		g := infClock
		for _, r := range e.regions {
			if r.next < g {
				g = r.next
			}
		}
		if g > until {
			return
		}
		for i := w; i < n; i += stride {
			r := e.regions[i]
			horizon := infClock
			for j := 0; j < n; j++ {
				if j == i {
					continue // self-influence is the dynamic cap's job
				}
				l := e.regions[j].next
				d := e.md[j*n+i]
				if d == infClock || l > infClock-d {
					continue // effectively infinite
				}
				if v := l + d; v < horizon {
					horizon = v
				}
			}
			if r.next >= horizon {
				continue // nothing runnable; not even worth a peek
			}
			r.cap = infClock
			for {
				t, ok := r.sched.PeekAt()
				// r.cap shrinks as the events executed here send, so it
				// is re-read every iteration.
				if !ok || int64(t) >= horizon || int64(t) >= r.cap || int64(t) > until {
					break
				}
				r.sched.Step()
				r.dirty = true
			}
			if r.dirty {
				e.flush(r)
			}
		}
		if bar != nil {
			e.barWait(bar)
		}
		if timeWin {
			e.hooks.WindowWall.Observe(uint64(time.Since(winStart)))
		}
	}
}

// barWait crosses the window barrier, optionally timing the wait into
// the BarrierWait histogram. The observation happens after the crossing
// completes, so it never delays the workers the barrier releases.
func (e *Exec) barWait(bar *barrier) {
	h := e.hooks.BarrierWait
	if h == nil {
		bar.wait()
		return
	}
	t := time.Now()
	bar.wait()
	h.Observe(uint64(time.Since(t)))
}

// prep readies a region for the next window: drain the inbox, inject
// the batch in canonical order, publish the next pending time. The sort
// erases the wall-clock interleaving of concurrent senders — the
// injected order (and the heap insertion order breaking exact
// (at, sentAt) ties) is a pure function of the message set.
//
// Messages agreeing on both timestamp and send time coalesce into one
// pooled group event. That is exactly order-preserving, not just
// deterministic: an injected event's queue key is (at, sentAt-derived
// sub, insertion seq), so the members of such a run would fire
// back-to-back anyway — no local event can hold a key strictly between
// two identical (at, sub) pairs, and any same-keyed later injection
// gets a later insertion seq. Running the members inside one event in
// canonical order reproduces the exact same action sequence while
// firing (and paying for) one scheduler event instead of one per
// message. The steady path allocates nothing: staged and the group
// pool recycle, and the comparison-function sort has no reflection.
func (e *Exec) prep(r *execRegion) {
	// Reading inbox without the lock is safe here: senders only append
	// during the execute phase, and the window barrier orders all of
	// those appends before this prep. A clean region with no mail has
	// nothing to do — its published next time is still exact.
	if !r.dirty && len(r.inbox) == 0 {
		return
	}
	r.dirty = false
	if len(r.inbox) > 0 {
		r.staged = append(r.staged[:0], r.inbox...)
		r.inbox = r.inbox[:0]
	}
	if len(r.staged) > 0 {
		r.delivered += uint64(len(r.staged))
		slices.SortFunc(r.staged, func(x, y regionMsg) int {
			if x.at != y.at {
				if x.at < y.at {
					return -1
				}
				return 1
			}
			if x.sentAt != y.sentAt {
				if x.sentAt < y.sentAt {
					return -1
				}
				return 1
			}
			if x.src != y.src {
				return int(x.src) - int(y.src)
			}
			if x.srcSeq != y.srcSeq {
				if x.srcSeq < y.srcSeq {
					return -1
				}
				return 1
			}
			return 0
		})
		for i := 0; i < len(r.staged); {
			m := &r.staged[i]
			j := i + 1
			for j < len(r.staged) && r.staged[j].at == m.at && r.staged[j].sentAt == m.sentAt {
				j++
			}
			if j == i+1 {
				r.sched.InjectAt(m.at, m.sentAt, m.act)
			} else {
				g := r.newGroup()
				for k := i; k < j; k++ {
					g.acts = append(g.acts, r.staged[k].act)
				}
				r.sched.InjectAt(m.at, m.sentAt, g)
			}
			i = j
		}
		for i := range r.staged {
			r.staged[i].act = nil
		}
		r.staged = r.staged[:0]
	}
	r.next = infClock
	if t, ok := r.sched.PeekAt(); ok {
		r.next = int64(t)
	}
}

// groupAction is a pooled batch of same-instant, same-send-time message
// actions, fired as one scheduler event and run in canonical order. It
// returns itself to its region's pool after firing; both the allocation
// (prep) and the firing (execute) happen on the region's owner, so the
// pool needs no lock.
type groupAction struct {
	r    *execRegion
	acts []Action
}

func (r *execRegion) newGroup() *groupAction {
	if n := len(r.freeGroups); n > 0 {
		g := r.freeGroups[n-1]
		r.freeGroups = r.freeGroups[:n-1]
		return g
	}
	return &groupAction{r: r}
}

func (g *groupAction) Act() {
	for i, a := range g.acts {
		a.Act()
		g.acts[i] = nil
	}
	g.acts = g.acts[:0]
	g.r.freeGroups = append(g.r.freeGroups, g)
}

// barrier is a reusable sense-reversing barrier for the window loop:
// the last arriving worker flips the generation; the others spin
// briefly (windows are microseconds apart), yield the processor a few
// times, and then park on the condvar. The spin budget is zero when the
// machine has fewer processors than workers — spinning there steals
// the very core the straggler needs, turning each window into a full
// scheduler quantum. The atomic generation flip is the happens-before
// edge that publishes each worker's plain writes (region next fields,
// scheduler state, inbox drains) to every other worker.
type barrier struct {
	n     int32
	spin  int
	count atomic.Int32
	gen   atomic.Uint32

	mu   sync.Mutex
	cond *sync.Cond
}

func newBarrier(n int) *barrier {
	b := &barrier{n: int32(n)}
	if runtime.GOMAXPROCS(0) >= n {
		b.spin = 4096
	}
	b.cond = sync.NewCond(&b.mu)
	return b
}

func (b *barrier) wait() {
	gen := b.gen.Load()
	if b.count.Add(1) == b.n {
		b.count.Store(0)
		b.mu.Lock()
		b.gen.Add(1)
		b.cond.Broadcast()
		b.mu.Unlock()
		return
	}
	for spins := 0; spins < b.spin; spins++ {
		if b.gen.Load() != gen {
			return
		}
	}
	for yields := 0; yields < 4; yields++ {
		runtime.Gosched()
		if b.gen.Load() != gen {
			return
		}
	}
	b.mu.Lock()
	for b.gen.Load() == gen {
		b.cond.Wait()
	}
	b.mu.Unlock()
}
