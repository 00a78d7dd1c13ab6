package sim

import (
	"fmt"
	"sync"
	"testing"
	"time"
)

const execTestDelay = time.Microsecond

// uniformExec builds an n-region executor with a uniform pairwise
// delay, the shape the medium's partition produces on compact fields.
func uniformExec(n int) *Exec {
	return NewExec(n, func(a, b int) time.Duration { return execTestDelay })
}

// execLog is a per-region event log; regions append owner-only during a
// run, so reading after Run needs no locking.
type execLog struct {
	mu      sync.Mutex
	entries []string
}

func (l *execLog) add(format string, args ...any) {
	l.mu.Lock()
	l.entries = append(l.entries, fmt.Sprintf(format, args...))
	l.mu.Unlock()
}

func TestNewExecValidation(t *testing.T) {
	mustPanic := func(name string, fn func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s: no panic", name)
			}
		}()
		fn()
	}
	mustPanic("zero regions", func() { NewExec(0, nil) })
	mustPanic("non-positive delay", func() {
		NewExec(2, func(a, b int) time.Duration { return 0 })
	})
}

// TestExecClosure pins the Floyd–Warshall closure: a chain through an
// intermediate region undercuts a slow direct link, and the diagonal
// holds the shortest return cycle.
func TestExecClosure(t *testing.T) {
	// 0 -1µs- 1 -1µs- 2, but 0-2 direct costs 10µs.
	d := func(a, b int) time.Duration {
		if a+b == 2 && a != 1 { // the 0-2 pair
			return 10 * time.Microsecond
		}
		return time.Microsecond
	}
	e := NewExec(3, d)
	us := int64(time.Microsecond)
	for _, tc := range []struct {
		a, b int
		want int64
	}{
		{0, 1, us}, {1, 0, us}, {1, 2, us},
		{0, 2, 2 * us}, // via region 1, undercutting the 10µs direct link
		{0, 0, 2 * us}, // shortest cycle: 0→1→0
		{1, 1, 2 * us},
	} {
		if got := e.md[tc.a*3+tc.b]; got != tc.want {
			t.Errorf("md(%d,%d) = %d, want %d", tc.a, tc.b, got, tc.want)
		}
	}
	if got := NewExec(1, nil).md[0]; got != infClock {
		t.Errorf("single-region diagonal = %d, want infinite (nothing to reflect off)", got)
	}
}

func TestExecSetWorkersClamps(t *testing.T) {
	e := uniformExec(3)
	for _, tc := range []struct{ set, want int }{
		{0, 1}, {-5, 1}, {2, 2}, {3, 3}, {100, 3},
	} {
		e.SetWorkers(tc.set)
		if e.workers != tc.want {
			t.Errorf("SetWorkers(%d): workers = %d, want %d", tc.set, e.workers, tc.want)
		}
	}
}

// TestExecSingleRegion pins the degenerate partition: one region must
// behave exactly like its scheduler run directly.
func TestExecSingleRegion(t *testing.T) {
	e := uniformExec(1)
	var log execLog
	e.Sched(0).At(time.Millisecond, func() { log.add("a") })
	e.Sched(0).At(2*time.Millisecond, func() { log.add("b") })
	e.Sched(0).At(3*time.Millisecond, func() { log.add("late") })
	e.Run(2 * time.Millisecond)
	if got := fmt.Sprint(log.entries); got != "[a b]" {
		t.Errorf("executed %v, want [a b] (the 3ms event is past the horizon)", log.entries)
	}
	if e.Now() != 2*time.Millisecond {
		t.Errorf("Now() = %v, want 2ms", e.Now())
	}
	if e.Fired() != 2 {
		t.Errorf("Fired() = %d, want 2", e.Fired())
	}
	e.Run(3 * time.Millisecond)
	if got := fmt.Sprint(log.entries); got != "[a b late]" {
		t.Errorf("after second Run executed %v, want [a b late]", log.entries)
	}
}

// TestExecRunBackwardsPanics matches Scheduler.RunUntil's contract.
func TestExecRunBackwardsPanics(t *testing.T) {
	e := uniformExec(2)
	e.Run(time.Millisecond)
	defer func() {
		if recover() == nil {
			t.Error("Run into the past: no panic")
		}
	}()
	e.Run(time.Microsecond)
}

// pingPong wires the reflected-influence regression: region 0 sends a
// ping whose reply must land back home BEFORE region 0's own later
// event — the executor must not let region 0 race past the reply's
// timestamp in the window where it sent the ping (that exact race was
// an InjectAt panic in an earlier protocol without the return-cycle
// bound).
func TestExecReflectedInfluence(t *testing.T) {
	for _, workers := range []int{1, 2} {
		e := uniformExec(2)
		e.SetWorkers(workers)
		var log execLog
		e.Sched(0).At(0, func() {
			log.add("ping@%v", e.Sched(0).Now())
			e.Send(0, 1, execTestDelay, actionFunc(func() {
				log.add("pong@%v", e.Sched(1).Now())
				e.Send(1, 0, 2*execTestDelay, actionFunc(func() {
					log.add("reply@%v", e.Sched(0).Now())
				}))
			}))
		})
		e.Sched(0).At(5*execTestDelay, func() { log.add("local@%v", e.Sched(0).Now()) })
		e.Run(time.Millisecond)
		want := "[ping@0s pong@1µs reply@2µs local@5µs]"
		if got := fmt.Sprint(log.entries); got != want {
			t.Errorf("workers=%d: executed %v, want %v", workers, log.entries, want)
		}
	}
}

// actionFunc adapts a closure to sim.Action for exec tests.
type actionFunc func()

func (f actionFunc) Act() { f() }

// TestExecSendCanonicalOrder pins the canonical message ordering: two
// regions send to a third at one instant; whatever the wall-clock
// interleaving, the receiver must run the messages ordered by (send
// time, source region, send sequence).
func TestExecSendCanonicalOrder(t *testing.T) {
	for _, workers := range []int{1, 3} {
		e := uniformExec(3)
		e.SetWorkers(workers)
		var log execLog
		at := 10 * execTestDelay
		// Region 1 sends twice from one event (sequence order), region 0
		// once from an earlier send time; all land at region 2 at `at`.
		e.Sched(1).At(2*execTestDelay, func() {
			e.Send(1, 2, at, actionFunc(func() { log.add("r1-first") }))
			e.Send(1, 2, at, actionFunc(func() { log.add("r1-second") }))
		})
		e.Sched(0).At(execTestDelay, func() {
			e.Send(0, 2, at, actionFunc(func() { log.add("r0") }))
		})
		e.Run(time.Millisecond)
		want := "[r0 r1-first r1-second]"
		if got := fmt.Sprint(log.entries); got != want {
			t.Errorf("workers=%d: receiver ran %v, want %v", workers, log.entries, want)
		}
	}
}

// TestExecDefersPastHorizon pins the cross-Run message rule: a message
// timestamped after the current Run's horizon is not executed by that
// Run (every clock still lands exactly on the horizon), but it is not
// lost either — a later Run covering its timestamp executes it, exactly
// as the sequential kernel carries pending events across RunUntil
// slices. Sliced drives (the CLI's -progress mode) depend on this.
func TestExecDefersPastHorizon(t *testing.T) {
	e := uniformExec(2)
	var log execLog
	e.Sched(0).At(time.Microsecond, func() {
		e.Send(0, 1, time.Millisecond, actionFunc(func() { log.add("deferred@%v", e.Sched(1).Now()) }))
	})
	e.Run(10 * time.Microsecond)
	if len(log.entries) != 0 {
		t.Errorf("message past the horizon executed early: %v", log.entries)
	}
	for i := 0; i < 2; i++ {
		if now := e.Sched(i).Now(); now != 10*time.Microsecond {
			t.Errorf("region %d clock = %v, want 10µs", i, now)
		}
	}
	e.Run(time.Millisecond)
	if got := fmt.Sprint(log.entries); got != "[deferred@1ms]" {
		t.Errorf("after the covering Run executed %v, want [deferred@1ms]", log.entries)
	}
}

// TestExecGroupsSameInstantMessages pins the pooled group injection:
// messages agreeing on (at, sentAt) fire as ONE scheduler event while
// running their actions in canonical source order, and the message
// counter still counts them individually.
func TestExecGroupsSameInstantMessages(t *testing.T) {
	e := uniformExec(3)
	var log execLog
	at := 10 * execTestDelay
	// Regions 0 and 1 each send from events at the same instant, so all
	// four messages share (at, sentAt) and must coalesce; region 2's own
	// local marker at the same instant fires separately.
	for _, from := range []int{0, 1} {
		from := from
		e.Sched(from).At(execTestDelay, func() {
			e.Send(from, 2, at, actionFunc(func() { log.add("r%d-a", from) }))
			e.Send(from, 2, at, actionFunc(func() { log.add("r%d-b", from) }))
		})
	}
	e.Sched(2).At(at, func() { log.add("local") })
	e.Run(time.Millisecond)
	// Local events schedule with an even sub key below any injected
	// message's odd key at the same send time, so the marker runs first.
	want := "[local r0-a r0-b r1-a r1-b]"
	if got := fmt.Sprint(log.entries); got != want {
		t.Errorf("executed %v, want %v", log.entries, want)
	}
	if got := e.Messages(); got != 4 {
		t.Errorf("Messages() = %d, want 4", got)
	}
	// 3 source events + 1 local marker + 1 group event for the 4
	// coalesced messages... the two source regions fire one event each,
	// region 2 fires its marker plus the single group.
	if fired := e.Fired(); fired != 4 {
		t.Errorf("Fired() = %d, want 4 (two sends, one marker, one pooled group)", fired)
	}
}

// TestExecWorkerInvariance runs a pseudo-random relay storm at every
// worker count, one goroutine included: identical
// per-region execution logs (the executor's determinism guarantee is
// the event sequence of each region, not a global interleaving) and an
// identical window structure.
func TestExecWorkerInvariance(t *testing.T) {
	const regions = 4
	run := func(workers int) ([]string, uint64) {
		e := uniformExec(regions)
		e.SetWorkers(workers)
		// logs[i] is appended only by region i's events — owner-only, no
		// locking needed, and per-region order is what must not drift.
		logs := make([][]string, regions)
		src := NewSource(7)
		// Each region seeds a relay chain: on every hop the message
		// re-sends itself to a pseudo-random region a delay out, so the
		// run exercises many windows with crossing traffic.
		var hop func(from int, step uint64) Action
		hop = func(from int, step uint64) Action {
			return actionFunc(func() {
				logs[from] = append(logs[from], fmt.Sprintf("r%d@%v#%d", from, e.Sched(from).Now(), step))
				if step == 12 {
					return
				}
				to := int(src.Hash64(uint64(from), step) % regions)
				at := e.Sched(from).Now() + time.Duration(1+step%3)*execTestDelay
				e.Send(from, to, at, hop(to, step+1))
			})
		}
		for i := 0; i < regions; i++ {
			i := i
			e.Sched(i).At(time.Duration(i)*execTestDelay, func() { hop(i, 0).Act() })
		}
		e.Run(time.Millisecond)
		var flat []string
		for i, l := range logs {
			flat = append(flat, fmt.Sprintf("region%d:%v", i, l))
		}
		return flat, e.Windows()
	}
	want, wantWindows := run(1)
	for _, workers := range []int{2, 4} {
		if got, w := run(workers); fmt.Sprint(got) != fmt.Sprint(want) || w != wantWindows {
			t.Errorf("workers=%d: logs %v windows %d, want %v windows %d", workers, got, w, want, wantWindows)
		}
	}
}
