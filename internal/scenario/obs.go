package scenario

import (
	"time"

	"adhocsim/internal/medium"
	"adhocsim/internal/obs"
	"adhocsim/internal/sim"
)

// This file is the scenario layer's bridge between the kernel's plain
// out-of-band counters and the obs registry's atomics. The kernels keep
// their counters as ordinary fields (owned by one goroutine — free to
// bump, impossible to contend on); a publisher flushes the *deltas*
// into registry counters at barrier-safe points: after every Run slice
// of a metered run, at Collect, and after each replication. Scrapers
// read only registry atomics, so a /metrics request mid-run observes a
// slightly stale but perfectly race-free view, and never touches — let
// alone perturbs — simulation state. Only genuinely low-frequency or
// already-concurrent paths (exec window/barrier histograms, fault
// edges, per-replication wall times) write the atomics directly.

// obsPub publishes one instance's kernel counters into a registry. A
// nil *obsPub (observability off) makes every method a no-op.
type obsPub struct {
	reg *obs.Registry

	simFired, simPushes        *obs.Counter
	simAppends, simCountdown   *obs.Counter
	simMarks                   *obs.Counter
	execWindows, execMessages  *obs.Counter
	medTx, medDeliv, medPHYErr *obs.Counter
	gainHits, gainMisses       *obs.Counter
	fanReplays, fanBuilds      *obs.Counter
	candReuses, candRebuilds   *obs.Counter
	soaRescans, fadeCuts       *obs.Counter
	gainEntries                *obs.Gauge

	windowWall, barrierWait *obs.Histogram

	crashes, restarts       *obs.Counter
	outageStarts, outageEnd *obs.Counter
	planned                 [4]*obs.Counter

	// last holds the absolute kernel counts already published, so
	// repeated publishes (every progress slice) add only the increments
	// and several instances can share one registry.
	last kernelCounts
}

// kernelCounts is one coherent reading of every counter the publisher
// mirrors. All sources are monotone between rebases.
type kernelCounts struct {
	sched             sim.Stats
	med               medium.Stats
	windows, messages uint64
}

func newObsPub(reg *obs.Registry) *obsPub {
	if reg == nil {
		return nil
	}
	return &obsPub{
		reg:          reg,
		simFired:     reg.Counter("sim_events_fired_total", "events executed across all schedulers"),
		simPushes:    reg.Counter("sim_queue_pushes_total", "event-queue insertions"),
		simAppends:   reg.Counter("sim_fifo_appends_total", "event-queue insertions filed in a constant-delay FIFO instead of the heap"),
		simCountdown: reg.Counter("sim_countdown_slots_total", "backoff slot boundaries crossed without a heap event"),
		simMarks:     reg.Counter("sim_marks_total", "IFS waits at quiet stations reserved as marks instead of queued as events"),
		execWindows:  reg.Counter("exec_windows_total", "parallel executor barrier windows run"),
		execMessages: reg.Counter("exec_messages_total", "cross-region messages delivered into region schedulers"),
		medTx:        reg.Counter("medium_transmissions_total", "frames put on the air"),
		medDeliv:     reg.Counter("medium_deliveries_total", "frames decoded by a receiver"),
		medPHYErr:    reg.Counter("medium_phy_errors_total", "receptions lost to SINR/PHY errors"),
		gainHits:     reg.Counter("medium_gain_cache_hits_total", "link-gain lookups whose path-loss base came from the cache"),
		gainMisses:   reg.Counter("medium_gain_cache_misses_total", "link-gain lookups that recomputed the path-loss base"),
		fanReplays:   reg.Counter("medium_fanout_replays_total", "transmissions replayed from the fan-out memo"),
		fanBuilds:    reg.Counter("medium_fanout_builds_total", "transmissions that walked candidates and rebuilt the memo"),
		candReuses:   reg.Counter("medium_candidate_reuses_total", "candidate-memo reuses (index walk skipped)"),
		candRebuilds: reg.Counter("medium_candidate_rebuilds_total", "candidate-memo rebuilds after geometry changes"),
		soaRescans:   reg.Counter("medium_soa_rescans_total", "arrival-list energy-fold rebuilds at trailing edges"),
		fadeCuts:     reg.Counter("medium_fade_cuts_total", "link evaluations the fade cut rejected before the draw (a link rejected again within one epoch counts again)"),
		gainEntries:  reg.Gauge("medium_gain_cache_entries", "link-gain entries the transmitters' gain rows hold"),
		windowWall:   reg.Histogram("exec_window_wall_ns", "wall nanoseconds per executor window (worker 0)"),
		barrierWait:  reg.Histogram("exec_barrier_wait_ns", "wall nanoseconds each worker waits per barrier crossing"),
		crashes:      reg.Counter("faults_crashes_applied_total", "station crash edges applied"),
		restarts:     reg.Counter("faults_restarts_applied_total", "station restart edges applied"),
		outageStarts: reg.Counter("faults_outage_starts_applied_total", "flow outage start edges applied"),
		outageEnd:    reg.Counter("faults_outage_ends_applied_total", "flow outage end edges applied"),
		planned: [4]*obs.Counter{
			reg.Counter("faults_crashes_planned_total", "station crash edges compiled into schedules"),
			reg.Counter("faults_restarts_planned_total", "station restart edges compiled into schedules"),
			reg.Counter("faults_outage_starts_planned_total", "flow outage start edges compiled into schedules"),
			reg.Counter("faults_outage_ends_planned_total", "flow outage end edges compiled into schedules"),
		},
	}
}

// attach installs the hooks that must write the registry directly: the
// executor's window/barrier histograms (atomic observes from worker
// goroutines; out-of-band by construction).
func (p *obsPub) attach(inst *Instance) {
	if p == nil || inst.Net.Exec == nil {
		return
	}
	inst.Net.Exec.SetObs(sim.ExecObs{WindowWall: p.windowWall, BarrierWait: p.barrierWait})
}

func (p *obsPub) gather(inst *Instance) kernelCounts {
	c := kernelCounts{sched: inst.Net.KernelStats(), med: inst.Net.Medium.Stats()}
	if inst.Net.Exec != nil {
		c.windows = inst.Net.Exec.Windows()
		c.messages = inst.Net.Exec.Messages()
	}
	return c
}

// dsub is a saturating delta: if the kernel counters rewound under us
// (a Reset without a rebase), treat the current value as fresh growth
// rather than underflowing.
func dsub(cur, last uint64) uint64 {
	if cur < last {
		return cur
	}
	return cur - last
}

// publish flushes the growth since the previous publish into the
// registry. Call only from the driving goroutine at a point where no
// region worker is running (after Run/Run-slice returns) — the same
// discipline FoldCounters and KernelStats already require.
func (p *obsPub) publish(inst *Instance) {
	if p == nil {
		return
	}
	cur := p.gather(inst)
	p.simFired.Add(dsub(cur.sched.Fired, p.last.sched.Fired))
	p.simPushes.Add(dsub(cur.sched.Pushes, p.last.sched.Pushes))
	p.simAppends.Add(dsub(cur.sched.FIFOAppends, p.last.sched.FIFOAppends))
	p.simCountdown.Add(dsub(cur.sched.CountdownSlots, p.last.sched.CountdownSlots))
	p.simMarks.Add(dsub(cur.sched.Marks, p.last.sched.Marks))
	p.execWindows.Add(dsub(cur.windows, p.last.windows))
	p.execMessages.Add(dsub(cur.messages, p.last.messages))
	p.medTx.Add(dsub(cur.med.Transmissions, p.last.med.Transmissions))
	p.medDeliv.Add(dsub(cur.med.Deliveries, p.last.med.Deliveries))
	p.medPHYErr.Add(dsub(cur.med.PHYErrors, p.last.med.PHYErrors))
	p.gainHits.Add(dsub(cur.med.GainHits, p.last.med.GainHits))
	p.gainMisses.Add(dsub(cur.med.GainMisses, p.last.med.GainMisses))
	p.fanReplays.Add(dsub(cur.med.FanReplays, p.last.med.FanReplays))
	p.fanBuilds.Add(dsub(cur.med.FanBuilds, p.last.med.FanBuilds))
	p.candReuses.Add(dsub(cur.med.CandReuses, p.last.med.CandReuses))
	p.candRebuilds.Add(dsub(cur.med.CandRebuilds, p.last.med.CandRebuilds))
	p.soaRescans.Add(dsub(cur.med.SoARescans, p.last.med.SoARescans))
	p.fadeCuts.Add(dsub(cur.med.FadeCuts, p.last.med.FadeCuts))
	p.gainEntries.Set(float64(cur.med.GainEntries))
	p.last = cur
}

// rebase re-reads the kernel counters as the new baseline without
// publishing — call right after a Reset rewinds them to zero.
func (p *obsPub) rebase(inst *Instance) {
	if p == nil {
		return
	}
	p.last = p.gather(inst)
}

// faultCounters hands the fault wiring its applied-edge counters,
// indexed by faults.Kind. All nil when observability is off; the
// closures then pay one nil check per fired edge.
func (p *obsPub) faultCounters() [4]*obs.Counter {
	if p == nil {
		return [4]*obs.Counter{}
	}
	return [4]*obs.Counter{p.crashes, p.restarts, p.outageStarts, p.outageEnd}
}

// notePlanned records a freshly compiled fault schedule's executable
// event counts by kind (faults.Schedule.EventCounts order) — the
// planned side of the planned-vs-applied pair a report compares.
func (p *obsPub) notePlanned(counts [4]int) {
	if p == nil {
		return
	}
	for k, n := range counts {
		p.planned[k].Add(uint64(n))
	}
}

// wireTracer hands every MAC and every router a tracer handle bound to
// its own station's clock (the region scheduler's in parallel mode).
// Idempotent; Build and Reset both call it after the routers exist.
func (inst *Instance) wireTracer() {
	tr := inst.Spec.Tracer
	if tr == nil {
		return
	}
	for _, st := range inst.Net.Stations {
		st.MAC.SetTracer(tr.WithClock(st.Sched.Now))
	}
	for i, r := range inst.routers {
		r.SetTracer(tr.WithClock(inst.Net.Stations[i].Sched.Now))
	}
}

// Obs returns the registry this instance publishes into, nil when
// observability is off. With Spec.Obs enabled but no Spec.ObsRegistry,
// Build created it — this is how callers reach the report data.
func (inst *Instance) Obs() *obs.Registry {
	if inst.pub == nil {
		return nil
	}
	return inst.pub.reg
}

// PublishObs flushes the instance's kernel counters into its registry
// (no-op when observability is off). Runners driving Net directly can
// call it at any post-Run point to freshen a live /metrics view;
// Collect calls it automatically.
func (inst *Instance) PublishObs() { inst.pub.publish(inst) }

// runnerObs bundles the replication-harness metrics: per-replication
// wall time, recovered panics, replication count, and the sweep's
// worker utilization. All handles are nil (no-ops) when obs is off.
type runnerObs struct {
	repWall     *obs.Histogram
	reps        *obs.Counter
	panics      *obs.Counter
	utilization *obs.Gauge
	workers     *obs.Gauge
}

func newRunnerObs(reg *obs.Registry) runnerObs {
	if reg == nil {
		return runnerObs{}
	}
	return runnerObs{
		repWall:     reg.Histogram("runner_rep_wall_ns", "wall nanoseconds per replication"),
		reps:        reg.Counter("runner_reps_total", "replications completed"),
		panics:      reg.Counter("runner_panics_recovered_total", "replication panics recovered by the harness"),
		utilization: reg.Gauge("runner_worker_utilization", "busy fraction of the replication workers over the last sweep"),
		workers:     reg.Gauge("runner_workers", "replication worker count of the last sweep"),
	}
}

// onJobDone returns the runner.Config hook recording one replication's
// wall time, or nil when obs is off (keeping the runner's hot loop
// branch-free). Safe for concurrent calls: every update is atomic.
func (ro runnerObs) onJobDone() func(i int, wall time.Duration, panicked bool) {
	if ro.repWall == nil {
		return nil
	}
	return func(_ int, wall time.Duration, panicked bool) {
		ro.repWall.Observe(uint64(wall))
		ro.reps.Inc()
		if panicked {
			ro.panics.Inc()
		}
	}
}

// noteSweep records a finished sweep's worker utilization: the summed
// per-replication busy time against workers × elapsed wall time.
func (ro runnerObs) noteSweep(workers int, elapsed time.Duration) {
	if ro.utilization == nil || workers <= 0 || elapsed <= 0 {
		return
	}
	busy := time.Duration(ro.repWall.Sum())
	u := float64(busy) / (float64(workers) * float64(elapsed))
	if u > 1 {
		u = 1
	}
	ro.workers.Set(float64(workers))
	ro.utilization.Set(u)
}
