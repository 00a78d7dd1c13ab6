package scenario

import (
	"fmt"
	"runtime"
	"strings"
	"time"

	"adhocsim/internal/obs"
	"adhocsim/internal/runner"
)

// FlowSummary aggregates one flow's metrics over replications.
type FlowSummary struct {
	Flow int `json:"flow"`
	Src  int `json:"src"`
	// Dst is the flow's destination station. For a NearestDst flow on a
	// random topology every replication re-draws the field and re-pairs
	// the flow, so no single destination describes the aggregate; Dst is
	// then -1 and NearestDst is set (per-replication endpoints are in
	// Summary.Runs).
	Dst        int            `json:"dst"`
	NearestDst bool           `json:"nearest_dst,omitempty"`
	Transport  Transport      `json:"transport"`
	Kbps       runner.Summary `json:"kbps"`
	Retries    runner.Summary `json:"retries"`
	Gaps       runner.Summary `json:"gaps"`
	// Hops summarizes the MAC hop count the flow's packets actually
	// traveled (1 = direct link, 0 = nothing delivered that run).
	Hops runner.Summary `json:"hops"`

	// Graceful-degradation summaries, present only for UDP flows of
	// faulted scenarios (a "faults" block in the spec): delivery ratio
	// under churn, downtime-attributed loss, per-run mean and max route
	// recovery after each fault, and faults never recovered from.
	Delivery      *runner.Summary `json:"delivery_ratio,omitempty"`
	DowntimeLoss  *runner.Summary `json:"downtime_loss,omitempty"`
	RecoveryMs    *runner.Summary `json:"recovery_ms,omitempty"`
	RecoveryMaxMs *runner.Summary `json:"recovery_max_ms,omitempty"`
	Unrecovered   *runner.Summary `json:"unrecovered,omitempty"`
}

// StationSummary aggregates one station's network-layer activity over
// replications: relay load, drops, and routing control overhead.
type StationSummary struct {
	Station   int            `json:"station"`
	Forwarded runner.Summary `json:"forwarded"`
	Dropped   runner.Summary `json:"dropped"`
	CtlBytes  runner.Summary `json:"ctl_bytes"`

	// DownSecs and Crashes summarize the station's downtime under
	// faults; present only for faulted scenarios.
	DownSecs *runner.Summary `json:"down_secs,omitempty"`
	Crashes  *runner.Summary `json:"crashes,omitempty"`
}

// Summary aggregates a replicated scenario: per-flow goodput/retry/loss
// summaries plus the fairness index, each as mean ± 95% CI over the
// replications.
type Summary struct {
	Name         string `json:"name"`
	Replications int    `json:"replications"`
	// Routing names the route control plane, empty for classic
	// single-hop scenarios.
	Routing string        `json:"routing,omitempty"`
	Flows   []FlowSummary `json:"flows"`
	// Stations aggregates relay load and control overhead; populated
	// only for routed scenarios, where relaying exists to report on.
	Stations []StationSummary `json:"stations,omitempty"`
	Fairness runner.Summary   `json:"fairness"`
	// Exec reports the parallel kernel's execution plan and aggregate
	// counters when the sweep ran the space-partitioned kernel; nil for
	// sequential sweeps. It lives on the Summary, not on each Result:
	// the per-run Results stay byte-identical across kernels, which is
	// the equivalence contract the parallel tests pin.
	Exec *ExecSummary `json:"exec,omitempty"`
	// Runs holds the per-replication results in replication order.
	Runs []Result `json:"runs"`
}

// ExecSummary describes how a parallel sweep actually executed — the
// partition and the two-level worker split — plus the kernel's
// counters folded over the replications in replication order.
type ExecSummary struct {
	// Partitioner is the resolved cut-line placement ("balanced" or
	// "uniform"); Cols/Rows and Grid describe replication 0's fitted
	// region grid (random topologies re-draw positions per seed, which
	// moves the cut lines but not the auto-sized shape).
	Partitioner string `json:"partitioner"`
	Cols        int    `json:"cols"`
	Rows        int    `json:"rows"`
	Grid        string `json:"grid"`
	// RegionWorkers drive regions inside each replication;
	// ReplicationWorkers run replications concurrently. Neither
	// affects results — only wall-clock.
	RegionWorkers      int `json:"region_workers"`
	ReplicationWorkers int `json:"replication_workers"`
	// Windows counts barrier-separated lookahead windows and Messages
	// cross-region message deliveries, both summed over replications.
	Windows  uint64 `json:"windows"`
	Messages uint64 `json:"messages"`
	// RegionFired is the per-region events-fired histogram summed over
	// replications (row-major region order); LoadBalance is its
	// max/mean ratio — 1.0 is a perfectly even partition.
	RegionFired []uint64 `json:"region_fired"`
	LoadBalance float64  `json:"load_balance"`
}

// Plan renders the execution plan as the one-line human summary the
// CLI prints under -progress.
func (e *ExecSummary) Plan() string {
	return fmt.Sprintf("parallel plan: %s (%s partitioner), %d region worker(s) x %d replication worker(s)",
		e.Grid, e.Partitioner, e.RegionWorkers, e.ReplicationWorkers)
}

// Replicate runs reps independently seeded copies of the spec across
// workers goroutines (0 = all CPUs) and aggregates per-flow metrics.
// Replication 0 reuses the spec's own seed, so a single-replication
// summary wraps exactly the result of Run(spec). The aggregate is
// bit-identical for any worker count.
//
// Each worker builds the network once and re-seeds it per replication
// (Instance.Reset), so a sweep pays the O(stations²) construction cost
// per worker, not per replication. Specs with a MACHook opt out: the
// hook may close over per-run state (rate controllers) that Reset
// cannot reach, so those replications rebuild — and serialize, since
// the shared hook state would also make concurrent replications a data
// race.
//
// Specs with a parallel block run the hybrid schedule instead: every
// replication keeps the space-partitioned kernel, and the worker
// budget splits between replication-level and region-level parallelism
// (see replicateParallel). The split never changes results — only
// wall-clock — and the chosen plan is reported in Summary.Exec.
func Replicate(spec Spec, reps, workers int, progress func(done, total int)) (Summary, error) {
	// Build falls back to the sequential kernel under mobility; strip
	// the parallel block up front so those sweeps keep the arena-reuse
	// path instead of pointlessly full-building every replication.
	if spec.Mobility != nil {
		spec.Parallel = nil
	}
	if err := spec.Validate(); err != nil {
		return Summary{}, err
	}
	if reps < 1 {
		reps = 1
	}
	// One registry serves the whole sweep: every worker's instance
	// publishes into it. Callers that read the metrics pass their own
	// via Spec.ObsRegistry; promoting here keeps the per-worker builds
	// from each minting a private, unreachable one.
	if spec.ObsRegistry == nil && spec.Obs != nil && spec.Obs.Enabled {
		spec.ObsRegistry = obs.NewRegistry()
	}
	if spec.Parallel != nil {
		return replicateParallel(spec, reps, workers, progress)
	}
	if spec.MACHook != nil {
		workers = 1
	}
	ro := newRunnerObs(spec.ObsRegistry)
	var sweepStart time.Time
	if spec.ObsRegistry != nil {
		sweepStart = time.Now()
	}
	cfg := runner.Config{Workers: workers, Progress: progress, OnJobDone: ro.onJobDone()}
	var runs []Result
	if spec.MACHook != nil {
		runs = replicateRebuild(cfg, spec, reps)
	} else {
		runs = runner.ReplicateWith(cfg, spec.Seed, reps, func(inst **Instance, seed uint64) Result {
			return runReused(inst, spec, seed)
		})
	}
	if spec.ObsRegistry != nil {
		ro.noteSweep(min(reps, resolveWorkers(workers)), time.Since(sweepStart))
	}
	return summarize(spec, runs), nil
}

// replicateRebuild runs a sweep that compiles every replication from
// scratch with its own Build, the path for specs whose per-run state
// Instance.Reset cannot reach (a MACHook's closures).
func replicateRebuild(cfg runner.Config, spec Spec, reps int) []Result {
	return runner.Replicate(cfg, spec.Seed, reps, func(seed uint64) Result {
		s := spec
		s.Seed = seed
		return MustRun(s)
	})
}

// resolveWorkers maps a Config-style worker count (0 = all CPUs) to the
// effective count, for the utilization gauge.
func resolveWorkers(w int) int {
	if w <= 0 {
		return runtime.GOMAXPROCS(0)
	}
	return w
}

// replicateParallel runs a sweep whose replications carry the
// space-partitioned kernel. The worker budget splits across the two
// levels of parallelism: replications first — independent seeds scale
// perfectly — with the surplus handed to the regions inside each
// replication, so a sweep of 2 replications on 8 cores runs 2x4
// instead of idling six cores. The split derives from the spec and the
// counts alone, never from timing, and neither level affects results
// (runner's index-ordered fan-out; the executor's worker-invariance
// guarantee), so the aggregate stays bit-identical for any worker
// count. Parallel instances do not support Reset, so every replication
// compiles from scratch — no arena reuse.
func replicateParallel(spec Spec, reps, workers int, progress func(done, total int)) (Summary, error) {
	repWorkers, regionWorkers := splitWorkers(reps, workers, spec.Parallel.Workers)
	if spec.MACHook != nil {
		// Concurrent replications would race on the shared hook state;
		// region workers are fine (the hook only runs at build time).
		repWorkers = 1
	}
	type outcome struct {
		res Result
		es  *ExecSummary
	}
	par := *spec.Parallel
	par.Workers = regionWorkers
	ro := newRunnerObs(spec.ObsRegistry)
	var sweepStart time.Time
	if spec.ObsRegistry != nil {
		sweepStart = time.Now()
	}
	cfg := runner.Config{Workers: repWorkers, Progress: progress, OnJobDone: ro.onJobDone()}
	outs := runner.Replicate(cfg, spec.Seed, reps, func(seed uint64) outcome {
		s := spec
		s.Seed = seed
		p := par
		s.Parallel = &p
		inst, err := Build(s)
		if err != nil {
			// Validate passed before the fan-out, so this is unreachable
			// short of a programming error; mirror MustRun's contract.
			panic(fmt.Sprintf("scenario: %v", err))
		}
		horizon := inst.Spec.Duration.D()
		inst.Net.Run(horizon)
		return outcome{res: inst.Collect(horizon), es: inst.ExecStats()}
	})
	if spec.ObsRegistry != nil {
		ro.noteSweep(repWorkers, time.Since(sweepStart))
	}
	runs := make([]Result, len(outs))
	for i, o := range outs {
		runs[i] = o.res
	}
	sum := summarize(spec, runs)
	// A degenerate radio model can make Build fall back to the
	// sequential kernel (no executor); the summary then reports no plan.
	if first := outs[0].es; first != nil {
		es := &ExecSummary{
			Partitioner:        first.Partitioner,
			Cols:               first.Cols,
			Rows:               first.Rows,
			Grid:               first.Grid,
			RegionWorkers:      first.RegionWorkers,
			ReplicationWorkers: repWorkers,
		}
		for _, o := range outs {
			if o.es == nil {
				continue
			}
			es.Windows += o.es.Windows
			es.Messages += o.es.Messages
			for len(es.RegionFired) < len(o.es.RegionFired) {
				es.RegionFired = append(es.RegionFired, 0)
			}
			for r, f := range o.es.RegionFired {
				es.RegionFired[r] += f
			}
		}
		es.LoadBalance = loadBalance(es.RegionFired)
		sum.Exec = es
	}
	return sum, nil
}

// ExecStats reports the instance's parallel-kernel execution stats —
// the plan fields from its fitted grid, the counters from its executor
// — as a single-replication ExecSummary. Nil when the instance runs
// the sequential kernel.
func (inst *Instance) ExecStats() *ExecSummary {
	ex := inst.Net.Exec
	if ex == nil {
		return nil
	}
	part := ""
	if inst.Spec.Parallel != nil {
		part = inst.Spec.Parallel.Partitioner
	}
	g := inst.Net.Grid
	es := &ExecSummary{
		Partitioner:        resolvePartitioner(part),
		Cols:               g.Cols,
		Rows:               g.Rows,
		Grid:               g.String(),
		RegionWorkers:      ex.Workers(),
		ReplicationWorkers: 1,
		Windows:            ex.Windows(),
		Messages:           ex.Messages(),
		RegionFired:        ex.RegionFired(),
	}
	es.LoadBalance = loadBalance(es.RegionFired)
	return es
}

// splitWorkers divides a sweep's worker budget between its two levels
// of parallelism: replications first (independent seeds need no
// synchronization at all), any surplus to the parallel kernel inside
// each replication. An explicit ParallelParams.Workers pins the
// region-level count instead of deriving it.
func splitWorkers(reps, total, parWorkers int) (repWorkers, regionWorkers int) {
	if total <= 0 {
		total = runtime.GOMAXPROCS(0)
	}
	repWorkers = min(reps, total)
	if repWorkers < 1 {
		repWorkers = 1
	}
	regionWorkers = parWorkers
	if regionWorkers == 0 {
		regionWorkers = max(1, total/repWorkers)
	}
	return repWorkers, regionWorkers
}

// loadBalance is the max/mean ratio of a per-region event histogram:
// 1.0 is a perfectly even partition, R (the region count) is all the
// work concentrated in one region.
func loadBalance(fired []uint64) float64 {
	var total, peak uint64
	for _, f := range fired {
		total += f
		if f > peak {
			peak = f
		}
	}
	if total == 0 {
		return 0
	}
	return float64(peak) * float64(len(fired)) / float64(total)
}

// resolvePartitioner maps the spec spelling to the effective
// partitioner name (empty selects balanced).
func resolvePartitioner(p string) string {
	if p == "" {
		return PartitionerBalanced
	}
	return p
}

// PlanExec resolves the execution plan a Replicate call with the same
// arguments will choose — the fitted region grid and the two-level
// worker split — without running anything, so the CLI can print it up
// front. Returns nil (and no error) when the sweep will run the
// sequential kernel throughout.
func PlanExec(spec Spec, reps, workers int) (*ExecSummary, error) {
	spec = spec.withDefaults()
	if spec.Parallel == nil || spec.Mobility != nil {
		return nil, nil
	}
	positions, flows, err := spec.check()
	if err != nil {
		return nil, err
	}
	// The balanced partitioner weights the resolved flow endpoints, so
	// the plan must resolve them exactly as Build does.
	spec.Flows = flows
	netProfile := spec.CustomProfile
	if netProfile == nil {
		if netProfile, err = profileByName(spec.Profile); err != nil {
			return nil, err
		}
	}
	grid, _, ok, err := spec.parallelGrid(positions, netProfile)
	if err != nil || !ok {
		return nil, err
	}
	if reps < 1 {
		reps = 1
	}
	repWorkers, regionWorkers := splitWorkers(reps, workers, spec.Parallel.Workers)
	if spec.MACHook != nil {
		repWorkers = 1
	}
	return &ExecSummary{
		Partitioner:        resolvePartitioner(spec.Parallel.Partitioner),
		Cols:               grid.Cols,
		Rows:               grid.Rows,
		Grid:               grid.String(),
		RegionWorkers:      min(regionWorkers, grid.Regions()),
		ReplicationWorkers: repWorkers,
	}, nil
}

// SummarizeRuns aggregates already-collected runs of one spec into the
// same Summary Replicate produces — the hook for callers that drive
// the runs themselves (cmd/adhocsim's metered single runs).
func SummarizeRuns(spec Spec, runs []Result) Summary { return summarize(spec, runs) }

// summarize aggregates per-flow and per-station metrics over the runs
// of one replicated scenario.
func summarize(spec Spec, runs []Result) Summary {
	sum := Summary{
		Name:         spec.Name,
		Replications: len(runs),
		Routing:      runs[0].Routing,
		Fairness:     runner.SummarizeBy(runs, func(r Result) float64 { return r.Fairness }),
		Runs:         runs,
	}
	for i := range runs[0].Flows {
		i := i
		fs := FlowSummary{
			Flow:      i,
			Src:       runs[0].Flows[i].Src,
			Dst:       runs[0].Flows[i].Dst,
			Transport: runs[0].Flows[i].Transport,
			Kbps:      runner.SummarizeBy(runs, func(r Result) float64 { return r.Flows[i].GoodputKbps }),
			Retries:   runner.SummarizeBy(runs, func(r Result) float64 { return float64(r.Flows[i].Retries) }),
			Gaps:      runner.SummarizeBy(runs, func(r Result) float64 { return float64(r.Flows[i].Gaps) }),
			Hops:      runner.SummarizeBy(runs, func(r Result) float64 { return float64(r.Flows[i].Hops) }),
		}
		if spec.Faults != nil && runs[0].Flows[i].Transport == TransportUDP {
			sumOf := func(f func(Result) float64) *runner.Summary {
				s := runner.SummarizeBy(runs, f)
				return &s
			}
			fs.Delivery = sumOf(func(r Result) float64 { return r.Flows[i].DeliveryRatio })
			fs.DowntimeLoss = sumOf(func(r Result) float64 { return float64(r.Flows[i].DowntimeLoss) })
			fs.RecoveryMs = sumOf(func(r Result) float64 { return r.Flows[i].RecoveryMeanMs })
			fs.RecoveryMaxMs = sumOf(func(r Result) float64 { return r.Flows[i].RecoveryMaxMs })
			fs.Unrecovered = sumOf(func(r Result) float64 { return float64(r.Flows[i].UnrecoveredFaults) })
		}
		if len(spec.Flows) > i && spec.Flows[i].NearestDst {
			// When seed-dependent topology re-draws paired this flow to
			// different stations across replications, replication 0's
			// destination would misattribute the aggregate to a link the
			// other runs never used. When every replication resolved to
			// the same station, that one real destination stands.
			for _, r := range runs[1:] {
				if r.Flows[i].Dst != runs[0].Flows[i].Dst {
					fs.Dst = -1
					fs.NearestDst = true
					break
				}
			}
		}
		sum.Flows = append(sum.Flows, fs)
	}
	if sum.Routing != "" {
		for i := range runs[0].Stations {
			i := i
			ss := StationSummary{
				Station:   i,
				Forwarded: runner.SummarizeBy(runs, func(r Result) float64 { return float64(r.Stations[i].NetForwarded) }),
				Dropped:   runner.SummarizeBy(runs, func(r Result) float64 { return float64(r.Stations[i].NetDropped) }),
				CtlBytes:  runner.SummarizeBy(runs, func(r Result) float64 { return float64(r.Stations[i].CtlBytes) }),
			}
			if spec.Faults != nil {
				down := runner.SummarizeBy(runs, func(r Result) float64 { return r.Stations[i].DownTime.D().Seconds() })
				crashes := runner.SummarizeBy(runs, func(r Result) float64 { return float64(r.Stations[i].Crashes) })
				ss.DownSecs, ss.Crashes = &down, &crashes
			}
			sum.Stations = append(sum.Stations, ss)
		}
	}
	return sum
}

// runReused executes one replication on a worker's arena: the first
// replication a worker runs builds its network, every later one
// re-seeds it in place. Both paths produce bit-identical Results for a
// given seed (Instance.Reset's contract), so the sweep aggregate does
// not depend on which worker ran which replication.
func runReused(slot **Instance, spec Spec, seed uint64) Result {
	inst := *slot
	if inst == nil {
		s := spec
		s.Seed = seed
		built, err := Build(s)
		if err != nil {
			// Validate passed before the fan-out, so this is unreachable
			// short of a programming error; mirror MustRun's contract.
			panic(fmt.Sprintf("scenario: %v", err))
		}
		*slot = built
		inst = built
	} else if err := inst.Reset(seed); err != nil {
		panic(fmt.Sprintf("scenario: %v", err))
	}
	horizon := inst.Spec.Duration.D()
	inst.Net.Run(horizon)
	return inst.Collect(horizon)
}

// Render formats a replicated scenario summary as the text table the
// CLI prints: one row per flow plus the fairness line, and — for routed
// scenarios — the per-station relay/overhead table.
func Render(s Summary) string {
	var b strings.Builder
	if s.Routing != "" {
		fmt.Fprintf(&b, "Scenario %q — %d replication(s), %s routing\n", s.Name, s.Replications, s.Routing)
	} else {
		fmt.Fprintf(&b, "Scenario %q — %d replication(s)\n", s.Name, s.Replications)
	}
	if s.Exec != nil {
		fmt.Fprintf(&b, "%s — %d window(s), %d cross-region message(s), load balance %.2f\n",
			s.Exec.Plan(), s.Exec.Windows, s.Exec.Messages, s.Exec.LoadBalance)
	}
	fmt.Fprintf(&b, "%-6s %-10s %-12s %-18s %-14s %-8s %s\n",
		"flow", "route", "transport", "goodput [kbit/s]", "retries", "gaps", "hops")
	for _, f := range s.Flows {
		route := fmt.Sprintf("%d→%d", f.Src, f.Dst)
		if f.NearestDst {
			route = fmt.Sprintf("%d→nearest", f.Src)
		}
		fmt.Fprintf(&b, "%-6d %-10s %-12s %8.1f ± %-7.1f %6.1f ± %-5.1f %6.1f %6.1f\n",
			f.Flow, route, f.Transport,
			f.Kbps.Mean, f.Kbps.CI95, f.Retries.Mean, f.Retries.CI95, f.Gaps.Mean, f.Hops.Mean)
	}
	faulted := false
	for _, f := range s.Flows {
		if f.Delivery != nil {
			faulted = true
			break
		}
	}
	if faulted {
		fmt.Fprintf(&b, "graceful degradation under faults:\n")
		fmt.Fprintf(&b, "%-6s %-16s %-14s %-22s %s\n",
			"flow", "delivery", "downtime-loss", "recovery [ms]", "unrecovered")
		for _, f := range s.Flows {
			if f.Delivery == nil {
				continue
			}
			fmt.Fprintf(&b, "%-6d %6.3f ± %-7.3f %8.1f %10.1f (max %6.1f) %8.1f\n",
				f.Flow, f.Delivery.Mean, f.Delivery.CI95, f.DowntimeLoss.Mean,
				f.RecoveryMs.Mean, f.RecoveryMaxMs.Mean, f.Unrecovered.Mean)
		}
	}
	fmt.Fprintf(&b, "Jain fairness: %.3f ± %.3f\n", s.Fairness.Mean, s.Fairness.CI95)
	if s.Routing != "" {
		fmt.Fprintf(&b, "%-8s %-16s %-16s %s\n", "station", "forwarded", "dropped", "ctl [bytes]")
		for _, st := range s.Stations {
			fmt.Fprintf(&b, "%-8d %8.1f ± %-5.1f %8.1f ± %-5.1f %10.1f\n",
				st.Station, st.Forwarded.Mean, st.Forwarded.CI95, st.Dropped.Mean, st.Dropped.CI95, st.CtlBytes.Mean)
		}
	}
	return b.String()
}
