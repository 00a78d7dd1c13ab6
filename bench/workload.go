package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"runtime"
	"runtime/pprof"
	"strings"
	"syscall"
	"time"

	"adhocsim/internal/obs"
	"adhocsim/internal/runner"
	"adhocsim/internal/scenario"
)

// workload is one named benchmark input: a preset, run a fixed way. The
// reasons each one is in the set are in README.md.
type workload struct {
	name   string
	preset string
	// seeds is how many replication seeds the workload cycles through,
	// derived from -seed the way scenario.Replicate derives them. How
	// much work a replication does varies with its seed (up to 1.6× on
	// Figure 7), so a single seed would make every number a property of
	// that seed; the block city varies by 3% and keeps one seed, so that
	// its warm replications reuse the caches its first run filled.
	seeds int
	// builds is how many cold builds the untraced pass times in its
	// setup, each followed by its first run. Parallel workloads build
	// afresh for every replication instead, because parallel instances
	// cannot Reset.
	builds   int
	parallel bool
	// quarter runs a quarter of the preset's block city (quarterCity).
	quarter bool
	// sweep makes the traced pass spend half its time in Replicate
	// sweeps, the way the paper's figures are produced.
	sweep bool
}

var workloads = []workload{
	{name: "fig7-sweep", preset: "paper-four-node", seeds: sweepReps, builds: 20, sweep: true},
	{name: "random-1024", preset: "random-1024", seeds: 16, builds: 12},
	{name: "churn-mesh", preset: "churn-mesh-5x5", seeds: 16, builds: 16},
	{name: "blocks-25k", preset: "clustered-blocks-100k", seeds: 1, builds: 12, quarter: true},
	{name: "blocks-25k-par", preset: "clustered-blocks-100k", seeds: 1, parallel: true, quarter: true},
}

// sweepReps is the replication count of one fig7-sweep Replicate sweep.
const sweepReps = 16

func findWorkload(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

// config is what one benchmark invocation holds fixed for every pass.
type config struct {
	seed    uint64
	seconds float64       // measured wall time of one untraced pass
	horizon time.Duration // simulated horizon; 0 keeps the preset's
}

// minReps is how many replications (and sweeps) a pass measures even
// past its deadline, so that every median has samples on either side.
const minReps = 3

func (w workload) spec(cfg config) (scenario.Spec, error) {
	spec, err := scenario.Preset(w.preset)
	if err != nil {
		return spec, err
	}
	spec.Seed = cfg.seed
	if cfg.horizon > 0 {
		spec.Duration = scenario.Duration(cfg.horizon)
	}
	if w.quarter {
		quarterCity(&spec)
	}
	if w.parallel {
		// One region worker, so that the single-threaded anchor tracks the
		// run: over sets of ten runs on a 2-vCPU shared host, the anchors'
		// mean correlated 0.66-0.88 with the raw medians at one worker and
		// 0.09 at two, and two workers on the 100k city spread the medians
		// by 32% of their median. Windows, lookahead and cross-region
		// messages run all the same; only the barriers go.
		spec.Parallel = &scenario.ParallelParams{Workers: 1}
	}
	return spec, nil
}

// quarterCity shrinks a clustered-blocks city to a quarter of its blocks
// — half the rows, half the columns and half the field on each side —
// keeping the block size, the street width, the stations per block and
// the flows, whose sources are spread over the smaller city. The flows
// carry the work, so a replication does about as many logical events
// (817k at seed 42, against 821k on the full city) on a quarter of the
// heap, and a 15-second parallel pass measures 22-24 replications instead
// of 8-10. The full city's medians spread by up to 32% of their median
// over ten runs of the same code; too few samples per run.
func quarterCity(s *scenario.Spec) {
	t := &s.Topology
	t.N, t.Rows, t.Cols = t.N/4, t.Rows/2, t.Cols/2
	t.Width, t.Height = t.Width/2, t.Height/2
	for i := range s.Flows {
		s.Flows[i].Src = i * t.N / len(s.Flows)
	}
}

// pass is one measured run of a workload: its timings, the correctness
// gate's tally and, when traced, what the obs registry, the runtime and
// the CPU profile saw.
type pass struct {
	spec  scenario.Spec
	seeds []uint64
	reg   *obs.Registry // nil on an untraced pass

	// builds, first runs and replications, each with its anchors. reps
	// are whole replications: Reset, Run and Collect, or Run and Collect
	// on a fresh parallel build, whose Build then stands in resets.
	// resets, runs and collects split reps (seconds, as measured), and
	// nsPerEvent divides each by its logical events (nanoseconds); all
	// four rescale with reps.
	builds, firsts, reps   timing
	resets, runs, collects []float64
	nsPerEvent             []float64
	heapMB                 []float64
	heapBase               uint64 // live heap before the pass built anything

	attempted, failed int
	failures          []string // the first few, for the report
	// wants[i] is the digest every replication of seeds[i] must produce,
	// once known; wantSource names where it came from.
	wants      []string
	wantSource string

	ran         int    // replications run on spec, summed into totals
	totals      totals // per-replication counts summed over ran
	loadBalance float64
	// Runtime counters over the memReps warm replications of a traced
	// pass, which did memLogical logical events.
	mallocs, allocBytes, gcs uint64
	memReps                  int
	memLogical               uint64
	sweepRates, sweepUtil    []float64
	sweepRan                 int              // replications run inside sweeps
	layerNs                  map[string]int64 // profiled CPU time per layer
	profileNs                int64            // profiled CPU time in all
	cpuNs                    int64            // process CPU time over the profiled interval
}

// totals sums what the replications did, from the kernel and the Result.
type totals struct {
	logical, edges                   uint64
	framesSent, retries, eifs, drops uint64
	forwarded, netDropped, ctlBytes  uint64
	offered, received                uint64
	flowReceived                     []uint64 // per flow
}

func (t *totals) add(res scenario.Result, logical, edges uint64) {
	t.logical += logical
	t.edges += edges
	for _, st := range res.Stations {
		t.framesSent += st.FramesSent
		t.retries += st.Retries
		t.eifs += st.EIFSDeferrals
		t.drops += st.TxDrops
		t.forwarded += st.NetForwarded
		t.netDropped += st.NetDropped
		t.ctlBytes += st.CtlBytes
	}
	for i, f := range res.Flows {
		if f.Transport == scenario.TransportUDP {
			t.offered += f.AppSent
			t.received += f.Received
		}
		if i == len(t.flowReceived) {
			t.flowReceived = append(t.flowReceived, 0)
		}
		t.flowReceived[i] += f.Received
	}
}

// op runs one operation (a Build, a replication, a sweep or a delivery
// check) under the correctness gate: an error or a panic counts it as
// failed.
func (p *pass) op(what string, fn func() error) {
	p.attempted++
	err := func() (err error) {
		defer func() {
			if r := recover(); r != nil {
				err = fmt.Errorf("panic: %v", r)
			}
		}()
		return fn()
	}()
	if err != nil {
		p.failed++
		if len(p.failures) < 5 {
			p.failures = append(p.failures, what+": "+err.Error())
		}
	}
}

// measure runs one pass of w: setup, then measured replications for the
// given seconds. A non-nil reg makes it the traced pass. wants, when not
// nil, holds the digests the replications must reproduce (the untraced
// pass's, on a traced pass).
func measure(w workload, cfg config, builds int, seconds float64, reg *obs.Registry, wants []string) (*pass, error) {
	spec, err := w.spec(cfg)
	if err != nil {
		return nil, err
	}
	spec.ObsRegistry = reg
	p := &pass{spec: spec, reg: reg, wantSource: "the untraced pass"}
	for i := 0; i < w.seeds; i++ {
		p.seeds = append(p.seeds, runner.SeedFor(cfg.seed, i))
	}
	p.wants = make([]string, w.seeds)
	copy(p.wants, wants)
	if wants == nil {
		p.wantSource = "the first replication of its seed"
	}
	p.heapBase = liveHeap()
	warm := seconds
	if reg != nil && w.sweep {
		warm = seconds / 2
	}
	if w.parallel {
		p.measureParallel(warm)
	} else {
		p.measureSequential(builds, warm)
	}
	p.op("delivery check", func() error { return checkDelivery(p.totals.flowReceived, p.ran) })
	if reg != nil && w.sweep {
		p.measureSweeps(seconds - warm)
	}
	if len(p.reps.samples) == 0 || len(p.builds.samples) == 0 {
		return nil, fmt.Errorf("%s: no replication completed: %v", w.name, p.failures)
	}
	return p, nil
}

// measureTraced is measure with the obs registry attached and the CPU
// profiler running over the whole pass.
func measureTraced(w workload, cfg config, builds int, seconds float64, wants []string) (*pass, error) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		return nil, err
	}
	cpu0 := cpuTime()
	p, err := measure(w, cfg, builds, seconds, obs.NewRegistry(), wants)
	pprof.StopCPUProfile()
	cpu := cpuTime() - cpu0
	if err != nil {
		return nil, err
	}
	samples, err := parseProfile(buf.Bytes())
	if err != nil {
		return nil, err
	}
	p.layerNs, p.profileNs = layerSplit(samples)
	p.cpuNs = cpu
	return p, nil
}

// measureSequential times builds cold builds, each with its first run,
// then warm replications on the last build: each Resets the arena to the
// next seed of the cycle, as a worker of scenario.Replicate does, and
// runs it. The loop stops at the deadline on a whole cycle of seeds.
func (p *pass) measureSequential(builds int, seconds float64) {
	var inst *scenario.Instance
	for i := 0; i < builds; i++ {
		// Drop the previous build and collect it here, so that the timed
		// Build below does not pay for its garbage.
		inst = nil
		runtime.GC()
		k := i % len(p.seeds)
		spec := p.spec
		spec.Seed = p.seeds[k]
		var built *scenario.Instance
		p.op("build", func() error {
			t := time.Now()
			b, err := scenario.Build(spec)
			d := time.Since(t)
			p.builds.add(d)
			built = b
			return err
		})
		if built == nil {
			continue
		}
		// Collect the Build's garbage before the first run, so that the
		// run starts from the same heap every time instead of paying, or
		// not, for a collection the Build left half due.
		runtime.GC()
		p.op("first run", func() error {
			res, run, collect := runCollect(built)
			p.firsts.add(run + collect)
			_, err := p.gate(built, res, k)
			return err
		})
		p.recordHeap()
		inst = built
	}
	if inst == nil {
		return
	}
	deadline := time.Now().Add(seconds2dur(seconds))
	for n := 0; n < minReps || n%len(p.seeds) != 0 || time.Now().Before(deadline); n++ {
		k := n % len(p.seeds)
		p.op("replication", func() error {
			var res scenario.Result
			var reset, run, collect time.Duration
			var err error
			p.counted(func() {
				t := time.Now()
				if err = inst.Reset(p.seeds[k]); err != nil {
					return
				}
				reset = time.Since(t)
				res, run, collect = runCollect(inst)
			})
			if err != nil {
				return err
			}
			logical, err := p.gate(inst, res, k)
			p.record(reset, run, collect, reset+run+collect, logical)
			return err
		})
	}
}

// measureParallel times fresh builds on the parallel kernel, each with
// one replication, until the deadline.
func (p *pass) measureParallel(seconds float64) {
	deadline := time.Now().Add(seconds2dur(seconds))
	for n := 0; n < minReps || time.Now().Before(deadline); n++ {
		var inst *scenario.Instance
		var build time.Duration
		p.op("build", func() error {
			t := time.Now()
			b, err := scenario.Build(p.spec)
			build = time.Since(t)
			p.builds.add(build)
			inst = b
			return err
		})
		if inst == nil {
			continue
		}
		runtime.GC() // as before a first run in measureSequential
		p.op("replication", func() error {
			var res scenario.Result
			var run, collect time.Duration
			p.counted(func() { res, run, collect = runCollect(inst) })
			if es := inst.ExecStats(); es != nil {
				p.loadBalance = es.LoadBalance
			}
			logical, err := p.gate(inst, res, 0)
			p.record(build, run, collect, run+collect, logical)
			return err
		})
		p.recordHeap()
		runtime.KeepAlive(inst)
		inst = nil
		runtime.GC()
	}
	// Every replication here runs on a fresh build: it is a first run.
	p.firsts = p.reps
}

// measureSweeps times whole Replicate sweeps, with their own registry so
// that the runner's gauges and the sweep's kernel counters stay apart
// from the warm loop's. Replication i of a sweep runs seeds[i], so its
// bytes must equal the warm loop's for that seed.
func (p *pass) measureSweeps(seconds float64) {
	spec := p.spec
	reg := obs.NewRegistry()
	spec.ObsRegistry = reg
	deadline := time.Now().Add(seconds2dur(seconds))
	for n := 0; n < minReps || time.Now().Before(deadline); n++ {
		p.op("sweep", func() error {
			t := time.Now()
			sum, err := scenario.Replicate(spec, sweepReps, runtime.NumCPU(), nil)
			dt := time.Since(t)
			if err != nil {
				return err
			}
			p.sweepRan += len(sum.Runs)
			p.sweepRates = append(p.sweepRates, float64(len(sum.Runs))/dt.Seconds())
			p.sweepUtil = append(p.sweepUtil, gaugeValue(reg.Snapshot(), "runner_worker_utilization"))
			var delivered totals
			for i, r := range sum.Runs {
				d, err := digest(r)
				if err != nil {
					return err
				}
				if i < len(p.wants) && d != p.wants[i] {
					return fmt.Errorf("sweep replication %d digest %.12s differs from the warm loop's %.12s", i, d, p.wants[i])
				}
				delivered.add(r, 0, 0)
			}
			if err := checkDelivery(delivered.flowReceived, len(sum.Runs)); err != nil {
				return err
			}
			return checkFaultEdges(reg)
		})
	}
}

// runCollect drives a built or reset instance over its horizon and
// collects the result, timing the two calls.
func runCollect(inst *scenario.Instance) (res scenario.Result, run, collect time.Duration) {
	h := inst.Spec.Duration.D()
	t0 := time.Now()
	inst.Net.Run(h)
	t1 := time.Now()
	res = inst.Collect(h)
	return res, t1.Sub(t0), time.Since(t1)
}

// record appends one measured replication's times, and times the
// anchor after it.
func (p *pass) record(reset, run, collect, rep time.Duration, logical uint64) {
	p.resets = append(p.resets, reset.Seconds())
	p.runs = append(p.runs, run.Seconds())
	p.collects = append(p.collects, collect.Seconds())
	p.reps.add(rep)
	p.nsPerEvent = append(p.nsPerEvent, float64(rep.Nanoseconds())/float64(max(logical, 1)))
	if p.reg != nil {
		p.memLogical += logical
	}
}

// counted runs one replication and, on a traced pass, charges its heap
// allocations and GC cycles to the per-replication runtime counters.
// The two stop-the-world MemStats reads fall outside the timed calls.
func (p *pass) counted(fn func()) {
	if p.reg == nil {
		fn()
		return
	}
	var a, b runtime.MemStats
	runtime.ReadMemStats(&a)
	fn()
	runtime.ReadMemStats(&b)
	p.mallocs += b.Mallocs - a.Mallocs
	p.allocBytes += b.TotalAlloc - a.TotalAlloc
	p.gcs += uint64(b.NumGC - a.NumGC)
	p.memReps++
}

// gate is the correctness check every replication of seeds[k] passes:
// the result's bytes equal the seed's expected digest and, on a traced
// pass, every planned fault edge fired. It
// returns the replication's logical events: every fired scheduler event,
// minus the two pooled batch actions per transmission, plus the two
// per-receiver arrival edges (start and end) the batching folded into
// them — the count internal/scenario/bench_test.go divides by.
func (p *pass) gate(inst *scenario.Instance, res scenario.Result, k int) (uint64, error) {
	var edges uint64
	for _, st := range inst.Net.Stations {
		// Each arrival edge settles into exactly one radio verdict.
		edges += st.Radio.FramesDecoded + st.Radio.FramesErrored + st.Radio.FramesMissed
	}
	logical := inst.Net.Fired() - 2*inst.Net.Medium.Transmissions + 2*edges
	p.ran++
	p.totals.add(res, logical, edges)

	d, err := digest(res)
	if err != nil {
		return logical, err
	}
	if p.wants[k] == "" {
		p.wants[k] = d
	} else if d != p.wants[k] {
		return logical, fmt.Errorf("seed %d: result digest %.12s differs from %s's %.12s", p.seeds[k], d, p.wantSource, p.wants[k])
	}
	return logical, checkFaultEdges(p.reg)
}

// checkDelivery fails when some flow delivered nothing over all the
// replications summed in received: a flow the program cannot serve at
// all. The rule covers a whole cycle of seeds, not one replication,
// because a single seed may legitimately starve a session: at 11 Mbit/s
// one Figure 7 session delivers nothing in 11 of 1000 seeds.
func checkDelivery(received []uint64, reps int) error {
	for i, r := range received {
		if r == 0 {
			return fmt.Errorf("flow %d delivered 0 packets in %d replications", i, reps)
		}
	}
	return nil
}

var faultKinds = []string{"crashes", "restarts", "outage_starts", "outage_ends"}

// checkFaultEdges compares the registry's applied fault edges with the
// planned ones, both summed over every replication published into it.
// Untraced passes have no registry and skip it.
func checkFaultEdges(reg *obs.Registry) error {
	if reg == nil {
		return nil
	}
	snap := reg.Snapshot()
	for _, k := range faultKinds {
		planned := counterValue(snap, "faults_"+k+"_planned_total")
		applied := counterValue(snap, "faults_"+k+"_applied_total")
		if planned != applied {
			return fmt.Errorf("%d %s fault edges applied, %d planned", applied, k, planned)
		}
	}
	return nil
}

// resultDigest combines the per-seed digests into the one a report
// prints.
func (p *pass) resultDigest() string {
	sum := sha256.Sum256([]byte(strings.Join(p.wants, "\n")))
	return hex.EncodeToString(sum[:])
}

// digest is the SHA-256 of v's JSON encoding.
func digest(v any) (string, error) {
	h := sha256.New()
	if err := json.NewEncoder(h).Encode(v); err != nil {
		return "", err
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}

// liveHeap is the heap still reachable after a full collection, in
// bytes. The second collection empties the sync.Pool victim caches the
// first one fills, so the benchmark's own pooled buffers (the JSON
// encoder's, megabytes after a block city's digest) do not
// count.
func liveHeap() uint64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// recordHeap appends the live heap the current instance holds: the
// reachable heap less what the pass held before it built anything. The
// heap varies by well under 1% between builds, so three samples do, and
// a full collection of the city's heap is not paid per build.
func (p *pass) recordHeap() {
	if len(p.heapMB) == 3 {
		return
	}
	h := liveHeap()
	p.heapMB = append(p.heapMB, float64(h-min(p.heapBase, h))/(1<<20))
}

// cpuTime is the process's user plus system CPU time in nanoseconds.
func cpuTime() int64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return ru.Utime.Nano() + ru.Stime.Nano()
}

func counterValue(s obs.Snapshot, name string) uint64 {
	for _, c := range s.Counters {
		if c.Name == name {
			return c.Value
		}
	}
	return 0
}

func gaugeValue(s obs.Snapshot, name string) float64 {
	for _, g := range s.Gauges {
		if g.Name == name {
			return g.Value
		}
	}
	return 0
}

func seconds2dur(s float64) time.Duration { return time.Duration(s * float64(time.Second)) }
