// Command adhocsim runs the paper's experiments end to end and prints
// their tables and figure data, and runs arbitrary declarative
// scenarios from JSON specs or the built-in preset library.
//
// Usage:
//
//	adhocsim -exp all                   # every table and figure
//	adhocsim -exp fig7 -dur 10s         # one experiment, longer horizon
//	adhocsim -exp fig3 -packets 400     # denser loss sweep
//	adhocsim -exp fig3 -csv             # CSV for plotting
//	adhocsim -exp fig7 -replications 8  # mean ± 95% CI over 8 seeds
//	adhocsim -exp fig3 -json -workers 4 # machine-readable, bounded pool
//
//	adhocsim -exp churn -replications 8 # graceful degradation vs churn rate
//
//	adhocsim -exp table2 -rate 5.5 -size 700 -rts          # one model configuration
//	adhocsim -exp table2 -rate 11 -verify -replications 8  # model vs simulation
//	adhocsim -exp loss -rate 1 -weather damp -sigma 6      # free-form loss sweep
//	adhocsim -exp loss -rate 5.5 -from 20 -to 120 -step 5 -csv > curve.csv
//
//	adhocsim -list-scenarios            # the built-in scenario library
//	adhocsim -scenario hidden-terminal  # run a preset by name
//	adhocsim -scenario spec.json -replications 8 -json
//	adhocsim -scenario random-16k -progress
//	adhocsim -scenario churn-random-16k -max-wall 5m  # bounded wall clock
//
// Replications fan out across -workers goroutines (default: all CPUs)
// through the internal/runner harness; results are bit-identical for
// any worker count.
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"
	"time"

	"adhocsim/internal/capacity"
	"adhocsim/internal/experiments"
	"adhocsim/internal/mac"
	"adhocsim/internal/obs"
	"adhocsim/internal/phy"
	"adhocsim/internal/routing"
	"adhocsim/internal/runner"
	"adhocsim/internal/scenario"
	"adhocsim/internal/trace"
	"adhocsim/internal/transport"
)

func main() {
	exp := flag.String("exp", "all", "experiment: table1, table2, fig2, fig3, fig4, table3, fig7, fig9, fig11, fig12, chain, churn, loss, all")
	seed := flag.Uint64("seed", 42, "root random seed; replication seeds derive from it")
	dur := flag.Duration("dur", 10*time.Second, "measurement horizon for throughput experiments and -verify")
	packets := flag.Int("packets", 200, "probes per distance for loss sweeps")
	csv := flag.Bool("csv", false, "emit CSV instead of tables (fig3/fig4/loss only)")
	rate := flag.Float64("rate", 0, "data rate in Mbit/s (1, 2, 5.5, 11): -exp table2 evaluates the model at it (0 prints the full table); -exp loss sweeps it (0 = 11)")
	size := flag.Int("size", 512, fmt.Sprintf("payload bytes for -exp table2 -rate and -exp loss: at most %d, and a simulated one fits an MSDU with its headers (%d over UDP, %d over TCP)",
		mac.MaxMSDU, transport.MaxUDPPayload, transport.MaxTCPPayload))
	rts := flag.Bool("rts", false, "RTS/CTS access for -exp table2 -rate (Equation (2))")
	tcp := flag.Bool("tcp", false, "charge TCP+IP instead of UDP+IP header overhead in -exp table2 -rate")
	verify := flag.Bool("verify", false, "cross-check -exp table2 -rate against replicated simulations of a saturating session")
	from := flag.Float64("from", 10, "first distance of -exp loss, meters")
	to := flag.Float64("to", 160, "last distance of -exp loss, meters")
	step := flag.Float64("step", 10, "distance step of -exp loss, meters")
	sigma := flag.Float64("sigma", -1, "shadowing σ in dB for -exp loss (-1 keeps the weather profile's)")
	weather := flag.String("weather", "clear", "weather profile for -exp loss: clear or damp")
	jsonOut := flag.Bool("json", false, "emit JSON instead of tables")
	reps := flag.Int("replications", 1, "independent replications per experiment (reported as mean ± 95% CI)")
	workers := flag.Int("workers", 0, "worker goroutines for parallel runs; 0 = all CPUs")
	progress := flag.Bool("progress", false, "stream run progress to stderr")
	scen := flag.String("scenario", "", "run a declarative scenario: a spec .json file or a preset name (see -list-scenarios)")
	parRegions := flag.String("parallel-regions", "", "run -scenario on the space-partitioned parallel kernel: COLSxROWS (e.g. 4x4) or auto; with -replications > 1 the worker budget splits between replications and regions")
	listScen := flag.Bool("list-scenarios", false, "list the built-in scenario presets and exit")
	routingProto := flag.String("routing", "static", "route control plane for -exp chain: static or dsdv")
	hops := flag.Int("hops", 8, "longest chain for -exp chain (hops, not stations)")
	cpuProfile := flag.String("cpuprofile", "", "write a CPU profile to this file (go tool pprof)")
	memProfile := flag.String("memprofile", "", "write a heap profile to this file at exit (go tool pprof)")
	maxWall := flag.Duration("max-wall", 0, "wall-clock budget for the whole invocation; on expiry, flush profiles, note the partial results, and exit")
	obsOut := flag.String("obs", "", "write a run report as JSON to this file after the run: per-phase spans, plus the metrics snapshot and trace tail of a -scenario run")
	obsServe := flag.String("obs-serve", "", "serve live observability during the run on this address: /metrics (Prometheus text, -scenario only), /report (JSON), /debug/pprof/")
	traceLv := flag.String("trace", "", "trace MAC retry/backoff and route-change events to stderr during a -scenario run: info or debug")
	flag.Parse()

	startWallGuard(*maxWall)
	startProfiles(*cpuProfile, *memProfile)
	// Flush profiles on normal return and on panic alike; flushProfiles
	// (not exit) so a panic keeps unwinding and prints its trace.
	defer flushProfiles()

	if *listScen {
		listScenarios()
		return
	}
	// usage rejects a flag value before any experiment runs.
	usage := func(format string, a ...any) {
		fmt.Fprintf(os.Stderr, "adhocsim: "+format+"\n", a...)
		exit(2)
	}
	switch {
	case *reps < 1:
		usage("-replications %d: want at least 1", *reps)
	case *workers < 0:
		usage("-workers %d: want 0 (all CPUs) or more", *workers)
	}
	if *scen != "" {
		// -seed and -dur override the spec's embedded values only when the
		// user set them explicitly; otherwise the spec/preset wins. Flags
		// that only apply to the paper experiments are called out rather
		// than silently dropped.
		var seedOv *uint64
		var durOv *time.Duration
		flag.Visit(func(f *flag.Flag) {
			switch f.Name {
			case "seed":
				seedOv = seed
			case "dur":
				durOv = dur
			case "exp", "csv", "packets", "routing", "hops", "rate", "size", "rts", "tcp",
				"verify", "from", "to", "step", "sigma", "weather":
				fmt.Fprintf(os.Stderr, "adhocsim: -%s has no effect in -scenario mode\n", f.Name)
			}
		})
		runScenario(*scen, scenarioOpts{
			reps: *reps, workers: *workers,
			jsonOut: *jsonOut, progress: *progress,
			seed: seedOv, dur: durOv, parRegions: *parRegions,
			obsOut: *obsOut, obsServe: *obsServe, traceLevel: *traceLv,
		})
		return
	}
	for _, f := range []struct{ name, v string }{
		{"parallel-regions", *parRegions}, {"trace", *traceLv},
	} {
		if f.v != "" {
			fmt.Fprintf(os.Stderr, "adhocsim: -%s has no effect outside -scenario mode\n", f.name)
		}
	}

	// A simulated -size payload rides in one MSDU with its headers:
	// UDP/IP for -exp loss and table2 -verify, TCP/IP for table2 -verify
	// -tcp. The model alone takes any MSDU size.
	maxSize, sizeWhy := mac.MaxMSDU, "the largest MSDU"
	if *exp == "loss" || *verify && *rate != 0 && (*exp == "table2" || *exp == "all") {
		proto := "UDP"
		maxSize = transport.MaxUDPPayload
		if *tcp && *exp != "loss" {
			proto, maxSize = "TCP", transport.MaxTCPPayload
		}
		sizeWhy = fmt.Sprintf("the largest MSDU, %d, less %d B of %s/IP headers", mac.MaxMSDU, mac.MaxMSDU-maxSize, proto)
	}
	switch {
	case *dur <= 0:
		usage("-dur %v: want a positive horizon", *dur)
	case *packets <= 0:
		usage("-packets %d: want a positive count", *packets)
	case *size <= 0 || *size > maxSize:
		usage("-size %d: want 1 to %d bytes (%s)", *size, maxSize, sizeWhy)
	}
	var r phy.Rate // 0 while -rate is unset
	if *rate != 0 {
		var valid bool
		if r, valid = phy.RateFromMbps(*rate); !valid {
			usage("-rate %v: want 1, 2, 5.5 or 11", *rate)
		}
	}

	rep := experiments.Rep{Replications: *reps, Workers: *workers}
	if *progress {
		rep.Progress = runner.ProgressWriter(os.Stderr, "runs")
	}

	// Observability here is one span per experiment: the experiments
	// drive the kernel below the scenario layer that feeds the metrics
	// registry. The live endpoint still offers pprof.
	rec := trace.NewSpanRecorder()
	report := func() *obs.Report {
		return &obs.Report{Seed: *seed, Replications: *reps, Spans: rec.Records()}
	}
	if *obsServe != "" {
		addr, err := obs.Serve(*obsServe, nil, report)
		if err != nil {
			fmt.Fprintf(os.Stderr, "adhocsim: %v\n", err)
			exit(1)
		}
		fmt.Fprintf(os.Stderr, "adhocsim: observability on http://%s (/report /debug/pprof/)\n", addr)
	}

	// emit prints v as JSON under -json and the rendered text otherwise;
	// experiments without a natural JSON value (the parameter table)
	// always print text.
	emit := func(text string, v any) {
		if *jsonOut && v != nil {
			if err := runner.WriteJSON(os.Stdout, v); err != nil {
				fmt.Fprintf(os.Stderr, "adhocsim: %v\n", err)
				exit(1)
			}
			return
		}
		fmt.Print(text)
	}

	ok := false
	run := func(name string, fn func()) {
		// The chain, churn and loss sweeps are extensions beyond the
		// paper's figures, so they run only when named — "all" keeps
		// meaning "the paper".
		extension := name == "chain" || name == "churn" || name == "loss"
		if *exp != name && (*exp != "all" || extension) {
			return
		}
		sp := rec.StartSpan(name)
		fn()
		sp.End()
		fmt.Println()
		ok = true
	}

	run("table1", func() { emit(experiments.RenderTable1(), nil) })
	run("table2", func() {
		if r == 0 {
			emit(experiments.RenderTable2(), capacity.Table2())
			return
		}
		// One configuration of Equations (1)/(2); -verify measures a
		// saturating session against it.
		model := capacity.New(r, *size, *rts)
		tr := experiments.UDP
		if *tcp {
			model = model.WithOverhead(capacity.OverheadTCP)
			tr = experiments.TCP
		}
		fmt.Printf("rate=%v m=%dB rts=%v overhead=%dB\n", r, *size, *rts, model.OverheadBytes)
		fmt.Printf("  T_DATA        %v\n", model.DataTime())
		fmt.Printf("  cycle time    %v\n", model.CycleTime())
		fmt.Printf("  throughput    %.3f Mbit/s\n", model.ThroughputMbps())
		fmt.Printf("  utilization   %.1f %% of nominal\n", 100*model.Utilization())
		if !*verify {
			return
		}
		sum := experiments.ReplicateTwoNode(experiments.TwoNode{
			Rate:       r,
			Transport:  tr,
			RTSCTS:     *rts,
			PacketSize: *size,
			Duration:   *dur,
			Seed:       *seed,
		}, rep)
		dev := 0.0
		if sum.IdealMbps > 0 {
			dev = 100 * (sum.Mbps.Mean - sum.IdealMbps) / sum.IdealMbps
		}
		fmt.Printf("  simulated     %.3f ± %.3f Mbit/s (n=%d, %+.1f%% vs model)\n",
			sum.Mbps.Mean, sum.Mbps.CI95, sum.Mbps.N, dev)
	})
	run("fig2", func() {
		cells := experiments.Figure2Reps(phy.Rate11, *seed, *dur, rep)
		emit(experiments.RenderFigure2(phy.Rate11, cells), cells)
	})
	run("fig3", func() {
		curves := experiments.Figure3Reps(*seed, *packets, rep)
		if *csv {
			for _, r := range phy.Rates {
				fmt.Printf("# %v\n%s", r, experiments.CSV(curves[r]))
			}
			return
		}
		named := map[string][]experiments.LossPoint{}
		var order []string
		for _, r := range phy.Rates {
			named[r.String()] = curves[r]
			order = append(order, r.String())
		}
		emit(experiments.RenderLossCurves(
			"Figure 3. Packet loss rate vs distance", named, order), named)
	})
	run("fig4", func() {
		curves := experiments.Figure4Reps(*seed, *packets, rep)
		if *csv {
			for _, c := range curves {
				fmt.Printf("# %s\n%s", c.Day, experiments.CSV(c.Points))
			}
			return
		}
		named := map[string][]experiments.LossPoint{}
		var order []string
		for _, c := range curves {
			named[c.Day] = c.Points
			order = append(order, c.Day)
		}
		emit(experiments.RenderLossCurves(
			"Figure 4. 1 Mbit/s transmission range on different days", named, order), curves)
	})
	run("table3", func() {
		rows := experiments.Table3Reps(*seed, *packets, rep)
		emit(experiments.RenderTable3(rows), rows)
	})
	run("fig7", func() {
		cells := experiments.Figure7Reps(*seed, *dur, rep)
		emit(experiments.RenderFourNode(
			"Figure 7. Four stations, 11 Mbit/s, 25/82.5/25 m", "3->4", cells), cells)
	})
	run("fig9", func() {
		cells := experiments.Figure9Reps(*seed, *dur, rep)
		emit(experiments.RenderFourNode(
			"Figure 9. Four stations, 2 Mbit/s, 25/92.5/25 m", "3->4", cells), cells)
	})
	run("fig11", func() {
		cells := experiments.Figure11Reps(*seed, *dur, rep)
		emit(experiments.RenderFourNode(
			"Figure 11. Symmetric scenario, 11 Mbit/s, 25/62.5/25 m", "4->3", cells), cells)
	})
	run("fig12", func() {
		cells := experiments.Figure12Reps(*seed, *dur, rep)
		emit(experiments.RenderFourNode(
			"Figure 12. Symmetric scenario, 2 Mbit/s, 25/62.5/25 m", "4->3", cells), cells)
	})
	run("churn", func() {
		cfg := experiments.ChurnConfig{Seed: *seed, Duration: *dur}
		points, err := experiments.ChurnReps(cfg, rep)
		if err != nil {
			fmt.Fprintf(os.Stderr, "adhocsim: %v\n", err)
			exit(1)
		}
		emit(experiments.RenderChurn(cfg, points), points)
	})
	run("chain", func() {
		if *routingProto != routing.ProtocolStatic && *routingProto != routing.ProtocolDSDV {
			usage("-routing %q: want one of %v", *routingProto, routing.Protocols())
		}
		if *hops < 1 {
			usage("-hops must be ≥ 1")
		}
		cfg := experiments.ChainConfig{
			MaxHops:  *hops,
			Routing:  *routingProto,
			Seed:     *seed,
			Duration: *dur,
		}
		points, err := experiments.ChainThroughputReps(cfg, rep)
		if err != nil {
			fmt.Fprintf(os.Stderr, "adhocsim: %v\n", err)
			exit(1)
		}
		emit(experiments.RenderChain(cfg, points), points)
	})
	run("loss", func() {
		lr := r
		if lr == 0 {
			lr = phy.Rate11
		}
		ds, err := lossDistances(*from, *to, *step)
		if err != nil {
			usage("%v", err)
		}
		prof := phy.DefaultProfile()
		switch *weather {
		case "clear":
			prof = phy.WeatherClear.Apply(prof)
		case "damp":
			prof = phy.WeatherDamp.Apply(prof)
		default:
			usage("-weather %q: want clear or damp", *weather)
		}
		if *sigma >= 0 {
			prof.Fading.SigmaDB = *sigma
		}
		points := experiments.RunLossSweep(experiments.LossSweep{
			Rate:         lr,
			Distances:    ds,
			Packets:      *packets,
			PacketSize:   *size,
			Seed:         *seed,
			Profile:      prof,
			Replications: *reps,
			Workers:      *workers,
			Progress:     rep.Progress,
		})
		crossing := experiments.CrossingDistance(points, 0.5)
		if *csv {
			fmt.Printf("# rate=%v weather=%s sigma=%.1fdB packets=%d replications=%d\n",
				lr, *weather, prof.Fading.SigmaDB, *packets, *reps)
			fmt.Print(experiments.CSV(points))
			fmt.Printf("# 50%% crossing: %.1f m\n", crossing)
			return
		}
		title := fmt.Sprintf("Packet loss rate vs distance, %s weather, sigma %.1f dB, 50%% crossing %.1f m",
			*weather, prof.Fading.SigmaDB, crossing)
		emit(experiments.RenderLossCurves(title,
			map[string][]experiments.LossPoint{lr.String(): points}, []string{lr.String()}),
			struct {
				Rate         string                  `json:"rate"`
				Weather      string                  `json:"weather"`
				SigmaDB      float64                 `json:"sigma_db"`
				Packets      int                     `json:"packets"`
				Replications int                     `json:"replications"`
				Seed         uint64                  `json:"seed"`
				Points       []experiments.LossPoint `json:"points"`
				Crossing50   float64                 `json:"crossing50_m"`
			}{lr.String(), *weather, prof.Fading.SigmaDB, *packets, *reps, *seed, points, crossing})
	})

	if !ok {
		fmt.Fprintf(os.Stderr, "adhocsim: unknown experiment %q\n", *exp)
		flag.Usage()
		exit(2)
	}
	if *obsOut != "" {
		if err := writeReport(*obsOut, report()); err != nil {
			fmt.Fprintf(os.Stderr, "adhocsim: -obs: %v\n", err)
			exit(1)
		}
	}
}

// maxLossPoints bounds the distance list of one -exp loss sweep, which
// is allocated before the sweep starts.
const maxLossPoints = 10_000

// lossDistances lists from, from+step, … up to to, adding step to a
// running sum. It counts the list before allocating it: a range of more
// than maxLossPoints distances, or a step too small to advance the sum,
// is an error.
func lossDistances(from, to, step float64) ([]float64, error) {
	if !(from > 0 && to >= from && step > 0) {
		return nil, errors.New("invalid distance range")
	}
	n := 0
	for d := from; d <= to; d += step {
		if d+step == d {
			return nil, fmt.Errorf("invalid distance range: -step %v does not advance past %v m", step, d)
		}
		if n++; n > maxLossPoints {
			return nil, fmt.Errorf("invalid distance range: more than %d distances", maxLossPoints)
		}
	}
	ds := make([]float64, 0, n)
	for d := from; d <= to; d += step {
		ds = append(ds, d)
	}
	return ds, nil
}

// startWallGuard arms the -max-wall wall-clock budget: when the timer
// fires, the process notes which results are missing, flushes any
// profiles collected so far, and exits nonzero. A hard exit (not a
// cooperative cancel) is deliberate — the guard exists for unattended
// sweeps on shared machines, where a run that blows its budget must
// yield the box even if a kernel loop is wedged; whatever was already
// printed stands as partial results.
func startWallGuard(budget time.Duration) {
	if budget <= 0 {
		return
	}
	time.AfterFunc(budget, func() {
		fmt.Fprintf(os.Stderr, "adhocsim: -max-wall %v exceeded; results printed so far are partial\n", budget)
		exit(3)
	})
}

// memProfilePath is the heap-profile destination registered by
// startProfiles, written by exit just before the process terminates.
var memProfilePath string

// startProfiles begins CPU profiling and registers the heap profile
// destination. Profiles let future performance work see the simulator's
// real hot paths under real workloads (large -scenario runs,
// replicated experiments) instead of micro-benchmarks alone:
//
//	adhocsim -scenario random-1024 -cpuprofile cpu.out -memprofile mem.out
//	go tool pprof cpu.out
func startProfiles(cpuPath, memPath string) {
	memProfilePath = memPath
	if cpuPath == "" {
		return
	}
	f, err := os.Create(cpuPath)
	if err != nil {
		fmt.Fprintf(os.Stderr, "adhocsim: -cpuprofile: %v\n", err)
		os.Exit(1)
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		fmt.Fprintf(os.Stderr, "adhocsim: -cpuprofile: %v\n", err)
		os.Exit(1)
	}
}

// profilesFlushed makes flushProfiles idempotent: it runs both from
// main's deferred call (normal return, panic) and from exit (error
// paths).
var profilesFlushed bool

// flushProfiles stops the CPU profile and writes the heap profile.
func flushProfiles() {
	if profilesFlushed {
		return
	}
	profilesFlushed = true
	pprof.StopCPUProfile()
	if memProfilePath != "" {
		f, err := os.Create(memProfilePath)
		if err == nil {
			runtime.GC() // materialize up-to-date allocation stats
			err = pprof.WriteHeapProfile(f)
			if cerr := f.Close(); err == nil {
				err = cerr
			}
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "adhocsim: -memprofile: %v\n", err)
		}
	}
}

// exit flushes any active profiles and terminates with the given code,
// so profile files are complete even on error exits.
func exit(code int) {
	flushProfiles()
	os.Exit(code)
}

// listScenarios prints the preset library, one line per preset with its
// one-line description, plus the valid topology kinds, profile names
// and routing protocols for spec authors. The name column sizes itself
// to the longest preset name so descriptions stay aligned as the
// library grows.
func listScenarios() {
	presets := scenario.Presets()
	width := 0
	for _, p := range presets {
		if len(p.Name) > width {
			width = len(p.Name)
		}
	}
	fmt.Println("Built-in scenarios (run with -scenario <name>):")
	for _, p := range presets {
		fmt.Printf("  %-*s  %s\n", width, p.Name, p.Description)
	}
	fmt.Printf("\nTopology kinds for JSON specs: %s\n", strings.Join(scenario.TopologyKinds(), ", "))
	fmt.Printf("Radio profiles: %s\n", strings.Join(scenario.ProfileNames(), ", "))
	fmt.Printf("Routing protocols (\"routing\" spec block): %s\n", strings.Join(routing.Protocols(), ", "))
}

// scenarioOpts carries every -scenario mode knob into runScenario.
type scenarioOpts struct {
	reps, workers                int
	jsonOut, progress            bool
	seed                         *uint64
	dur                          *time.Duration
	parRegions                   string
	obsOut, obsServe, traceLevel string
}

// runScenario resolves ref as a spec file (when it exists or ends in
// .json) or a preset name, applies any explicit -seed/-dur overrides
// and the -parallel-regions kernel selection, runs it with
// replication, and prints the summary.
//
// Every human-facing stderr line — the exec-plan line, progress meters,
// trace output, observability notices — funnels through one obs.Status
// writer, so parallel replications can never splice lines into each
// other or into a live progress meter.
func runScenario(ref string, o scenarioOpts) {
	status := obs.NewStatus(os.Stderr)
	fail := func(code int, err error) {
		status.Linef("adhocsim: %v", err)
		exit(code)
	}
	spec, err := loadScenario(ref)
	if err != nil {
		fail(2, err)
	}
	if o.seed != nil {
		spec.Seed = *o.seed
	}
	if o.dur != nil {
		spec.Duration = scenario.Duration(*o.dur)
	}
	if o.parRegions != "" {
		// With one replication the whole -workers budget is the
		// region-worker count; with a sweep, leave Workers unset so
		// Replicate's splitWorkers divides the budget between
		// replication and region workers instead of oversubscribing.
		regionWorkers := o.workers
		if o.reps > 1 {
			regionWorkers = 0
		}
		par, err := parseParallelRegions(o.parRegions, regionWorkers)
		if err != nil {
			fail(2, err)
		}
		spec.Parallel = par
	}

	// Observability wiring. The registry and tracer ride the spec
	// (JSON-invisible fields), so every layer below publishes into them;
	// results stay byte-identical either way — the equivalence tests in
	// internal/scenario pin that.
	obsOn := o.obsOut != "" || o.obsServe != ""
	var reg *obs.Registry
	if obsOn {
		reg = obs.NewRegistry()
		spec.Obs = &scenario.ObsParams{Enabled: true}
		spec.ObsRegistry = reg
	}
	var tr *trace.Tracer
	if o.traceLevel != "" {
		lv, err := trace.ParseLevel(o.traceLevel)
		if err != nil {
			fail(2, err)
		}
		if lv != trace.LevelOff {
			// The base handle's clock is a placeholder: every subsystem
			// gets a WithClock handle bound to its own scheduler.
			tr = trace.New(status.Writer(), lv, func() time.Duration { return 0 })
			spec.Tracer = tr
		}
	}
	rec := trace.NewSpanRecorder()
	report := func() *obs.Report {
		return &obs.Report{
			Scenario:     spec.Name,
			Seed:         spec.Seed,
			Replications: o.reps,
			Spans:        rec.Records(),
			Metrics:      reg.Snapshot(),
			TraceTail:    tr.Recent(64),
		}
	}
	if o.obsServe != "" {
		addr, err := obs.Serve(o.obsServe, reg, report)
		if err != nil {
			fail(1, err)
		}
		status.Linef("adhocsim: observability on http://%s (/metrics /report /debug/pprof/)", addr)
	}

	if o.progress {
		// Surface the chosen execution plan up front: the fitted region
		// grid and how the worker budget splits between replications and
		// regions. Nothing prints for sequential runs.
		if plan, err := scenario.PlanExec(spec, o.reps, o.workers); err == nil && plan != nil {
			status.Linef("adhocsim: %s", plan.Plan())
		}
	}
	var sum scenario.Summary
	if o.reps <= 1 && (o.progress || obsOn) {
		// A single run has no per-replication completions to count, so
		// -progress meters the run itself: simulated time against the
		// horizon, plus events fired — the meter a city-scale run needs.
		// Driving the instance here in 1% slices (invisible to the
		// simulation) also gives the run report its build/run/drain
		// phases and refreshes the live /metrics view between slices.
		if err := spec.Validate(); err != nil {
			fail(2, err)
		}
		sp := rec.StartSpan("build")
		inst, err := scenario.Build(spec)
		sp.End()
		if err != nil {
			fail(1, err)
		}
		horizon := inst.Spec.Duration.D()
		sp = rec.StartSpan("run")
		const steps = 100
		for i := 1; i <= steps; i++ {
			target := time.Duration(int64(horizon) * int64(i) / steps)
			inst.Net.Run(target - inst.Net.Now())
			inst.PublishObs()
			if o.progress {
				status.Progressf("sim %v / %v  (%d events)", inst.Net.Now().Truncate(time.Millisecond), horizon, inst.Net.Fired())
			}
		}
		sp.End()
		status.Done()
		sp = rec.StartSpan("drain")
		res := inst.Collect(horizon)
		sp.End()
		sum = scenario.SummarizeRuns(spec, []scenario.Result{res})
		sum.Exec = inst.ExecStats()
	} else {
		var prog func(done, total int)
		if o.progress {
			prog = func(done, total int) {
				status.Progressf("runs %d/%d", done, total)
				if done >= total {
					status.Done()
				}
			}
		}
		sp := rec.StartSpan("run")
		sum, err = scenario.Replicate(spec, o.reps, o.workers, prog)
		sp.End()
		if err != nil {
			fail(1, err)
		}
	}
	if o.obsOut != "" {
		if err := writeReport(o.obsOut, report()); err != nil {
			fail(1, err)
		}
	}
	if o.jsonOut {
		if err := runner.WriteJSON(os.Stdout, sum); err != nil {
			fail(1, err)
		}
		return
	}
	fmt.Print(scenario.Render(sum))
}

// writeReport writes the observability report to path ("-" = stdout).
func writeReport(path string, rep *obs.Report) error {
	if path == "-" {
		return rep.WriteJSON(os.Stdout)
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := rep.WriteJSON(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// parseParallelRegions turns a -parallel-regions value into the spec's
// parallel block: "auto" lets the builder size the grid from the field
// extent, "COLSxROWS" forces the shape. workers pins the region-worker
// count when non-zero (results never depend on it); zero lets the
// sweep's splitWorkers derive it from the budget.
func parseParallelRegions(v string, workers int) (*scenario.ParallelParams, error) {
	par := &scenario.ParallelParams{Workers: workers}
	if strings.EqualFold(v, "auto") {
		return par, nil
	}
	c, r, ok := strings.Cut(strings.ToLower(v), "x")
	if ok {
		cols, errC := strconv.Atoi(c)
		rows, errR := strconv.Atoi(r)
		if errC == nil && errR == nil && cols > 0 && rows > 0 {
			par.Cols, par.Rows = cols, rows
			return par, nil
		}
	}
	return nil, fmt.Errorf("-parallel-regions %q: want COLSxROWS (e.g. 4x4) or auto", v)
}

// loadScenario resolves a -scenario argument: an existing regular file
// (or anything .json) parses as a spec; otherwise it is a preset name.
func loadScenario(ref string) (scenario.Spec, error) {
	if fi, err := os.Stat(ref); (err == nil && fi.Mode().IsRegular()) || strings.HasSuffix(ref, ".json") {
		data, err := os.ReadFile(ref)
		if err != nil {
			return scenario.Spec{}, err
		}
		return scenario.ParseSpec(data)
	}
	return scenario.Preset(ref)
}
