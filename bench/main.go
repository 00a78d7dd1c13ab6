// Command bench is adhocsim's benchmark. It runs five workloads, from the
// paper's Figure 7 to a 25k-station city, prints every metric with its
// unit and sample count, and checks every result it measures.
//
// From this directory (run.sh does the same from the repository root,
// keeping its build output under .bench_build/):
//
//	go run . [-seed 42] [-seconds 15] [-workload NAME] [-trace 0|1] [-out FILE]
//	go run . -compare A.json B.json
//
// Without -trace each workload gets an untraced pass, which gives the
// end-to-end metrics, then a traced pass (obs registry and CPU profiler
// on), which gives the per-layer split. -trace 0 runs only the first;
// -trace 1 runs a shorter untraced pass as the traced pass's reference,
// then the traced pass. With -workload, the last line of standard output
// is one JSON object: {"correct", "attempted", "failed", "metrics"}.
// -compare prints, per workload and end-to-end metric, whether report B
// is within, worse than, better than or unresolved against report A by
// the bounds in BENCHMARK.json, and exits non-zero if any is worse.
package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
	"strings"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

// report is the full output of one invocation, as -out writes it.
type report struct {
	Host      *host            `json:"host,omitempty"`
	Seed      uint64           `json:"seed"`
	Seconds   float64          `json:"seconds"`
	Workloads []workloadReport `json:"workloads"`
}

type host struct {
	CPU        string `json:"cpu"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Go         string `json:"go"`
	Platform   string `json:"platform"`
}

type workloadReport struct {
	Name      string   `json:"name"`
	Attempted int      `json:"attempted"`
	Failed    int      `json:"failed"`
	Failures  []string `json:"failures,omitempty"`
	// ResultSHA256 digests the bytes every replication of each seed
	// reproduced: information, not a metric.
	ResultSHA256 string            `json:"result_sha256"`
	EndToEnd     map[string]metric `json:"end_to_end,omitempty"`
	PerLayer     map[string]metric `json:"per_layer,omitempty"`
}

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	name := fs.String("workload", "", "run only this workload (default: all of them)")
	seed := fs.Uint64("seed", 42, "seed of every replication of a workload")
	seconds := fs.Float64("seconds", 15, "measured seconds of one pass")
	traceMode := fs.Int("trace", -1, "0: untraced pass only; 1: traced pass only; -1: both")
	out := fs.String("out", "", "write the full report as JSON to this file")
	compare := fs.Bool("compare", false, "compare two -out reports given as arguments")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *compare {
		if fs.NArg() != 2 {
			return errors.New("usage: -compare A.json B.json")
		}
		return compareFiles(fs.Arg(0), fs.Arg(1), stdout)
	}
	if fs.NArg() != 0 {
		return fmt.Errorf("unexpected arguments %q", fs.Args())
	}
	if !(*seconds > 0) {
		return fmt.Errorf("-seconds must be positive, got %v", *seconds)
	}
	if *traceMode < -1 || *traceMode > 1 {
		return fmt.Errorf("-trace must be 0, 1 or -1, got %d", *traceMode)
	}
	selected := workloads
	if *name != "" {
		w, err := findWorkload(*name)
		if err != nil {
			return err
		}
		selected = []workload{w}
	}

	cfg := config{seed: *seed, seconds: *seconds}
	rep := report{Seed: cfg.seed, Seconds: cfg.seconds}
	failed := 0
	for _, w := range selected {
		wr, err := runWorkload(w, cfg, *traceMode)
		if err != nil {
			return err
		}
		printWorkload(stdout, wr)
		rep.Workloads = append(rep.Workloads, wr)
		failed += wr.Failed
	}
	if *out != "" {
		rep.Host = hostInfo()
		if err := writeReport(*out, rep); err != nil {
			return err
		}
	}
	if *name != "" {
		return printResultLine(stdout, rep.Workloads[0], *traceMode)
	}
	if failed > 0 {
		return fmt.Errorf("%d operation(s) failed", failed)
	}
	return nil
}

// runWorkload runs the passes -trace asks for and gathers their metrics.
func runWorkload(w workload, cfg config, traceMode int) (workloadReport, error) {
	fmt.Fprintf(os.Stderr, "bench: %s (seed %d)\n", w.name, cfg.seed)
	builds, untracedSeconds, tracedSeconds := w.builds, cfg.seconds, cfg.seconds
	if traceMode == 1 {
		// The untraced pass is then only the traced pass's reference: a
		// median replication and the digests it must reproduce.
		builds, untracedSeconds, tracedSeconds = 1, cfg.seconds/3, cfg.seconds*2/3
	}
	untraced, err := measure(w, cfg, builds, untracedSeconds, nil, nil)
	if err != nil {
		return workloadReport{}, err
	}
	passes := []*pass{untraced}
	wr := workloadReport{Name: w.name, ResultSHA256: untraced.resultDigest()}
	if traceMode != 1 {
		wr.EndToEnd = untraced.endToEnd()
	}
	if traceMode != 0 {
		traced, err := measureTraced(w, cfg, 1, tracedSeconds, untraced.wants)
		if err != nil {
			return workloadReport{}, err
		}
		wr.PerLayer = traced.perLayer(median(untraced.reps.samples) * untraced.reps.scale())
		passes = append(passes, traced)
	}
	for _, p := range passes {
		wr.Attempted += p.attempted
		wr.Failed += p.failed
		wr.Failures = append(wr.Failures, p.failures...)
	}
	return wr, nil
}

func printWorkload(w io.Writer, wr workloadReport) {
	fmt.Fprintf(w, "%s: %d operations, %d failed, result sha256 %.16s\n", wr.Name, wr.Attempted, wr.Failed, wr.ResultSHA256)
	for _, f := range wr.Failures {
		fmt.Fprintf(w, "  FAILED %s\n", f)
	}
	for _, sec := range []struct {
		title string
		m     map[string]metric
	}{{"end to end (untraced)", wr.EndToEnd}, {"per layer (traced)", wr.PerLayer}} {
		if len(sec.m) == 0 {
			continue
		}
		fmt.Fprintf(w, "  %s\n", sec.title)
		names := make([]string, 0, len(sec.m))
		for n := range sec.m {
			names = append(names, n)
		}
		sort.Strings(names)
		for _, n := range names {
			m := sec.m[n]
			fmt.Fprintf(w, "    %-34s %14.6g %-6s", n, m.Value, m.Unit)
			if m.N > 0 {
				fmt.Fprintf(w, " n=%-5d ±%.1f%%", m.N, 100*m.Spread)
			}
			fmt.Fprintln(w)
		}
	}
}

// printResultLine prints the one-line result of a single-workload run.
func printResultLine(w io.Writer, wr workloadReport, traceMode int) error {
	type valueUnit struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := map[string]valueUnit{}
	add := func(m map[string]metric, names []string) {
		for n, v := range pick(m, names) {
			metrics[n] = valueUnit{v.Value, v.Unit}
		}
	}
	if traceMode != 1 {
		add(wr.EndToEnd, endToEndNames)
	}
	if traceMode != 0 {
		add(wr.PerLayer, perLayerNames)
	}
	line, err := json.Marshal(struct {
		Correct   bool                 `json:"correct"`
		Attempted int                  `json:"attempted"`
		Failed    int                  `json:"failed"`
		Metrics   map[string]valueUnit `json:"metrics"`
	}{wr.Failed == 0, wr.Attempted, wr.Failed, metrics})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", line)
	return err
}

func writeReport(path string, rep report) error {
	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

func readReport(path string) (report, error) {
	var rep report
	data, err := os.ReadFile(path)
	if err != nil {
		return rep, err
	}
	if err := json.Unmarshal(data, &rep); err != nil {
		return rep, fmt.Errorf("%s: %w", path, err)
	}
	return rep, nil
}

// hostInfo describes the machine a report was measured on.
func hostInfo() *host {
	h := &host{
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Go:         runtime.Version(),
		Platform:   runtime.GOOS + "/" + runtime.GOARCH,
	}
	if f, err := os.Open("/proc/cpuinfo"); err == nil {
		defer f.Close()
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
				h.CPU = strings.TrimSpace(v)
				break
			}
		}
	}
	return h
}
