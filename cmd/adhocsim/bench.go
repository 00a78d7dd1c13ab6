package main

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"sort"
	"strings"
	"time"

	"adhocsim/internal/obs"
	"adhocsim/internal/scenario"
)

// benchLeg is one measured configuration of a benchmarked preset,
// mirroring the per-leg objects of the BENCH_PR*.json documents.
type benchLeg struct {
	MsPerIteration        float64 `json:"ms_per_iteration"`
	NsPerLogicalEvent     float64 `json:"ns_per_logical_event"`
	LogicalEventsPerRun   uint64  `json:"logical_events_per_run"`
	AllocsPerLogicalEvent float64 `json:"allocs_per_logical_event"`
}

// benchPreset is one preset's entry: the human description plus the
// measured leg under the kernel the spec selected.
type benchPreset struct {
	Preset     string    `json:"preset"`
	Sequential *benchLeg `json:"sequential,omitempty"`
	Parallel   *benchLeg `json:"parallel,omitempty"`
}

// runBenchJSON benchmarks the resolved scenario: iters timed iterations,
// each a full Build outside the timer followed by run + collect inside
// it (the discipline the repo's BENCH_PR*.json documents use), and
// writes a document in that same schema to out ("-" = stdout). Medians
// over the iterations keep one descheduling hiccup from skewing the
// figures.
func runBenchJSON(spec scenario.Spec, iters int, out string, status *obs.Status) error {
	if iters < 1 {
		iters = 1
	}
	if err := spec.Validate(); err != nil {
		return err
	}
	walls := make([]float64, 0, iters)
	nsPerEv := make([]float64, 0, iters)
	allocsPerEv := make([]float64, 0, iters)
	var logical uint64
	parallel := false
	for i := 0; i < iters; i++ {
		inst, err := scenario.Build(spec)
		if err != nil {
			return err
		}
		horizon := inst.Spec.Duration.D()
		runtime.GC()
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		t0 := time.Now()
		inst.Net.Run(horizon)
		inst.Collect(horizon)
		wall := time.Since(t0)
		runtime.ReadMemStats(&m1)
		logical = inst.LogicalEvents()
		parallel = inst.Net.Exec != nil
		if inst.Net.Fired() == 0 {
			return fmt.Errorf("bench: scenario %q fired no events", spec.Name)
		}
		walls = append(walls, float64(wall)/float64(time.Millisecond))
		nsPerEv = append(nsPerEv, float64(wall)/float64(logical))
		allocsPerEv = append(allocsPerEv, float64(m1.Mallocs-m0.Mallocs)/float64(logical))
		status.Progressf("bench %d/%d  (%.1f ms, %.1f ns/logical-event)", i+1, iters, walls[i], nsPerEv[i])
	}
	status.Done()

	leg := &benchLeg{
		MsPerIteration:        round1(median(walls)),
		NsPerLogicalEvent:     round1(median(nsPerEv)),
		LogicalEventsPerRun:   logical,
		AllocsPerLogicalEvent: round2(median(allocsPerEv)),
	}
	entry := benchPreset{Preset: spec.Name}
	if parallel {
		entry.Parallel = leg
	} else {
		entry.Sequential = leg
	}
	slug := strings.ReplaceAll(spec.Name, "-", "_")
	if slug == "" {
		slug = "scenario"
	}
	doc := map[string]any{
		"bench":          fmt.Sprintf("adhocsim -scenario %s -bench-json", spec.Name),
		"package":        "adhocsim/internal/scenario",
		"description":    "CLI benchmark of one scenario workload: wall time, ns per logical event and heap allocations per logical event, medians over the timed iterations",
		"cpu":            cpuModel(),
		"cpus_available": runtime.GOMAXPROCS(0),
		"benchtime":      fmt.Sprintf("%dx, one full Build outside the timer then run + collect per iteration", iters),
		slug:             entry,
	}
	if out == "-" {
		return writeBenchDoc(os.Stdout, doc)
	}
	f, err := os.Create(out)
	if err != nil {
		return err
	}
	if err := writeBenchDoc(f, doc); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func writeBenchDoc(w *os.File, doc map[string]any) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(doc)
}

// median of a copy (the caller's slice stays in iteration order).
func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func round1(v float64) float64 { return float64(int64(v*10+0.5)) / 10 }
func round2(v float64) float64 { return float64(int64(v*100+0.5)) / 100 }

// cpuModel reports the host CPU model from /proc/cpuinfo, falling back
// to the architecture when unreadable (non-Linux, locked-down runners).
func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if name, ok := strings.CutPrefix(line, "model name"); ok {
				if _, v, ok := strings.Cut(name, ":"); ok {
					return strings.TrimSpace(v)
				}
			}
		}
	}
	return runtime.GOARCH
}
