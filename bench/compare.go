package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
)

// boundedMetric is one end_to_end entry of BENCHMARK.json.
type boundedMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// floors are absolute changes too small to count, whatever their
// relative size: a few milliseconds of timer and scheduler jitter on a
// sub-millisecond Build, one megabyte of allocator slack on a small heap.
var floors = map[string]float64{"setup_s": 0.005, "live_heap_mb": 1}

// readBounds reads the end-to-end bounds from BENCHMARK.json, found in
// the working directory or its parent.
func readBounds() ([]boundedMetric, error) {
	var data []byte
	var err error
	for _, path := range []string{"BENCHMARK.json", "../BENCHMARK.json"} {
		if data, err = os.ReadFile(path); err == nil {
			break
		}
	}
	if err != nil {
		return nil, fmt.Errorf("BENCHMARK.json not found: %w", err)
	}
	var file struct {
		EndToEnd []boundedMetric `json:"end_to_end"`
	}
	if err := json.Unmarshal(data, &file); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	return file.EndToEnd, nil
}

func compareFiles(pathA, pathB string, w io.Writer) error {
	bounds, err := readBounds()
	if err != nil {
		return err
	}
	a, err := readReport(pathA)
	if err != nil {
		return err
	}
	b, err := readReport(pathB)
	if err != nil {
		return err
	}
	if worse := compareReports(bounds, a, b, w); worse > 0 {
		return fmt.Errorf("%d metric(s) worse", worse)
	}
	return nil
}

// compareReports prints one row per workload and end-to-end metric, plus
// each workload's fail_ratio, and returns how many rows are worse.
func compareReports(bounds []boundedMetric, a, b report, w io.Writer) (worse int) {
	fmt.Fprintf(w, "%-16s %-14s %14s %14s %8s  %s\n", "workload", "metric", "A", "B", "change", "verdict")
	for _, wb := range b.Workloads {
		wa, ok := findReport(a, wb.Name)
		if !ok {
			fmt.Fprintf(w, "%-16s missing from A\n", wb.Name)
			continue
		}
		for _, bm := range bounds {
			ma, okA := wa.EndToEnd[bm.Name]
			mb, okB := wb.EndToEnd[bm.Name]
			if !okA || !okB {
				fmt.Fprintf(w, "%-16s %-14s missing\n", wb.Name, bm.Name)
				continue
			}
			v := verdict(bm, ma, mb)
			if v == "worse" {
				worse++
			}
			fmt.Fprintf(w, "%-16s %-14s %14.6g %14.6g %+7.1f%%  %s\n",
				wb.Name, bm.Name, ma.Value, mb.Value, 100*(mb.Value-ma.Value)/ma.Value, v)
		}
		// Any increase in the share of failed operations is worse.
		fa, fb := failRatio(wa), failRatio(wb)
		v := "within"
		switch {
		case fb > fa:
			v = "worse"
			worse++
		case fb < fa:
			v = "better"
		}
		fmt.Fprintf(w, "%-16s %-14s %14.6g %14.6g %8s  %s\n", wb.Name, "fail_ratio", fa, fb, "", v)
	}
	return worse
}

// verdict judges B's median against A's. A change counts only when it
// exceeds both the relative bound and the metric's absolute floor; when
// either median's spread is wider than the bound, the pair cannot
// resolve a change of that size.
func verdict(bm boundedMetric, a, b metric) string {
	change := (b.Value - a.Value) / a.Value
	if bm.Better == "higher" {
		change = -change
	}
	significant := math.Abs(b.Value-a.Value) > floors[bm.Name]
	switch {
	case math.Max(a.Spread, b.Spread) > bm.Bound:
		return "unresolved"
	case change > bm.Bound && significant:
		return "worse"
	case change < -bm.Bound && significant:
		return "better"
	}
	return "within"
}

func findReport(r report, name string) (workloadReport, bool) {
	for _, w := range r.Workloads {
		if w.Name == name {
			return w, true
		}
	}
	return workloadReport{}, false
}

func failRatio(w workloadReport) float64 {
	return ratio(float64(w.Failed), float64(w.Attempted))
}
