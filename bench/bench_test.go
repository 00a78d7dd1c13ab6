package main

import (
	"bytes"
	"encoding/json"
	"os"
	"strings"
	"testing"
	"time"

	"adhocsim/internal/scenario"
)

// benchmarkFile is the part of BENCHMARK.json the tests check.
type benchmarkFile struct {
	Workloads []struct{ Name string }
	EndToEnd  []boundedMetric               `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

func readBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var f benchmarkFile
	if err := json.Unmarshal(data, &f); err != nil {
		t.Fatal(err)
	}
	return f
}

// smokeConfig runs every workload at a 1 s horizon and a negligible
// measuring time, so that each pass runs its set-up, one cycle of seeds
// and, on fig7-sweep's traced pass, minReps sweeps: the whole driver in
// seconds.
func smokeConfig() config {
	return config{seed: 42, seconds: 1e-3, horizon: time.Second}
}

// TestBenchmarkFileMatchesDriver keeps BENCHMARK.json and the driver in
// step: the same workloads and metric names, the set-up metric present.
func TestBenchmarkFileMatchesDriver(t *testing.T) {
	f := readBenchmarkFile(t)
	if len(f.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the driver %d", len(f.Workloads), len(workloads))
	}
	for i, w := range f.Workloads {
		if w.Name != workloads[i].name {
			t.Errorf("workload %d: BENCHMARK.json %q, driver %q", i, w.Name, workloads[i].name)
		}
	}
	same := func(kind string, file, code []string) {
		if strings.Join(file, ",") != strings.Join(code, ",") {
			t.Errorf("%s metrics differ:\nBENCHMARK.json %v\ndriver         %v", kind, file, code)
		}
	}
	var e2e, layer []string
	for _, m := range f.EndToEnd {
		e2e = append(e2e, m.Name)
	}
	for _, m := range f.PerLayer {
		layer = append(layer, m.Name)
	}
	same("end_to_end", e2e, endToEndNames)
	same("per_layer", layer, perLayerNames)
}

// TestSmoke runs three workloads through the real driver, both passes,
// and checks that every metric BENCHMARK.json names is reported with a
// unit and that no operation failed.
func TestSmoke(t *testing.T) {
	f := readBenchmarkFile(t)
	cfg := smokeConfig()
	for _, name := range []string{"fig7-sweep", "random-1024", "churn-mesh"} {
		w, err := findWorkload(name)
		if err != nil {
			t.Fatal(err)
		}
		wr, err := runWorkload(w, cfg, -1)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if wr.Failed != 0 || wr.Attempted == 0 {
			t.Errorf("%s: %d of %d operations failed: %v", name, wr.Failed, wr.Attempted, wr.Failures)
		}
		for _, m := range f.EndToEnd {
			if got, ok := wr.EndToEnd[m.Name]; !ok || got.Unit != m.Unit || !(got.Value > 0) {
				t.Errorf("%s: end-to-end %s = %+v, want a positive value in %s", name, m.Name, got, m.Unit)
			}
		}
		for _, m := range f.PerLayer {
			if got, ok := wr.PerLayer[m.Name]; !ok || got.Unit != m.Unit {
				t.Errorf("%s: per-layer %s = %+v, want one in %s", name, m.Name, got, m.Unit)
			}
		}
		if cov := wr.PerLayer["trace.coverage"].Value; !(cov > 0) {
			t.Errorf("%s: trace.coverage %v, want the profile to have seen the pass", name, cov)
		}

		var line bytes.Buffer
		if err := printResultLine(&line, wr, 0); err != nil {
			t.Fatal(err)
		}
		var res struct {
			Correct           bool
			Attempted, Failed int
			Metrics           map[string]struct{ Value float64 }
		}
		if err := json.Unmarshal(line.Bytes(), &res); err != nil {
			t.Fatalf("%s: result line %q: %v", name, line.String(), err)
		}
		if !res.Correct || len(res.Metrics) != len(f.EndToEnd) {
			t.Errorf("%s: result line %s, want correct with the %d end-to-end metrics", name, line.String(), len(f.EndToEnd))
		}
	}
}

// TestCityWorkloadsResolve validates the city workloads' specs without
// building 25 000 stations.
func TestCityWorkloadsResolve(t *testing.T) {
	for _, name := range []string{"blocks-25k", "blocks-25k-par"} {
		w, err := findWorkload(name)
		if err != nil {
			t.Fatal(err)
		}
		spec, err := w.spec(smokeConfig())
		if err != nil {
			t.Fatal(err)
		}
		if err := spec.Validate(); err != nil {
			t.Errorf("%s: %v", name, err)
		}
		if w.parallel != (spec.Parallel != nil) {
			t.Errorf("%s: parallel block %v, want %v", name, spec.Parallel, w.parallel)
		}
		if tp := spec.Topology; tp.N != 25000 || tp.Rows != 16 || tp.Cols != 16 || tp.Width != 13600 || tp.Height != 13600 {
			t.Errorf("%s: topology %+v, want 25000 stations in 16×16 blocks over 13.6 km", name, tp)
		}
	}
}

// TestLogicalEventsRandom1024 pins the logical-event count of one full
// random-1024 replication at seed 42: the reference stream the earlier
// ns/logical-event figures divide by.
func TestLogicalEventsRandom1024(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a full 5 s random-1024 replication")
	}
	w, err := findWorkload("random-1024")
	if err != nil {
		t.Fatal(err)
	}
	cfg := smokeConfig()
	cfg.horizon = 0
	p, inst, res := firstRun(t, w, cfg)
	logical, err := p.gate(inst, res, 0)
	if err != nil {
		t.Fatal(err)
	}
	if logical != 3695653 {
		t.Errorf("logical events %d, want 3695653", logical)
	}
}

// firstRun builds w's first seed and runs one replication, outside any
// pass loop.
func firstRun(t *testing.T, w workload, cfg config) (*pass, *scenario.Instance, scenario.Result) {
	t.Helper()
	spec, err := w.spec(cfg)
	if err != nil {
		t.Fatal(err)
	}
	p := &pass{spec: spec, seeds: []uint64{spec.Seed}, wants: make([]string, 1), wantSource: "the test"}
	inst, err := scenario.Build(spec)
	if err != nil {
		t.Fatal(err)
	}
	res, _, _ := runCollect(inst)
	return p, inst, res
}

// TestGateCountsFailures shows that a digest mismatch, a flow that
// delivered nothing in any replication, and a panic each count as a
// failed operation, while one starved replication among delivering
// ones does not.
func TestGateCountsFailures(t *testing.T) {
	w, err := findWorkload("fig7-sweep")
	if err != nil {
		t.Fatal(err)
	}
	p, inst, res := firstRun(t, w, smokeConfig())
	p.op("replication", func() error { _, err := p.gate(inst, res, 0); return err })
	if p.failed != 0 {
		t.Fatalf("a clean replication failed: %v", p.failures)
	}

	changed := res
	changed.Flows = append([]scenario.FlowResult(nil), res.Flows...)
	changed.Flows[0].GoodputKbps++
	p.op("replication", func() error { _, err := p.gate(inst, changed, 0); return err })
	if p.failed != 1 || !strings.Contains(p.failures[0], "digest") {
		t.Fatalf("a changed result: failed=%d %v, want a digest failure", p.failed, p.failures)
	}

	starved := res
	starved.Flows = append([]scenario.FlowResult(nil), res.Flows...)
	starved.Flows[1].Received = 0
	var delivered totals
	delivered.add(starved, 0, 0)
	delivered.add(starved, 0, 0)
	p.op("delivery check", func() error { return checkDelivery(delivered.flowReceived, 2) })
	if p.failed != 2 || !strings.Contains(p.failures[1], "delivered 0 packets") {
		t.Fatalf("a flow starved throughout: failed=%d %v, want a delivery failure", p.failed, p.failures)
	}
	delivered.add(res, 0, 0)
	p.op("delivery check", func() error { return checkDelivery(delivered.flowReceived, 3) })
	if p.failed != 2 {
		t.Fatalf("one starved replication among three failed the check: %v", p.failures)
	}

	p.op("replication", func() error { panic("boom") })
	if p.failed != 3 || !strings.Contains(p.failures[2], "panic: boom") {
		t.Fatalf("a panic: failed=%d %v", p.failed, p.failures)
	}
	wr := workloadReport{Attempted: p.attempted, Failed: p.failed}
	if got := failRatio(wr); got != 0.6 {
		t.Errorf("fail ratio %v, want 0.6", got)
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) and ([3, 1, 2], n=4).
	for _, c := range []struct {
		xs   []float64
		want [3]float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{3, 1, 2}, [3]float64{1, 2, 3}},
	} {
		if got := quartiles(c.xs); got != c.want {
			t.Errorf("quartiles(%v) = %v, want %v", c.xs, got, c.want)
		}
	}
}

func TestVerdict(t *testing.T) {
	rep := boundedMetric{Name: "rep_ms.p50", Better: "lower", Bound: 0.1}
	setup := boundedMetric{Name: "setup_s", Better: "lower", Bound: 0.1}
	rate := boundedMetric{Name: "reps_per_s", Better: "higher", Bound: 0.1}
	m := func(v, spread float64) metric { return metric{Value: v, Spread: spread} }
	for _, c := range []struct {
		bm   boundedMetric
		a, b metric
		want string
	}{
		{rep, m(100, 0.01), m(105, 0.01), "within"},
		{rep, m(100, 0.01), m(120, 0.01), "worse"},
		{rep, m(100, 0.01), m(80, 0.01), "better"},
		{rep, m(100, 0.01), m(120, 0.2), "unresolved"},
		{setup, m(0.001, 0.01), m(0.002, 0.01), "within"}, // under the 5 ms floor
		{setup, m(0.1, 0.01), m(0.2, 0.01), "worse"},
		{rate, m(100, 0.01), m(80, 0.01), "worse"},
	} {
		if got := verdict(c.bm, c.a, c.b); got != c.want {
			t.Errorf("%s %v → %v: %s, want %s", c.bm.Name, c.a.Value, c.b.Value, got, c.want)
		}
	}

	a := report{Workloads: []workloadReport{{Name: "w", Attempted: 10, EndToEnd: map[string]metric{"rep_ms.p50": m(100, 0.01)}}}}
	b := report{Workloads: []workloadReport{{Name: "w", Attempted: 10, Failed: 1, EndToEnd: map[string]metric{"rep_ms.p50": m(101, 0.01)}}}}
	var out bytes.Buffer
	if worse := compareReports([]boundedMetric{rep}, a, b, &out); worse != 1 {
		t.Errorf("one more failed operation: %d rows worse, want 1\n%s", worse, out.String())
	}
}
