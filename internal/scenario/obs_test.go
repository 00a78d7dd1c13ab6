package scenario

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"sync"
	"testing"
	"time"

	"adhocsim/internal/obs"
)

// The observability layer's hard contract (see DESIGN.md): metrics are
// strictly out-of-band. A run must produce byte-identical results with
// obs off, obs on, and obs on while a live /metrics endpoint is being
// scraped mid-run — and the concurrent-scrape leg must be race-clean
// (this file is part of the CI race job).

// obsToggleCases spans the kernels: a small sequential workload, a
// faulted workload (crash/restart closures increment fault counters),
// and a multi-region parallel city slice (exec histograms active).
func obsToggleCases(t *testing.T) []Spec {
	t.Helper()
	seq := cityShortSpec(t, "hidden-terminal", 2*time.Second)
	faulted := cityShortSpec(t, "churn-mesh-5x5", 4*time.Second)
	par := cityShortSpec(t, "random-1024", time.Second)
	par.Parallel = &ParallelParams{Cols: 2, Rows: 2, Workers: 2}
	return []Spec{seq, faulted, par}
}

func TestObsTogglesByteIdentical(t *testing.T) {
	for _, spec := range obsToggleCases(t) {
		spec := spec
		t.Run(spec.Name, func(t *testing.T) {
			base := runJSON(t, spec)

			on := spec
			on.Obs = &ObsParams{Enabled: true}
			if got := runJSON(t, on); !bytes.Equal(base, got) {
				t.Fatal("result differs with Obs.Enabled")
			}

			// An explicit registry implies obs and must fill up while
			// leaving the result bytes alone.
			reg := obs.NewRegistry()
			withReg := spec
			withReg.ObsRegistry = reg
			if got := runJSON(t, withReg); !bytes.Equal(base, got) {
				t.Fatal("result differs with an explicit ObsRegistry")
			}
			if v := reg.Counter("sim_events_fired_total", "").Value(); v == 0 {
				t.Fatal("registry saw no fired events")
			}
			if v := reg.Counter("medium_transmissions_total", "").Value(); v == 0 {
				t.Fatal("registry saw no transmissions")
			}
			// Every preset here contends, so backoff countdowns cross
			// slots without heap events, and those slots are part of
			// the fired count.
			slots := reg.Counter("sim_countdown_slots_total", "").Value()
			fired := reg.Counter("sim_events_fired_total", "").Value()
			if slots == 0 || slots >= fired {
				t.Fatalf("sim_countdown_slots_total = %d of %d fired events, want a nonzero part", slots, fired)
			}
			// Idle stations' DIFS and NAV timers go to the FIFOs beside
			// the heap, and every insertion still counts as a push.
			// hidden-terminal's three stations never queue the
			// sim.fifoMinLen events a FIFO needs.
			appends := reg.Counter("sim_fifo_appends_total", "").Value()
			pushes := reg.Counter("sim_queue_pushes_total", "").Value()
			if spec.Name == "hidden-terminal" {
				if appends != 0 {
					t.Fatalf("sim_fifo_appends_total = %d on a three-station run, want 0", appends)
				}
			} else if appends == 0 || appends >= pushes {
				t.Fatalf("sim_fifo_appends_total = %d of %d pushes, want a nonzero part", appends, pushes)
			}
			// Stations with nothing to send wait out their DIFS and
			// EIFS as marks: hidden-terminal's receiver, most of the
			// mesh and of the 1024-station field.
			if v := reg.Counter("sim_marks_total", "").Value(); v == 0 {
				t.Fatal("registry saw no marks")
			}
			if v := reg.Gauge("medium_gain_cache_entries", "").Value(); v == 0 {
				t.Fatal("registry saw no link-gain entries")
			}
			if spec.Parallel != nil {
				if v := reg.Counter("exec_windows_total", "").Value(); v == 0 {
					t.Fatal("parallel run published no exec windows")
				}
				// Most of random-1024's candidate links sit under the
				// irrelevance cut, and the region shards' cut counts
				// must fold into the medium's.
				if v := reg.Counter("medium_fade_cuts_total", "").Value(); v == 0 {
					t.Fatal("parallel random-1024 run published no fade cuts")
				}
			}
		})
	}
}

// TestObsScrapeDuringRun drives runs in 1% slices, publishing the
// metrics after each as the CLI's metered single run does (slicing is
// invisible to the simulation), while a goroutine hammers a live
// /metrics endpoint over the shared registry. The result must still match the
// obs-off baseline byte for byte, and the scraper must actually see
// mid-run metric text.
func TestObsScrapeDuringRun(t *testing.T) {
	for _, spec := range obsToggleCases(t) {
		spec := spec
		t.Run(spec.Name, func(t *testing.T) {
			base := runJSON(t, spec)

			reg := obs.NewRegistry()
			s := spec
			s.ObsRegistry = reg
			srv := httptest.NewServer(obs.Handler(reg, nil))
			defer srv.Close()

			scrape := func() string {
				resp, err := http.Get(srv.URL + "/metrics")
				if err != nil {
					return ""
				}
				body, _ := io.ReadAll(resp.Body)
				resp.Body.Close()
				return string(body)
			}

			// A background goroutine scrapes continuously (the race
			// detector's food) ...
			stop := make(chan struct{})
			var wg sync.WaitGroup
			wg.Add(1)
			go func() {
				defer wg.Done()
				for {
					select {
					case <-stop:
						return
					default:
						scrape()
					}
				}
			}()

			// ... and one deterministic scrape fires between slices at
			// mid-horizon, so even a run too fast for the goroutine
			// provably serves mid-run metric text.
			inst, err := Build(s)
			if err != nil {
				close(stop)
				wg.Wait()
				t.Fatalf("Build(%s): %v", s.Name, err)
			}
			horizon := inst.Spec.Duration.D()
			var midRun string
			for i := 1; i <= 100; i++ {
				inst.Net.Run(time.Duration(int64(horizon)*int64(i)/100) - inst.Net.Now())
				inst.PublishObs()
				if now := inst.Net.Now(); midRun == "" && now >= horizon/2 && now < horizon {
					midRun = scrape()
				}
			}
			close(stop)
			wg.Wait()
			got, err := json.Marshal(inst.Collect(horizon))
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(base, got) {
				t.Fatal("result differs when scraped mid-run")
			}
			if !strings.Contains(midRun, "sim_events_fired_total") {
				t.Fatalf("mid-run scrape missing metrics: %q", midRun)
			}
		})
	}
}

// TestObsReplicateAccumulates shares one registry across a parallel
// replication sweep: the summary must match the obs-off run byte for
// byte while the runner metrics account for every replication.
func TestObsReplicateAccumulates(t *testing.T) {
	spec := cityShortSpec(t, "hidden-terminal", 2*time.Second)
	base, err := Replicate(spec, 3, 2, nil)
	if err != nil {
		t.Fatal(err)
	}
	baseJSON, err := json.Marshal(base)
	if err != nil {
		t.Fatal(err)
	}

	reg := obs.NewRegistry()
	s := spec
	s.Obs = &ObsParams{Enabled: true}
	s.ObsRegistry = reg
	sum, err := Replicate(s, 3, 2, nil)
	if err != nil {
		t.Fatal(err)
	}
	gotJSON, err := json.Marshal(sum)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(baseJSON, gotJSON) {
		t.Fatal("replication summary differs with obs on")
	}
	if v := reg.Counter("runner_reps_total", "").Value(); v != 3 {
		t.Fatalf("runner_reps_total = %d, want 3", v)
	}
	if v := reg.Counter("runner_panics_recovered_total", "").Value(); v != 0 {
		t.Fatalf("runner_panics_recovered_total = %d, want 0", v)
	}
	if v := reg.Counter("sim_events_fired_total", "").Value(); v == 0 {
		t.Fatal("no kernel metrics accumulated across replications")
	}
	if h := reg.Histogram("runner_rep_wall_ns", "").Count(); h != 3 {
		t.Fatalf("runner_rep_wall_ns count = %d, want 3", h)
	}
}

// TestObsOverheadRandom1024 is the CI bench-smoke (satellite of the
// observability PR): random-1024 with obs on must stay within 3% of
// obs off on ns per logical event. Timing assertions are flaky on
// shared runners, so the 3% gate is enforced only under
// OBS_BENCH_STRICT=1 (the dedicated CI step); otherwise the ratio is
// logged for the record.
func TestObsOverheadRandom1024(t *testing.T) {
	if testing.Short() {
		t.Skip("timing benchmark; skipped in -short")
	}
	spec := cityShortSpec(t, "random-1024", 2*time.Second)

	// One timed iteration: Build outside the timer, run + collect
	// inside — the BENCH_PR*.json discipline.
	iteration := func(s Spec) float64 {
		inst, err := Build(s)
		if err != nil {
			t.Fatal(err)
		}
		horizon := inst.Spec.Duration.D()
		t0 := time.Now()
		inst.Net.Run(horizon)
		inst.Collect(horizon)
		wall := time.Since(t0)
		return float64(wall) / float64(inst.Net.Fired())
	}

	// Interleave the legs (off, on, off, on, ...) and take each leg's
	// best of 5, so a frequency ramp or noisy neighbor hits both sides
	// rather than biasing whichever leg ran second.
	onSpec := spec
	onSpec.Obs = &ObsParams{Enabled: true}
	iteration(spec) // warm caches outside the measurement
	off, withObs := 0.0, 0.0
	for i := 0; i < 5; i++ {
		if v := iteration(spec); off == 0 || v < off {
			off = v
		}
		if v := iteration(onSpec); withObs == 0 || v < withObs {
			withObs = v
		}
	}
	ratio := withObs / off
	t.Logf("random-1024 ns/logical-event: obs off %.1f, obs on %.1f (ratio %.3f)", off, withObs, ratio)
	if os.Getenv("OBS_BENCH_STRICT") == "1" && ratio > 1.03 {
		t.Errorf("obs overhead %.1f%% exceeds the 3%% budget", 100*(ratio-1))
	}
}
