package main

import (
	"encoding/json"
	"errors"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"adhocsim/internal/obs"
	"adhocsim/internal/scenario"
)

// TestMain lets a test re-run this binary as the adhocsim command: with
// ADHOCSIM_RUN_MAIN set, the process runs main with the arguments after
// "--" instead of the tests.
func TestMain(m *testing.M) {
	if os.Getenv("ADHOCSIM_RUN_MAIN") != "" {
		for i, a := range os.Args {
			if a == "--" {
				os.Args = append([]string{"adhocsim"}, os.Args[i+1:]...)
				break
			}
		}
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// runMain runs the command with args in a child process and returns
// its exit code and standard error.
func runMain(t *testing.T, args ...string) (int, string) {
	t.Helper()
	cmd := exec.Command(os.Args[0], append([]string{"-test.run=^$", "--"}, args...)...)
	cmd.Env = append(os.Environ(), "ADHOCSIM_RUN_MAIN=1")
	var stderr strings.Builder
	cmd.Stdout = io.Discard
	cmd.Stderr = &stderr
	err := cmd.Run()
	var exitErr *exec.ExitError
	if errors.As(err, &exitErr) {
		return exitErr.ExitCode(), stderr.String()
	}
	if err != nil {
		t.Fatal(err)
	}
	return 0, stderr.String()
}

// TestSchedulerFlagRetired pins the clean failure of the retired
// -scheduler and -rebuild-each-rep flags: the flag package's usage
// error, exit status 2.
func TestSchedulerFlagRetired(t *testing.T) {
	for _, args := range [][]string{
		{"-scheduler", "heap", "-scenario", "hidden-terminal"},
		{"-rebuild-each-rep", "-scenario", "hidden-terminal"},
	} {
		code, stderr := runMain(t, args...)
		if code != 2 {
			t.Errorf("%s: exit status %d, want 2", args[0], code)
		}
		if !strings.Contains(stderr, "flag provided but not defined: "+args[0]) || !strings.Contains(stderr, "Usage of") {
			t.Errorf("%s: stderr lacks the flag package's usage error:\n%s", args[0], stderr)
		}
	}
}

// TestOversizedRegionGridRejected: an explicit region grid beyond the
// executor's bound fails validation with a non-zero exit instead of
// exhausting memory building the lookahead matrix.
func TestOversizedRegionGridRejected(t *testing.T) {
	code, stderr := runMain(t, "-scenario", "hidden-terminal", "-parallel-regions", "1000x1000")
	if code == 0 {
		t.Errorf("exit status 0, want failure")
	}
	if !strings.Contains(stderr, "parallel region grid 1000x1000 exceeds 256 regions") {
		t.Errorf("stderr lacks the validation error:\n%s", stderr)
	}
}

// TestBenchJSONCountsLogicalEvents pins -bench-json's denominator: one
// full random-1024 replication at seed 42 is 3 695 653 logical events,
// the same count the bench module's TestLogicalEventsRandom1024 pins.
func TestBenchJSONCountsLogicalEvents(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a full 5 s random-1024 replication")
	}
	spec, err := scenario.Preset("random-1024")
	if err != nil {
		t.Fatal(err)
	}
	spec.Seed = 42
	out := filepath.Join(t.TempDir(), "bench.json")
	if err := runBenchJSON(spec, 1, out, obs.NewStatus(io.Discard)); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Entry struct {
			Sequential *benchLeg `json:"sequential"`
		} `json:"random_1024"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	leg := doc.Entry.Sequential
	if leg == nil {
		t.Fatalf("no sequential leg in %s", data)
	}
	if leg.LogicalEventsPerRun != 3695653 {
		t.Errorf("logical_events_per_run = %d, want 3695653", leg.LogicalEventsPerRun)
	}
}
