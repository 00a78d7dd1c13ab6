package main

import (
	"encoding/json"
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
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
// its exit code, standard output and standard error.
func runMain(t *testing.T, args ...string) (code int, stdout, stderr string) {
	t.Helper()
	cmd := exec.Command(os.Args[0], append([]string{"-test.run=^$", "--"}, args...)...)
	cmd.Env = append(os.Environ(), "ADHOCSIM_RUN_MAIN=1")
	var out, errOut strings.Builder
	cmd.Stdout = &out
	cmd.Stderr = &errOut
	err := cmd.Run()
	var exitErr *exec.ExitError
	if errors.As(err, &exitErr) {
		return exitErr.ExitCode(), out.String(), errOut.String()
	}
	if err != nil {
		t.Fatal(err)
	}
	return 0, out.String(), errOut.String()
}

// TestFoldedCommandBytes pins the -exp table2 -rate and -exp loss forms
// to the standard output of the capacity and sweep commands they
// replaced, recorded once under testdata; adhocsim adds one separator
// newline after each experiment. capacity's seed was 42 and its
// replication default 4; sweep's seed was 1.
func TestFoldedCommandBytes(t *testing.T) {
	for _, tc := range []struct {
		file string // testdata file, named after the old command line
		args []string
	}{
		{"capacity_rate11_verify.txt", []string{"-exp", "table2", "-rate", "11", "-verify", "-replications", "8"}},
		{"capacity_rate5.5_m700_rts.txt", []string{"-exp", "table2", "-rate", "5.5", "-size", "700", "-rts"}},
		{"capacity_rate2_tcp.txt", []string{"-exp", "table2", "-rate", "2", "-tcp"}},
		{"sweep_rate5.5_from20_to120_step5.txt", []string{"-exp", "loss", "-rate", "5.5", "-from", "20", "-to", "120", "-step", "5", "-replications", "8", "-seed", "1", "-csv"}},
		{"sweep_rate11_json.txt", []string{"-exp", "loss", "-rate", "11", "-replications", "8", "-seed", "1", "-json", "-workers", "1"}},
		{"sweep_rate11_json.txt", []string{"-exp", "loss", "-rate", "11", "-replications", "8", "-seed", "1", "-json", "-workers", "4"}},
		{"sweep_rate1_damp.txt", []string{"-exp", "loss", "-rate", "1", "-weather", "damp", "-seed", "1", "-csv"}},
	} {
		want, err := os.ReadFile(filepath.Join("testdata", tc.file))
		if err != nil {
			t.Fatal(err)
		}
		code, stdout, stderr := runMain(t, tc.args...)
		if code != 0 {
			t.Errorf("%v: exit status %d:\n%s", tc.args, code, stderr)
			continue
		}
		if stdout != string(want)+"\n" {
			t.Errorf("%v: stdout differs from testdata/%s plus a newline:\n%s", tc.args, tc.file, stdout)
		}
	}
}

// TestExpUsageErrors: a flag value no experiment or scenario can run
// with is a usage error, exit status 2, before anything runs. The
// distance ranges are rejected while the list is counted, before it is
// allocated: one would list about 1e300 distances, and in the others
// the step stops advancing the running sum (at once, and at 2^53).
func TestExpUsageErrors(t *testing.T) {
	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"-exp", "fig7", "-dur", "-1s"}, "-dur -1s: want a positive horizon"},
		{[]string{"-exp", "fig2", "-dur", "0s"}, "-dur 0s: want a positive horizon"},
		{[]string{"-exp", "fig3", "-packets", "0"}, "-packets 0: want a positive count"},
		{[]string{"-exp", "fig7", "-replications", "0"}, "-replications 0: want at least 1"},
		{[]string{"-scenario", "ring-8", "-replications", "-1"}, "-replications -1: want at least 1"},
		{[]string{"-exp", "fig3", "-workers", "-1"}, "-workers -1: want 0 (all CPUs) or more"},
		{[]string{"-scenario", "ring-8", "-workers", "-2"}, "-workers -2: want 0 (all CPUs) or more"},
		{[]string{"-scenario", "ring-8", "-workers", "-2", "-parallel-regions", "auto"}, "-workers -2: want 0 (all CPUs) or more"},
		{[]string{"-exp", "loss", "-size", "-1"}, "-size -1: want 1 to 2276 bytes (the largest MSDU, 2304, less 28 B of UDP/IP headers)"},
		{[]string{"-exp", "table2", "-rate", "11", "-verify", "-size", "2305"}, "-size 2305: want 1 to 2276 bytes"},
		{[]string{"-exp", "table2", "-rate", "11", "-size", "2305"}, "-size 2305: want 1 to 2304 bytes (the largest MSDU)"},
		{[]string{"-exp", "loss", "-size", "2277"}, "-size 2277: want 1 to 2276 bytes (the largest MSDU, 2304, less 28 B of UDP/IP headers)"},
		{[]string{"-exp", "table2", "-rate", "11", "-verify", "-size", "2277"}, "-size 2277: want 1 to 2276 bytes"},
		{[]string{"-exp", "table2", "-rate", "11", "-verify", "-tcp", "-size", "2265"}, "-size 2265: want 1 to 2264 bytes (the largest MSDU, 2304, less 40 B of TCP/IP headers)"},
		{[]string{"-exp", "all", "-rate", "11", "-verify", "-size", "2277"}, "-size 2277: want 1 to 2276 bytes"},
		{[]string{"-exp", "table2", "-rate", "3"}, "-rate 3: want 1, 2, 5.5 or 11"},
		{[]string{"-exp", "loss", "-weather", "foggy"}, `-weather "foggy": want clear or damp`},
		{[]string{"-exp", "loss", "-from", "0"}, "invalid distance range"},
		{[]string{"-exp", "loss", "-from", "1e-300", "-to", "1", "-step", "1e-300", "-packets", "1"}, "more than 10000 distances"},
		{[]string{"-exp", "loss", "-from", "1e20", "-to", "2e20", "-step", "1"}, "-step 1 does not advance past 1e+20 m"},
		{[]string{"-exp", "loss", "-from", "9007199254740990", "-to", "9007199254741092", "-step", "1"}, "does not advance past 9.007199254740992e+15 m"},
	} {
		code, stdout, stderr := runMain(t, tc.args...)
		if code != 2 || stdout != "" || !strings.Contains(stderr, tc.want) {
			t.Errorf("%v: exit status %d, stdout %q, stderr %q; want status 2, no output and %q",
				tc.args, code, stdout, stderr, tc.want)
		}
	}
}

// TestLargestPayloadsDeliver: the largest -size each simulated
// experiment accepts still fits one MSDU with its headers, so it
// delivers, and the model alone still takes a full MSDU.
func TestLargestPayloadsDeliver(t *testing.T) {
	for _, tc := range []struct {
		args []string
		want string // a line of stdout that shows delivery
	}{
		{[]string{"-exp", "table2", "-rate", "11", "-size", "2304"}, "rate=11Mbps m=2304B"},
		{[]string{"-exp", "table2", "-rate", "11", "-verify", "-size", "2276", "-dur", "200ms"}, "simulated     7."},
		{[]string{"-exp", "table2", "-rate", "11", "-verify", "-tcp", "-size", "2264", "-dur", "200ms"}, "simulated     6."},
		{[]string{"-exp", "loss", "-size", "2276", "-from", "10", "-to", "10", "-step", "1", "-packets", "20", "-csv"}, "10.0,0.0"},
	} {
		code, stdout, stderr := runMain(t, tc.args...)
		if code != 0 || !strings.Contains(stdout, tc.want) {
			t.Errorf("%v: exit status %d, stderr %q, stdout:\n%s\nwant status 0 and %q",
				tc.args, code, stderr, stdout, tc.want)
		}
	}
}

// TestSchedulerFlagRetired pins the clean failure of the retired
// scheduler, rebuild-each-rep, bench-json, bench-iterations and
// partitioner flags: the flag package's usage error, exit status 2.
// Each case names the flag and its value; the dash is prepended here.
func TestSchedulerFlagRetired(t *testing.T) {
	for _, retired := range [][]string{
		{"scheduler", "heap"},
		{"rebuild-each-rep"},
		{"bench-json", "-"},
		{"bench-iterations", "5"},
		{"partitioner", "uniform"},
	} {
		args := append([]string{"-" + retired[0]}, retired[1:]...)
		args = append(args, "-scenario", "hidden-terminal")
		code, _, stderr := runMain(t, args...)
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
	code, _, stderr := runMain(t, "-scenario", "hidden-terminal", "-parallel-regions", "1000x1000")
	if code == 0 {
		t.Errorf("exit status 0, want failure")
	}
	if !strings.Contains(stderr, "parallel region grid 1000x1000 exceeds 256 regions") {
		t.Errorf("stderr lacks the validation error:\n%s", stderr)
	}
}

// TestExpObsSpans: in -exp mode, -obs writes a report with one span per
// experiment that ran, named after it.
func TestExpObsSpans(t *testing.T) {
	path := filepath.Join(t.TempDir(), "report.json")
	code, _, stderr := runMain(t, "-exp", "table2", "-rate", "2", "-obs", path)
	if code != 0 {
		t.Fatalf("exit status %d:\n%s", code, stderr)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var rep struct {
		Spans []struct{ Name string } `json:"spans"`
	}
	if err := json.Unmarshal(data, &rep); err != nil {
		t.Fatal(err)
	}
	if len(rep.Spans) != 1 || rep.Spans[0].Name != "table2" {
		t.Errorf("spans %+v, want one named table2", rep.Spans)
	}
}
