package scenario

import (
	"encoding/json"
	"fmt"
	"testing"

	"adhocsim/internal/golden"
)

// TestMain checks the package's recorded runs against
// testdata/golden.json; see internal/golden for -update.
func TestMain(m *testing.M) { golden.Main(m) }

// checkGolden checks a finished run of inst against its entry in
// testdata/golden.json: the SHA-256 of its Result JSON and its fired
// and logical event counts. The key reads name/kernel/seed/horizon. A
// parallel run's result is the same at every worker count, so the
// worker count is not part of the key: every count checked must match
// the one entry.
func checkGolden(t *testing.T, name string, inst *Instance) {
	t.Helper()
	kernel := "sequential"
	if inst.Spec.Parallel != nil {
		kernel = "parallel"
	}
	horizon := inst.Spec.Duration.D()
	buf, err := json.Marshal(inst.Collect(horizon))
	if err != nil {
		t.Fatal(err)
	}
	golden.Check(t, fmt.Sprintf("%s/%s/%d/%v", name, kernel, inst.Spec.Seed, horizon), buf,
		golden.Counts{Fired: inst.Net.Fired(), Logical: inst.LogicalEvents()})
}

// runGolden builds spec, runs it over its horizon and checks the run
// against the entry for name.
func runGolden(t *testing.T, name string, spec Spec) {
	t.Helper()
	inst, err := Build(spec)
	if err != nil {
		t.Fatal(err)
	}
	inst.Net.Run(inst.Spec.Duration.D())
	checkGolden(t, name, inst)
}
