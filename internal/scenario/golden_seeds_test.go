package scenario

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"testing"
	"time"

	"adhocsim/internal/runner"
)

// goldenSeedRuns are the presets and horizons TestGoldenSeeds pins: the
// EIFS-driven four-station scenario, and the two fault presets whose
// crashes and partitions cancel backoff countdowns mid-slot. Each
// horizon reaches past its preset's first fault edge.
var goldenSeedRuns = []struct {
	name    string
	horizon time.Duration
}{
	{"paper-four-node", 2 * time.Second},
	{"churn-mesh-5x5", 3 * time.Second},
	{"partition-heal-chain-8", 4 * time.Second},
}

// goldenSeeds is the fixed seed set: runner.SeedFor(1, i) for i < 16.
const goldenSeeds = 16

// TestGoldenSeeds pins the Result-JSON SHA-256 of each goldenSeedRuns
// preset at sixteen seeds. A single-seed golden can miss a change to
// how same-instant events tie; over sixteen seeds of contending
// stations, one reordered tie almost surely moves some counter. Re-bless
// with -update only for a change that is meant to alter simulation
// results, and say so in the commit message.
func TestGoldenSeeds(t *testing.T) {
	got := map[string]string{}
	for _, r := range goldenSeedRuns {
		spec, err := Preset(r.name)
		if err != nil {
			t.Fatal(err)
		}
		spec.Duration = Duration(r.horizon)
		for i := 0; i < goldenSeeds; i++ {
			spec.Seed = runner.SeedFor(1, i)
			sum := sha256.Sum256(runJSON(t, spec))
			got[fmt.Sprintf("%s/%02d", r.name, i)] = hex.EncodeToString(sum[:])
		}
	}
	buf, err := json.MarshalIndent(got, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	buf = append(buf, '\n')
	path := filepath.Join("testdata", "golden_seeds.json")
	if *updatePresetGolden {
		if err := os.WriteFile(path, buf, 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("recorded %s", path)
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read golden (run with -update to record): %v", err)
	}
	if !bytes.Equal(buf, want) {
		t.Errorf("multi-seed results diverged from the recorded golden:\ngot:  %s\nwant: %s", buf, want)
	}
}
