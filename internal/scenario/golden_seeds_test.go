package scenario

import (
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

// TestGoldenSeeds pins each goldenSeedRuns preset at sixteen seeds. A
// single-seed golden can miss a change to how same-instant events tie;
// over sixteen seeds of contending stations, one reordered tie almost
// surely moves some counter.
func TestGoldenSeeds(t *testing.T) {
	for _, r := range goldenSeedRuns {
		spec, err := Preset(r.name)
		if err != nil {
			t.Fatal(err)
		}
		spec.Duration = Duration(r.horizon)
		for i := 0; i < goldenSeeds; i++ {
			spec.Seed = runner.SeedFor(1, i)
			runGolden(t, r.name, spec)
		}
	}
}
