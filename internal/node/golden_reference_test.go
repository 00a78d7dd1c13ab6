package node

import (
	"encoding/json"
	"flag"
	"os"
	"testing"
)

// testdata/golden_reference.json holds the metric vectors of the two
// equivalence drivers in this package (gainCacheRun per seed,
// mobilityRun), recorded from the medium's reference paths — direct
// per-arrival power computation and exhaustive per-radio propagation —
// before those paths were deleted. The cached, indexed medium must
// keep reproducing them. Re-bless with -update only for a change that
// is meant to alter simulation results.

var updateReference = flag.Bool("update", false, "re-record testdata/golden_reference.json")

const referencePath = "testdata/golden_reference.json"

// referenceGolden is the golden file's layout.
type referenceGolden struct {
	GainCache map[string][]uint64 `json:"gain_cache_interleaving"` // by seed
	Mobility  []uint64            `json:"mobility_walker"`
}

func loadReference(t *testing.T) referenceGolden {
	t.Helper()
	var g referenceGolden
	raw, err := os.ReadFile(referencePath)
	if err != nil {
		if *updateReference && os.IsNotExist(err) {
			return g
		}
		t.Fatalf("read golden (run with -update to record): %v", err)
	}
	if err := json.Unmarshal(raw, &g); err != nil {
		t.Fatal(err)
	}
	return g
}

func storeReference(t *testing.T, g referenceGolden) {
	t.Helper()
	b, err := json.MarshalIndent(g, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(referencePath, append(b, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
}

// compareMetrics requires got to equal the recorded vector exactly.
func compareMetrics(t *testing.T, what string, got, want []uint64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d metrics, golden has %d", what, len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("%s metric %d diverged from the reference golden: got %d, want %d\ngot:  %v\nwant: %v",
				what, i, got[i], want[i], got, want)
		}
	}
}
