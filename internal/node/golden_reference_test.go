package node

import (
	"encoding/json"
	"testing"

	"adhocsim/internal/golden"
)

// testdata/golden.json holds the metric vectors of the two equivalence
// drivers in this package (gainCacheRun per seed, mobilityRun),
// recorded from the medium's reference paths — direct per-arrival power
// computation and exhaustive per-radio propagation — before those paths
// were deleted. The cached, indexed medium must keep reproducing them.

// TestMain checks the package's recorded vectors against
// testdata/golden.json; see internal/golden for -update.
func TestMain(m *testing.M) { golden.Main(m) }

// checkReference requires metrics, as JSON, to match the entry key
// names.
func checkReference(t *testing.T, key string, metrics []uint64) {
	t.Helper()
	buf, err := json.Marshal(metrics)
	if err != nil {
		t.Fatal(err)
	}
	golden.Check(t, key, buf)
}
