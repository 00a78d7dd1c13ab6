// Package golden keeps a package's recorded test outputs in one table,
// testdata/golden.json: sorted keys, one entry a line, each the SHA-256
// of an output's canonical bytes plus, where pinned, its fired and
// logical event counts. Tests call Check; TestMain calls Main. Only the
// named keys are ever re-recorded, and the keys that moved are printed:
//
//	go test ./internal/scenario -update=key1,key2 -v
//
// An empty list, or a key no test produced, is refused.
package golden

import (
	"bytes"
	"cmp"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"maps"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"testing"
)

// tablePath is the table's location, relative to the package under test.
const tablePath = "testdata/golden.json"

var updateKeys []string // named by -update

func init() {
	flag.Func("update", "re-record the entries of "+tablePath+" named in this comma-separated `list` of keys", func(s string) error {
		updateKeys = strings.Split(s, ",")
		for i := range updateKeys {
			if updateKeys[i] = strings.TrimSpace(updateKeys[i]); updateKeys[i] == "" {
				updateKeys = nil
				return fmt.Errorf("want a comma-separated list of golden keys, got %q", s)
			}
		}
		return nil
	})
}

// Counts are a run's scheduler events fired and logical events.
type Counts struct {
	Fired   uint64 `json:"fired"`
	Logical uint64 `json:"logical"`
}

// entry is one recorded output; its String is its line in the table.
type entry struct {
	SHA256 string `json:"sha256"`
	*Counts
}

func (e entry) String() string {
	if e.Counts == nil {
		return fmt.Sprintf(`{"sha256": %q}`, e.SHA256)
	}
	return fmt.Sprintf(`{"sha256": %q, "fired": %d, "logical": %d}`, e.SHA256, e.Fired, e.Logical)
}

// encode writes entries in the table's canonical form.
func encode(entries map[string]entry) []byte {
	keys := slices.Sorted(maps.Keys(entries))
	lines := make([]string, len(keys))
	for i, k := range keys {
		name, _ := json.Marshal(k) // a string always marshals
		lines[i] = fmt.Sprintf("  %s: %s", name, entries[k])
	}
	return []byte("{\n" + strings.Join(lines, ",\n") + "\n}\n")
}

// table is one package's golden table during a test run.
type table struct {
	path   string
	update []string
	mu     sync.Mutex
	want   map[string]entry // as recorded
	got    map[string]entry // as produced by this run
	fresh  string           // directory holding the bytes of failed keys
}

// openTable reads the table at path for a run that re-records the keys
// in update.
func openTable(path string, update []string) (*table, error) {
	tb := &table{path: path, update: update, want: map[string]entry{}, got: map[string]entry{}}
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	if err := json.Unmarshal(raw, &tb.want); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if !bytes.Equal(raw, encode(tb.want)) {
		return nil, fmt.Errorf("%s is not canonical: sorted keys, one entry a line", path)
	}
	return tb, nil
}

// Check records canonical, the output key names, and its counts if
// given. It fails t if the output differs from the table, unless the
// run re-records key, or from an earlier output for key in this run.
// A failure writes canonical to a directory that outlives the test.
func (tb *table) Check(t testing.TB, key string, canonical []byte, counts ...Counts) {
	t.Helper()
	sum := sha256.Sum256(canonical)
	e := entry{SHA256: hex.EncodeToString(sum[:])}
	if len(counts) > 0 {
		e.Counts = &counts[0]
	}
	tb.mu.Lock()
	defer tb.mu.Unlock()
	prev, seen := tb.got[key]
	want, recorded := tb.want[key]
	var problem string
	switch {
	case seen && prev.String() != e.String():
		problem = fmt.Sprintf("produced twice with different values:\nfirst: %s\nthen:  %s", prev, e)
	case slices.Contains(tb.update, key):
	case !recorded:
		problem = fmt.Sprintf("has no entry in %s; record it with -update=%s", tb.path, key)
	case want.String() != e.String():
		problem = fmt.Sprintf("moved:\n got: %s\nwant: %s\nre-record with -update=%s only for a change meant to alter it", e, want, key)
	}
	tb.got[key] = e
	if problem == "" {
		return
	}
	var err error
	if tb.fresh == "" {
		tb.fresh, err = os.MkdirTemp("", "golden-")
	}
	fresh := filepath.Join(tb.fresh, strings.ReplaceAll(key, "/", "_")+".json")
	if err == nil {
		err = os.WriteFile(fresh, canonical, 0o644)
	}
	if err != nil {
		fresh = err.Error()
	}
	t.Errorf("golden %s %s\nfresh bytes: %s", key, problem, fresh)
}

// finish ends a run. A run that re-records must have produced every
// named key; finish rewrites their entries, leaves every other line
// byte-identical and returns the keys that moved. Otherwise, when the
// run was complete (every test selected), every entry must have been
// checked.
func (tb *table) finish(complete bool) (moved []string, err error) {
	tb.mu.Lock()
	defer tb.mu.Unlock()
	if len(tb.update) == 0 {
		var stale []string
		for k := range tb.want {
			if _, ok := tb.got[k]; !ok && complete {
				stale = append(stale, k)
			}
		}
		if slices.Sort(stale); len(stale) == 0 {
			return nil, nil
		}
		return nil, fmt.Errorf("%s has entries no test checked (delete their lines): %s", tb.path, strings.Join(stale, ", "))
	}
	next := maps.Clone(tb.want)
	var missing []string
	for _, k := range tb.update {
		e, ok := tb.got[k]
		if old, was := tb.want[k]; !ok {
			missing = append(missing, k)
		} else if !was || old.String() != e.String() {
			moved = append(moved, k)
		}
		next[k] = e
	}
	if len(missing) > 0 {
		return nil, fmt.Errorf("-update names keys no test produced, so %s is unchanged: %s", tb.path, strings.Join(missing, ", "))
	}
	slices.Sort(moved)
	return slices.Compact(moved), os.WriteFile(tb.path, encode(next), 0o644)
}

// ranEveryTest reports whether no -run, -skip or -list selected tests
// and -short skipped none.
func ranEveryTest() bool {
	f := func(name string) string { return flag.Lookup(name).Value.String() }
	return f("test.run")+f("test.skip")+f("test.list") == "" && !testing.Short()
}

var std *table // the package's table, opened by Main

// Check checks canonical against the package table's entry for key;
// see table.Check. The package's TestMain must call Main.
func Check(t testing.TB, key string, canonical []byte, counts ...Counts) {
	t.Helper()
	if std == nil {
		t.Fatal("golden.Check needs TestMain to call golden.Main")
	}
	std.Check(t, key, canonical, counts...)
}

// Main runs the package's tests against its table and, under -update,
// re-records the named keys once every test has passed.
func Main(m *testing.M) {
	flag.Parse()
	var err error
	if std, err = openTable(tablePath, updateKeys); err != nil {
		fmt.Fprintln(os.Stderr, "golden:", err)
		os.Exit(1)
	}
	code := m.Run()
	if code != 0 {
		if len(updateKeys) > 0 {
			fmt.Fprintf(os.Stderr, "golden: tests failed, %s left unchanged\n", tablePath)
		}
		os.Exit(code)
	}
	moved, err := std.finish(ranEveryTest())
	switch {
	case err != nil:
		fmt.Fprintln(os.Stderr, "golden:", err)
		os.Exit(1)
	case len(updateKeys) > 0:
		fmt.Printf("golden: keys moved in %s: %s\n", tablePath, cmp.Or(strings.Join(moved, ","), "none"))
	}
}
