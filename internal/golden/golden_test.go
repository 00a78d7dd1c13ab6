package golden

import (
	"bytes"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

// recorder is a testing.TB that collects failures instead of failing.
type recorder struct {
	testing.TB
	errs []string
}

func (r *recorder) Helper() {}

func (r *recorder) Errorf(format string, a ...any) {
	r.errs = append(r.errs, fmt.Sprintf(format, a...))
}

// outputs maps a key to the canonical bytes a test produces for it.
type outputs map[string]string

// record records outs, with counts for the keys in counted, in the
// table at path, which it first creates empty if there is none.
func record(t *testing.T, path string, outs outputs, counted map[string]Counts) []byte {
	t.Helper()
	if _, err := os.Stat(path); errors.Is(err, os.ErrNotExist) {
		if err := os.WriteFile(path, encode(nil), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	var keys []string
	for k := range outs {
		keys = append(keys, k)
	}
	tb, err := openTable(path, keys)
	if err != nil {
		t.Fatal(err)
	}
	check(t, tb, outs, counted)
	if _, err := tb.finish(true); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return raw
}

// check checks every output against tb.
func check(t testing.TB, tb *table, outs outputs, counted map[string]Counts) {
	for k, v := range outs {
		if c, ok := counted[k]; ok {
			tb.Check(t, k, []byte(v), c)
		} else {
			tb.Check(t, k, []byte(v))
		}
	}
}

func TestUpdateNeedsKeys(t *testing.T) {
	for _, s := range []string{"", " ", "a,", ",a", "a,,b"} {
		if err := flag.Set("update", s); err == nil {
			t.Errorf("-update=%q accepted", s)
		}
	}
	if err := flag.Set("update", "a/b, c"); err != nil || !slices.Equal(updateKeys, []string{"a/b", "c"}) {
		t.Errorf(`-update="a/b, c": keys %q, %v; want [a/b c]`, updateKeys, err)
	}
	updateKeys = nil
}

func TestUpdateRefusesUnknownKey(t *testing.T) {
	path := filepath.Join(t.TempDir(), "golden.json")
	before := record(t, path, outputs{"a": "1", "b": "2"}, nil)
	tb, err := openTable(path, []string{"a", "c"})
	if err != nil {
		t.Fatal(err)
	}
	check(t, tb, outputs{"a": "1", "b": "2"}, nil)
	if _, err := tb.finish(true); err == nil || !strings.Contains(err.Error(), ": c") {
		t.Errorf("Finish with unproduced key c: err %v", err)
	}
	if after, _ := os.ReadFile(path); !bytes.Equal(before, after) {
		t.Errorf("refused update rewrote the table:\n%s", after)
	}
}

func TestUpdateRewritesOnlyNamedKey(t *testing.T) {
	path := filepath.Join(t.TempDir(), "golden.json")
	counted := map[string]Counts{"p/sequential/1/2s": {Fired: 10, Logical: 12}}
	old := outputs{"a": "1", "b": "2", "c": "3", "p/sequential/1/2s": "run"}
	before := record(t, path, old, counted)

	tb, err := openTable(path, []string{"b", "c"})
	if err != nil {
		t.Fatal(err)
	}
	// a moved too, but is not named: it fails, and its line stays.
	rec := &recorder{TB: t}
	check(rec, tb, outputs{"a": "moved", "b": "moved", "c": "3", "p/sequential/1/2s": "run"}, counted)
	t.Cleanup(func() { os.RemoveAll(tb.fresh) })
	if len(rec.errs) != 1 || !strings.HasPrefix(rec.errs[0], "golden a moved") {
		t.Errorf("want one failure, for a: %q", rec.errs)
	}
	moved, err := tb.finish(true)
	if err != nil || !slices.Equal(moved, []string{"b"}) {
		t.Fatalf("Finish = %q, %v; want [b]", moved, err)
	}
	after, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	was, is := strings.Split(string(before), "\n"), strings.Split(string(after), "\n")
	if len(was) != len(is) {
		t.Fatalf("line count %d -> %d:\n%s", len(was), len(is), after)
	}
	for i := range was {
		if changed := was[i] != is[i]; changed != strings.HasPrefix(was[i], `  "b"`) {
			t.Errorf("line %d: %q -> %q", i, was[i], is[i])
		}
	}
}

func TestMovedKeyFailsWithFreshBytes(t *testing.T) {
	path := filepath.Join(t.TempDir(), "golden.json")
	record(t, path, outputs{"a": "1", "x/y": "2"}, nil)
	tb, err := openTable(path, nil)
	if err != nil {
		t.Fatal(err)
	}
	rec := &recorder{TB: t}
	check(rec, tb, outputs{"a": "1", "x/y": "fresh", "new": "3"}, nil)
	t.Cleanup(func() { os.RemoveAll(tb.fresh) })
	if len(rec.errs) != 2 {
		t.Fatalf("want failures for x/y and new, got %q", rec.errs)
	}
	for _, e := range rec.errs {
		if !strings.HasPrefix(e, "golden x/y moved") && !strings.HasPrefix(e, "golden new has no entry") {
			t.Errorf("failure does not name its key: %s", e)
		}
	}
	saved, err := os.ReadFile(filepath.Join(tb.fresh, "x_y.json"))
	if err != nil || string(saved) != "fresh" {
		t.Errorf("fresh bytes of x/y: %q, %v", saved, err)
	}
	rec.errs = nil
	tb.Check(rec, "a", []byte("2"))
	if len(rec.errs) != 1 || !strings.Contains(rec.errs[0], "produced twice") {
		t.Errorf("a key produced twice with different bytes: %q", rec.errs)
	}
}

func TestTableCanonical(t *testing.T) {
	dir := t.TempDir()
	outs := outputs{}
	counted := map[string]Counts{}
	for i := 0; i < 20; i++ {
		k := fmt.Sprintf("k%d/seed/%d", i%7, i)
		outs[k] = fmt.Sprint(i * i)
		if i%3 == 0 {
			counted[k] = Counts{Fired: uint64(i), Logical: uint64(2 * i)}
		}
	}
	path := filepath.Join(dir, "golden.json")
	first := record(t, path, outs, counted)
	lines := strings.Split(strings.TrimSpace(string(first)), "\n")
	if !slices.IsSorted(lines[1 : len(lines)-1]) {
		t.Errorf("entries not sorted:\n%s", first)
	}
	if again := record(t, path, outs, counted); !bytes.Equal(first, again) {
		t.Errorf("re-recording an unchanged table changed it:\n%s\n%s", first, again)
	}
	tb, err := openTable(path, nil)
	if err != nil {
		t.Fatal(err)
	}
	check(t, tb, outs, counted)
	if _, err := tb.finish(true); err != nil {
		t.Errorf("every entry checked: %v", err)
	}

	stale, err := openTable(path, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := stale.finish(true); err == nil {
		t.Error("a complete run that checked no entry passed")
	}
	if _, err := stale.finish(false); err != nil {
		t.Errorf("a filtered run must not require every entry: %v", err)
	}
	for _, name := range []string{"test.run", "test.skip", "test.list"} {
		f := flag.Lookup(name)
		was := f.Value.String()
		f.Value.Set("x")
		if ranEveryTest() {
			t.Errorf("-%s=x counted as a run of every test", name)
		}
		f.Value.Set(was)
	}

	for name, raw := range map[string]string{
		"unsorted":  "{\n  \"b\": {\"sha256\": \"00\"},\n  \"a\": {\"sha256\": \"00\"}\n}\n",
		"indented":  "{\n  \"a\": {\n    \"sha256\": \"00\"\n  }\n}\n",
		"half-pair": "{\n  \"a\": {\"sha256\": \"00\", \"fired\": 1}\n}\n",
	} {
		p := filepath.Join(dir, name+".json")
		if err := os.WriteFile(p, []byte(raw), 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := openTable(p, nil); err == nil {
			t.Errorf("%s table opened", name)
		}
	}
	if _, err := openTable(filepath.Join(dir, "missing.json"), nil); err == nil {
		t.Error("a missing table opened")
	}
}
