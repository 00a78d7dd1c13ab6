package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"math"
	"testing"
)

// pb is a minimal protobuf encoder for hand-built test profiles.
type pb struct{ b []byte }

func (e *pb) varint(field int, v uint64) {
	e.b = binary.AppendUvarint(e.b, uint64(field)<<3)
	e.b = binary.AppendUvarint(e.b, v)
}

func (e *pb) bytes(field int, v []byte) {
	e.b = binary.AppendUvarint(e.b, uint64(field)<<3|2)
	e.b = binary.AppendUvarint(e.b, uint64(len(v)))
	e.b = append(e.b, v...)
}

func (e *pb) packed(field int, vs ...uint64) {
	var run []byte
	for _, v := range vs {
		run = binary.AppendUvarint(run, v)
	}
	e.bytes(field, run)
}

func msg(build func(e *pb)) []byte {
	var e pb
	build(&e)
	return e.b
}

// testProfile encodes a CPU profile the way runtime/pprof lays one out:
// two sample types (samples/count, cpu/nanoseconds), locations whose
// lines list inlined frames innermost first, and packed or unpacked
// sample fields.
func testProfile(t *testing.T) []byte {
	t.Helper()
	strs := []string{"", "samples", "count", "cpu", "nanoseconds",
		"adhocsim/internal/mac.(*MAC).backoff",           // 5
		"adhocsim/internal/sim.(*Scheduler).Step",        // 6
		"runtime.mapaccess2",                             // 7
		"adhocsim/internal/medium.(*Medium).deliver",     // 8
		"runtime.gcBgMarkWorker",                         // 9
		"runtime.scanobject",                             // 10
		"adhocsim/internal/stats.JainFairness",           // 11
		"adhocsim/internal/scenario.(*Instance).Collect", // 12
		"main.digest",                                    // 13
		"runtime.mcall",                                  // 14
	}
	data := msg(func(e *pb) {
		e.bytes(1, msg(func(e *pb) { e.varint(1, 1); e.varint(2, 2) }))
		e.bytes(1, msg(func(e *pb) { e.varint(1, 3); e.varint(2, 4) }))
		// Functions: id i+1 named strs[5+i].
		for i := 0; i < len(strs)-5; i++ {
			e.bytes(5, msg(func(e *pb) { e.varint(1, uint64(i+1)); e.varint(2, uint64(5+i)) }))
		}
		line := func(fn uint64) []byte { return msg(func(e *pb) { e.varint(1, fn); e.varint(2, 42) }) }
		loc := func(id uint64, fns ...uint64) {
			e.bytes(4, msg(func(e *pb) {
				e.varint(1, id)
				for _, f := range fns {
					e.bytes(4, line(f))
				}
			}))
		}
		loc(1, 3)    // runtime.mapaccess2, a stdlib leaf
		loc(2, 1, 2) // mac backoff inlined into the scheduler's Step
		loc(3, 4)    // medium deliver
		loc(4, 6, 5) // scanobject inlined into gcBgMarkWorker
		loc(5, 7)    // stats.JainFairness, not a layer of its own
		loc(6, 8)    // scenario Collect
		loc(7, 9)    // main.digest
		loc(8, 10)   // runtime.mcall
		sample := func(cpu uint64, locs ...uint64) {
			e.bytes(2, msg(func(e *pb) {
				e.packed(1, locs...)
				e.packed(2, cpu/10_000_000, cpu)
			}))
		}
		sample(30_000_000, 1, 2, 3) // map lookup called from the inlined MAC frame
		sample(20_000_000, 3)       // medium on its own
		sample(10_000_000, 4)       // background GC marking
		sample(10_000_000, 5, 6)    // stats under scenario
		sample(10_000_000, 7)       // the harness
		sample(10_000_000, 8)       // runtime only
		// An unpacked sample: one location, then its two values.
		e.bytes(2, msg(func(e *pb) { e.varint(1, 1); e.varint(2, 1); e.varint(2, 10_000_000) }))
		for _, s := range strs {
			e.bytes(6, []byte(s))
		}
	})
	var buf bytes.Buffer
	zw := gzip.NewWriter(&buf)
	if _, err := zw.Write(data); err != nil {
		t.Fatal(err)
	}
	if err := zw.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestProfileLayerSplit(t *testing.T) {
	samples, err := parseProfile(testProfile(t))
	if err != nil {
		t.Fatal(err)
	}
	if len(samples) != 7 {
		t.Fatalf("decoded %d samples, want 7", len(samples))
	}
	// Inlined frames expand innermost first.
	want := []string{"runtime.mapaccess2", "adhocsim/internal/mac.(*MAC).backoff",
		"adhocsim/internal/sim.(*Scheduler).Step", "adhocsim/internal/medium.(*Medium).deliver"}
	if got := samples[0].funcs; len(got) != len(want) || got[0] != want[0] || got[1] != want[1] || got[2] != want[2] {
		t.Fatalf("first stack = %q, want %q", got, want)
	}

	ns, total := layerSplit(samples)
	const ms = 1_000_000
	wantNs := map[string]int64{
		"mac":      30 * ms, // the stdlib leaf counts toward the innermost layer frame
		"medium":   20 * ms,
		"gc":       10 * ms,
		"scenario": 10 * ms, // stats is no layer: its caller's
		"bench":    10 * ms,
		"other":    20 * ms, // runtime only, and the unpacked sample's lone stdlib frame
	}
	for _, l := range layers {
		if ns[l] != wantNs[l] {
			t.Errorf("%s: %d ns, want %d", l, ns[l], wantNs[l])
		}
	}
	if total != 100*ms {
		t.Errorf("total %d ns, want %d", total, 100*ms)
	}
	var sum float64
	for _, l := range layers {
		sum += float64(ns[l]) / float64(total)
	}
	if math.Abs(sum-1) > 1e-12 {
		t.Errorf("shares sum to %v, want 1", sum)
	}
}

func TestProfileRejectsTruncation(t *testing.T) {
	data := msg(func(e *pb) { e.bytes(2, msg(func(e *pb) { e.packed(1, 1, 2, 3) })) })
	if _, err := parseProfile(data[:len(data)-1]); err == nil {
		t.Fatal("truncated profile decoded without error")
	}
}
