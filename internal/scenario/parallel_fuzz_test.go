package scenario

import (
	"bytes"
	"encoding/json"
	"testing"
	"time"
)

// FuzzParallelEquivalence is the metamorphic property test of the
// parallel kernel: for ANY structurally valid spec — topology, traffic
// matrix, seed and forced region grid all drawn from the fuzz input —
// the result must be byte-identical at 1 and 4 workers; the 1-worker
// run services every region from one goroutine, so a divergence
// separates an executor race from a protocol bug. This is the executor's
// hard worker-invariance guarantee (the equivalence suite pins it for
// the preset library; the fuzzer hunts for a counterexample in the
// open spec space). Plain-sequential equality is deliberately NOT
// asserted here: forced grids on one-contention-domain fields are
// allowed the documented same-instant tie divergence.
//
// Run the smoke corpus with plain `go test`; hunt with
//
//	go test -fuzz=FuzzParallelEquivalence -fuzztime=30s ./internal/scenario
func FuzzParallelEquivalence(f *testing.F) {
	f.Add(uint64(1), uint8(4), uint8(2), uint8(1), uint8(0), uint8(1), false)
	f.Add(uint64(42), uint8(6), uint8(3), uint8(2), uint8(2), uint8(0), true)
	f.Add(uint64(7), uint8(8), uint8(1), uint8(3), uint8(5), uint8(2), false)
	f.Add(uint64(1234), uint8(3), uint8(2), uint8(2), uint8(1), uint8(3), true)
	f.Add(uint64(99), uint8(10), uint8(3), uint8(1), uint8(7), uint8(4), false)

	f.Fuzz(func(t *testing.T, seed uint64, stations, cols, rows, flowPick, sizePick uint8, tcp bool) {
		spec := fuzzSpec(seed, stations, cols, rows, flowPick, sizePick, tcp)
		if err := spec.Validate(); err != nil {
			t.Skip("structurally invalid draw")
		}
		run := func(p ParallelParams) []byte {
			s := spec
			s.Parallel = &p
			res, err := Run(s)
			if err != nil {
				t.Fatalf("Run: %v", err)
			}
			buf, err := json.Marshal(res)
			if err != nil {
				t.Fatal(err)
			}
			return buf
		}
		base := run(ParallelParams{Cols: spec.Parallel.Cols, Rows: spec.Parallel.Rows, Workers: 1})
		p := ParallelParams{Cols: spec.Parallel.Cols, Rows: spec.Parallel.Rows, Workers: 4}
		if got := run(p); !bytes.Equal(base, got) {
			t.Errorf("spec %+v: %+v diverged from 1-worker\n1-worker: %s\nvariant:  %s",
				spec, p, base, got)
		}
	})
}

// fuzzSpec shapes raw fuzz values into a small, always-cheap spec: a
// random-uniform field, one or two paced flows, a forced region grid.
// The duration and pacing keep one run in the low milliseconds so the
// fuzzer gets real coverage per second.
func fuzzSpec(seed uint64, stations, cols, rows, flowPick, sizePick uint8, tcp bool) Spec {
	n := 3 + int(stations)%8 // 3..10 stations
	c := 1 + int(cols)%3     // 1..3 grid columns
	r := 1 + int(rows)%3     // 1..3 grid rows
	src := int(flowPick) % n // first flow source
	dst := (src + 1 + int(sizePick)%(n-1)) % n
	spec := Spec{
		Name:     "fuzz-parallel",
		Seed:     seed,
		Duration: Duration(300 * time.Millisecond),
		Topology: Topology{
			Kind:   KindRandomUniform,
			N:      n,
			Width:  150 + 50*float64(int(cols)%8), // 150..500 m
			Height: 150 + 50*float64(int(rows)%8),
		},
		Flows: []Flow{{
			Src: src, Dst: dst,
			Transport:  TransportUDP,
			PacketSize: 256 + 64*(int(sizePick)%4),
			Interval:   Duration(20 * time.Millisecond),
		}},
		Parallel: &ParallelParams{Cols: c, Rows: r},
	}
	if tcp {
		spec.Flows = append(spec.Flows, Flow{
			Src: dst, Dst: src,
			Transport:  TransportTCP,
			PacketSize: 512,
		})
	}
	return spec
}
