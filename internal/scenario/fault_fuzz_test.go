package scenario

import (
	"bytes"
	"encoding/json"
	"reflect"
	"testing"
	"time"
)

// FuzzFaultScheduleDeterminism is the metamorphic property test of the
// fault engine: for ANY structurally valid faulted spec — crash window,
// degradation episode, regional partition, Poisson churn and flow
// outage all shaped from the fuzz input — determinism must survive
// every execution axis. Two properties are asserted per draw:
//
//  1. Compilation is pure: building the spec twice yields deeply equal
//     fault schedules (churn is drawn entirely at compile time from the
//     replication's seed, never at run time).
//  2. The parallel kernel's hard guarantee holds under faults: a forced
//     2x2 region grid produces byte-identical results at 1 and 4
//     workers.
//
// Run the smoke corpus with plain `go test`; hunt with
//
//	go test -fuzz=FuzzFaultScheduleDeterminism -fuzztime=30s ./internal/scenario
func FuzzFaultScheduleDeterminism(f *testing.F) {
	f.Add(uint64(1), uint8(4), uint8(0), uint8(0), uint8(0), uint8(0), false)
	f.Add(uint64(42), uint8(6), uint8(3), uint8(9), uint8(20), uint8(2), true)
	f.Add(uint64(7), uint8(8), uint8(255), uint8(1), uint8(0), uint8(7), false)
	f.Add(uint64(1234), uint8(3), uint8(17), uint8(0), uint8(59), uint8(1), true)
	f.Add(uint64(99), uint8(10), uint8(80), uint8(30), uint8(40), uint8(0), false)

	f.Fuzz(func(t *testing.T, seed uint64, stations, crashPick, degPick, partPick, churnPick uint8, outage bool) {
		spec := fuzzFaultSpec(seed, stations, crashPick, degPick, partPick, churnPick, outage)
		if err := spec.Validate(); err != nil {
			t.Skip("structurally invalid draw")
		}

		// Property 1: compiling the same spec twice is pure.
		instA, err := Build(spec)
		if err != nil {
			t.Fatalf("Build: %v", err)
		}
		instB, err := Build(spec)
		if err != nil {
			t.Fatalf("Build: %v", err)
		}
		if !reflect.DeepEqual(instA.FaultSchedule(), instB.FaultSchedule()) {
			t.Fatalf("spec %+v: two builds compiled different fault schedules", spec)
		}

		run := func(s Spec) []byte {
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

		// Property 2: worker invariance on a forced 2x2 grid.
		par := func(p ParallelParams) []byte {
			s := spec
			s.Parallel = &p
			return run(s)
		}
		one := par(ParallelParams{Cols: 2, Rows: 2, Workers: 1})
		p := ParallelParams{Cols: 2, Rows: 2, Workers: 4}
		if got := par(p); !bytes.Equal(one, got) {
			t.Errorf("spec %+v: faulted parallel %+v diverged from 1-worker\n1-worker: %s\nvariant:  %s",
				spec, p, one, got)
		}
	})
}

// fuzzFaultSpec shapes raw fuzz values into a small, always-cheap
// faulted spec: a random-uniform field with one paced UDP flow and every
// fault class the picks enable. All windows land inside the 300 ms
// horizon so the faults are genuinely active.
func fuzzFaultSpec(seed uint64, stations, crashPick, degPick, partPick, churnPick uint8, outage bool) Spec {
	n := 3 + int(stations)%8 // 3..10 stations
	src := int(crashPick) % n
	dst := (src + 1 + int(degPick)%(n-1)) % n
	spec := Spec{
		Name:     "fuzz-faults",
		Seed:     seed,
		Duration: Duration(300 * time.Millisecond),
		Topology: Topology{
			Kind:   KindRandomUniform,
			N:      n,
			Width:  150 + 50*float64(int(partPick)%8), // 150..500 m
			Height: 150 + 50*float64(int(churnPick)%8),
		},
		Flows: []Flow{{
			Src: src, Dst: dst,
			Transport:  TransportUDP,
			PacketSize: 256,
			Interval:   Duration(20 * time.Millisecond),
		}},
		Faults: &FaultSpec{},
	}
	ms := func(v int) Duration { return Duration(time.Duration(v) * time.Millisecond) }
	// A crash window inside the horizon; every third draw never restarts.
	at := 40 + int(crashPick)%5*40 // 40..200 ms
	until := at + 50 + int(crashPick)%3*30
	if crashPick%3 == 0 {
		until = 0 // stays down
	}
	spec.Faults.Crashes = []FaultCrash{{Station: int(crashPick) % n, At: ms(at), Until: ms(until)}}
	if degPick%2 == 0 {
		spec.Faults.Degradations = []FaultDegradation{{
			Station: int(degPick) % n,
			From:    ms(30 + int(degPick)%4*30), To: ms(200 + int(degPick)%3*30),
			OffsetDB: -float64(1 + int(degPick)%30),
		}}
	}
	if partPick%2 == 0 {
		spec.Faults.Partitions = []FaultPartition{{
			X0: 0, Y0: 0,
			X1: 80 + 40*float64(int(partPick)%8), Y1: 80 + 40*float64(int(partPick)%5),
			From: ms(60 + int(partPick)%3*40), To: ms(220),
			AttenDB: float64(20 + int(partPick)%50),
		}}
	}
	if churnPick%2 == 0 {
		spec.Faults.Churn = &FaultChurn{
			RatePerMin: float64(200 + int(churnPick)*10),
			MinDown:    ms(20), MaxDown: ms(20 + int(churnPick)%5*10),
		}
	}
	if outage {
		spec.Faults.Outages = []FaultOutage{{Flow: 0, From: ms(80), To: ms(180)}}
	}
	return spec
}
