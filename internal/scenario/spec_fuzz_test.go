package scenario

import (
	"math"
	"testing"
	"time"
)

// Budgets of one FuzzParseSpec input. The horizon is cut into steps so
// that a run flooding the scheduler stops at the first step over the
// event budget rather than after the whole horizon; an input that
// builds more stations than fuzzMaxStations is only parsed, since the
// city presets' builds take seconds and are covered by their own
// tests.
const (
	fuzzHorizon     = 20 * time.Millisecond
	fuzzSteps       = 20
	fuzzMaxEvents   = 2_000_000
	fuzzWallBudget  = 10 * time.Second
	fuzzMaxStations = 2048
)

// parseSpecSeeds are the degenerate inputs FuzzParseSpec starts from
// beside the presets: coincident stations, zero-area fields, zero and
// huge durations and intervals, extreme fault and churn rates,
// oversized topologies and region grids, and a far-flung mover.
var parseSpecSeeds = []string{
	// Coincident stations.
	`{"name":"coincident","topology":{"kind":"explicit","positions":[[0,0],[0,0],[0,0]]},"flows":[{"src":0,"dst":1},{"src":2,"dst":1,"port":2}]}`,
	`{"name":"coincident-line","topology":{"kind":"line","n":4,"spacing":0},"flows":[{"src":0,"dst":3,"transport":"tcp"}]}`,
	`{"name":"coincident-ring","topology":{"kind":"ring","n":5,"radius":1e-300},"flows":[{"src":0,"dst":2}],"parallel":{"cols":2,"rows":2}}`,
	// Zero-area and extreme fields.
	`{"name":"zero-width","topology":{"kind":"random-uniform","n":8,"width":0,"height":100},"flows":[{"src":0,"dst":1}]}`,
	`{"name":"zero-radius-blocks","topology":{"kind":"clustered-blocks","n":16,"rows":2,"cols":2,"width":100,"height":100,"radius":0},"flows":[{"src":0,"dst":1}]}`,
	`{"name":"point-blocks","topology":{"kind":"clustered-blocks","n":16,"rows":4,"cols":4,"width":1e-300,"height":1e-300,"radius":1e-300},"flows":[{"src":0,"dst":15,"nearest_dst":true}]}`,
	`{"name":"far-line","topology":{"kind":"line","n":3,"spacing":1e308},"flows":[{"src":0,"dst":1}]}`,
	// Two stations 10 m apart in the default profile's last int32
	// relevance-radius cell (TestInt32EdgeFieldFinishes).
	`{"name":"int32-edge","topology":{"kind":"explicit","positions":[[3.678939344891633e+13,0],[3.678939344892633e+13,0]]},"flows":[{"src":0,"dst":1}]}`,
	`{"name":"far-grid","topology":{"kind":"grid","rows":2,"cols":2,"spacing":1e300},"flows":[{"src":0,"dst":3}],"parallel":{"cols":2,"rows":2}}`,
	// Zero and huge durations and intervals.
	`{"name":"zero-duration","duration":"0s","topology":{"kind":"line","n":2,"spacing":10},"flows":[{"src":0,"dst":1}]}`,
	`{"name":"one-ns","duration":1,"topology":{"kind":"line","n":2,"spacing":10},"flows":[{"src":0,"dst":1}]}`,
	`{"name":"huge-duration","duration":"2562047h","topology":{"kind":"line","n":2,"spacing":10},"flows":[{"src":0,"dst":1,"interval":"2562047h"}]}`,
	`{"name":"zero-interval","topology":{"kind":"line","n":2,"spacing":10},"flows":[{"src":0,"dst":1,"interval":"0s"}]}`,
	`{"name":"one-ns-interval","topology":{"kind":"line","n":2,"spacing":10},"flows":[{"src":0,"dst":1,"interval":"1ns"}]}`,
	`{"name":"floor-interval","topology":{"kind":"line","n":2,"spacing":10},"flows":[{"src":0,"dst":1,"interval":"192us"}]}`,
	`{"name":"fast-beacons","topology":{"kind":"line","n":2,"spacing":10},"mac":{"beacon_interval":"1ns"},"flows":[{"src":0,"dst":1}]}`,
	`{"name":"fast-mobility","topology":{"kind":"line","n":2,"spacing":10},"mobility":{"model":"random-waypoint","tick":"1ns","pause":"1ns","max_speed":1e300},"flows":[{"src":0,"dst":1}]}`,
	`{"name":"wild-mobility","topology":{"kind":"line","n":3,"spacing":10},"mobility":{"model":"random-waypoint","tick":"192us","pause":"1ns","min_speed":1e300,"max_speed":1e308,"width":1e15,"height":1e-300},"flows":[{"src":0,"dst":1}]}`,
	`{"name":"fast-settle","topology":{"kind":"line","n":3,"spacing":20},"routing":{"protocol":"dsdv","advert_interval":"192us","settle_delay":"1ns"},"flows":[{"src":0,"dst":2}]}`,
	`{"name":"fast-adverts","topology":{"kind":"line","n":3,"spacing":20},"routing":{"protocol":"dsdv","advert_interval":"1ns","settle_delay":"1ns"},"flows":[{"src":0,"dst":2}]}`,
	// Extreme fault and churn rates.
	`{"name":"churn-flood","topology":{"kind":"line","n":4,"spacing":20},"flows":[{"src":0,"dst":3}],"faults":{"churn":{"rate_per_min":1e12,"min_down":"1ns","max_down":"1ns"}}}`,
	`{"name":"churn-trickle","topology":{"kind":"line","n":4,"spacing":20},"flows":[{"src":0,"dst":3}],"faults":{"churn":{"rate_per_min":1e-300,"min_down":"1ns","max_down":"2562047h"}}}`,
	`{"name":"churn-long-run","duration":"2562047h","topology":{"kind":"line","n":4,"spacing":20},"flows":[{"src":0,"dst":3}],"faults":{"churn":{"rate_per_min":600,"min_down":"1ms","max_down":"2s"}}}`,
	`{"name":"fault-extremes","topology":{"kind":"line","n":4,"spacing":20},"flows":[{"src":0,"dst":3}],"faults":{"crashes":[{"station":1,"at":"0s","until":"1ns"}],"degradations":[{"station":2,"from":"0s","to":"2562047h","offset_db":-1e308}],"partitions":[{"x0":-1e308,"y0":-1e308,"x1":1e308,"y1":1e308,"from":"0s","to":"1ns","atten_db":1e308}],"outages":[{"flow":0,"from":"0s","to":"2562047h"}]}}`,
	// Oversized topologies and region grids.
	`{"name":"huge-n","topology":{"kind":"random-uniform","n":1000000000000,"width":100,"height":100},"flows":[{"src":0,"dst":1}]}`,
	`{"name":"huge-grid","topology":{"kind":"grid","rows":4294967296,"cols":4294967296,"spacing":1},"flows":[{"src":0,"dst":1}]}`,
	`{"name":"huge-region-grid","topology":{"kind":"line","n":4,"spacing":20},"flows":[{"src":0,"dst":3}],"parallel":{"cols":1000,"rows":1000}}`,
	`{"name":"full-region-grid","topology":{"kind":"random-uniform","n":64,"width":400,"height":400},"flows":[{"src":0,"dst":1,"nearest_dst":true}],"parallel":{"cols":16,"rows":16,"workers":1000000}}`,
	// A station an infinite distance from every waypoint it can draw:
	// unbounded, its mover steps it to (NaN, NaN).
	`{"name":"nan-mover","topology":{"kind":"explicit","positions":[[-1.7e308,0],[0,0]]},"mobility":{"model":"random-waypoint","width":1.7e308,"tick":"1ms"},"flows":[{"src":0,"dst":1}]}`,
}

// FuzzParseSpec feeds arbitrary bytes through ParseSpec, Build and a
// 20 ms run. Every input must fail with an error or run to the end of
// the horizon, without a panic, within the event and wall budgets, and
// with every station at a finite position.
// The corpus starts from every preset and from parseSpecSeeds:
//
//	go test -run '^$' -fuzz FuzzParseSpec -fuzztime=20s ./internal/scenario
func FuzzParseSpec(f *testing.F) {
	for _, p := range Presets() {
		data, err := MarshalSpec(p)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	for _, s := range parseSpecSeeds {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		spec, err := ParseSpec(data)
		if err != nil {
			return
		}
		// ParseSpec has expanded the topology once already.
		if pos, _ := spec.Topology.Expand(spec.Seed); len(pos) > fuzzMaxStations {
			return
		}
		inst, err := Build(spec)
		if err != nil {
			return
		}
		start := time.Now()
		for i := 0; i < fuzzSteps; i++ {
			inst.Net.Run(fuzzHorizon / fuzzSteps)
			if n := inst.Net.Fired(); n > fuzzMaxEvents {
				t.Fatalf("%d events by %v of simulated time, over the budget of %d", n, time.Duration(i+1)*fuzzHorizon/fuzzSteps, fuzzMaxEvents)
			}
			if wall := time.Since(start); wall > fuzzWallBudget {
				t.Fatalf("%v of wall time by step %d of %d, over the budget of %v", wall, i+1, fuzzSteps, fuzzWallBudget)
			}
		}
		inst.Collect(fuzzHorizon)
		for i, st := range inst.Net.Stations {
			if p := st.Radio.Pos(); math.IsNaN(p.X) || math.IsNaN(p.Y) || math.IsInf(p.X, 0) || math.IsInf(p.Y, 0) {
				t.Fatalf("station %d at %v after the run", i, p)
			}
		}
	})
}
