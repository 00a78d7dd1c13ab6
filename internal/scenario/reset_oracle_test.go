package scenario

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"testing"
	"time"
	"unsafe"

	"adhocsim/internal/mac"
	"adhocsim/internal/medium"
	"adhocsim/internal/network"
	"adhocsim/internal/node"
	"adhocsim/internal/phy"
	"adhocsim/internal/routing"
	"adhocsim/internal/sim"
	"adhocsim/internal/trace"
	"adhocsim/internal/transport"
)

// The Reset oracle. node.Network.Reset rewinds only the stations the
// medium marked touched; a station a run changed but never marked would
// carry the change into the next replication. The oracle walks every
// station — the walk production code no longer makes — and requires
// each one's state after a Reset to equal its state after a fresh Build
// at the same seed, field by field, before and after running both.

// stateStops are the pointer types a station digest records only as
// nil or not: shared kernel objects, other layers (each is digested as
// a root of its own), and per-instance routers, whose own Reset the
// routing tests cover.
var stateStops = map[reflect.Type]bool{
	reflect.TypeFor[*sim.Scheduler](): true,
	reflect.TypeFor[*sim.Source]():    true,
	reflect.TypeFor[*medium.Medium](): true,
	reflect.TypeFor[*medium.Radio]():  true,
	reflect.TypeFor[*mac.MAC]():       true,
	reflect.TypeFor[*network.Stack](): true,
	reflect.TypeFor[*transport.TCP](): true,
	reflect.TypeFor[*phy.Profile]():   true,
	reflect.TypeFor[*trace.Tracer]():  true,
	reflect.TypeFor[*routing.DSDV]():  true,
}

// stateSkips names the fields that may differ between a reused and a
// fresh arena without changing any later draw or decision: the radio's
// geometry memos (stamped with the medium's epochs, pinned by the
// medium's oracles) and relevance radius, and the MAC's free list of
// recycled MSDU records.
var stateSkips = map[string]bool{
	"medium.Radio.cand":      true,
	"medium.Radio.gains":     true,
	"medium.Radio.candEpoch": true,
	"medium.Radio.fan":       true,
	"medium.Radio.fanEpoch":  true,
	"medium.Radio.fanFade":   true,
	"medium.Radio.fanDeg":    true,
	"medium.Radio.reach":     true,
	"mac.MAC.spare":          true,
}

// stationState renders every per-run field of one station's layers,
// one "path value" line each. Pointers are followed (a revisit prints
// its first path), maps print in key order, slices by length and
// elements, functions and stop types as nil or set. Scheduler handles
// print as pending or not and their instant, and a random stream as its
// key plus, once it has drawn under the current root, its generator's
// state.
func stationState(st *node.Station) []string {
	d := stateDigest{seen: map[uintptr]string{}}
	for _, root := range []struct {
		name string
		v    any
	}{{"radio", st.Radio}, {"mac", st.MAC}, {"net", st.Net}, {"udp", st.UDP}, {"tcp", st.TCP}} {
		d.walk(root.name, reflect.ValueOf(root.v).Elem())
	}
	return d.lines
}

type stateDigest struct {
	lines []string
	seen  map[uintptr]string
}

func (d *stateDigest) put(path string, format string, args ...any) {
	d.lines = append(d.lines, path+" "+fmt.Sprintf(format, args...))
}

// exportedValue returns v as if it had been reached through exported
// fields only, so that it can be read as an interface value or copied
// (v must be addressable).
func exportedValue(v reflect.Value) reflect.Value {
	return reflect.NewAt(v.Type(), unsafe.Pointer(v.UnsafeAddr())).Elem()
}

func (d *stateDigest) walk(path string, v reflect.Value) {
	switch v.Type() {
	case reflect.TypeFor[sim.Event]():
		e := exportedValue(v).Interface().(sim.Event)
		if e.Pending() {
			d.put(path, "pending@%v", e.At())
		} else {
			d.put(path, "idle")
		}
		return
	case reflect.TypeFor[sim.Mark]():
		// The scheduler epoch a mark was set under differs between
		// arenas by construction; the key it reserves must not.
		d.put(path, "mark@%d ring=%d pos=%d", v.FieldByName("at").Int(), v.FieldByName("ring").Int(), v.FieldByName("pos").Uint())
		return
	case reflect.TypeFor[sim.Stream]():
		d.put(path+".key", "%#x", v.FieldByName("key").Uint())
		g := v.FieldByName("g")
		src := v.FieldByName("src").Elem()
		if g.IsNil() || g.Elem().FieldByName("epoch").Uint() != src.FieldByName("epoch").Uint() {
			d.put(path, "fresh") // the next draw re-roots at the current seed
			return
		}
		d.walk(path+".rand", g.Elem().FieldByName("Rand"))
		return
	}
	switch v.Kind() {
	case reflect.Bool:
		d.put(path, "%v", v.Bool())
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		d.put(path, "%d", v.Int())
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64, reflect.Uintptr:
		d.put(path, "%d", v.Uint())
	case reflect.Float32, reflect.Float64:
		d.put(path, "%#x", math.Float64bits(v.Float()))
	case reflect.String:
		d.put(path, "%q", v.String())
	case reflect.Func:
		d.put(path, "func set=%v", !v.IsNil())
	case reflect.Pointer:
		if v.IsNil() || stateStops[v.Type()] {
			d.put(path, "%v set=%v", v.Type(), !v.IsNil())
			return
		}
		if first, ok := d.seen[v.Pointer()]; ok {
			d.put(path, "= %s", first)
			return
		}
		d.seen[v.Pointer()] = path
		d.walk(path, v.Elem())
	case reflect.Interface:
		if v.IsNil() {
			d.put(path, "nil")
			return
		}
		d.walk(path+".("+v.Elem().Type().String()+")", v.Elem())
	case reflect.Struct:
		t := v.Type()
		for i := 0; i < t.NumField(); i++ {
			if stateSkips[t.String()+"."+t.Field(i).Name] {
				continue
			}
			d.walk(path+"."+t.Field(i).Name, v.Field(i))
		}
	case reflect.Array, reflect.Slice:
		if v.Kind() == reflect.Slice && v.IsNil() {
			d.put(path, "len=0")
			return
		}
		if v.Kind() == reflect.Slice && v.Type().Elem().Kind() == reflect.Uint8 {
			d.put(path, "%x", v.Bytes())
			return
		}
		d.put(path, "len=%d", v.Len())
		for i := 0; i < v.Len(); i++ {
			d.walk(fmt.Sprintf("%s[%d]", path, i), v.Index(i))
		}
	case reflect.Map:
		// A cleared map and a never-made one are the same state.
		d.put(path, "len=%d", v.Len())
		type entry struct {
			key  string
			vals []string
		}
		var entries []entry
		for it := exportedValue(v).MapRange(); it.Next(); {
			kd := stateDigest{seen: d.seen}
			kd.walk("", addressable(it.Key()))
			vd := stateDigest{seen: d.seen}
			vd.walk("", addressable(it.Value()))
			entries = append(entries, entry{strings.Join(kd.lines, ","), vd.lines})
		}
		slices.SortFunc(entries, func(a, b entry) int { return strings.Compare(a.key, b.key) })
		for _, e := range entries {
			for _, l := range e.vals {
				d.lines = append(d.lines, path+"["+e.key+"]"+l)
			}
		}
	default:
		panic(fmt.Sprintf("stationState: unhandled %v at %s", v.Type(), path))
	}
}

// addressable returns an addressable copy of a map key or value, so
// the walk can read its unexported fields.
func addressable(v reflect.Value) reflect.Value {
	c := reflect.New(v.Type()).Elem()
	c.Set(v)
	return c
}

// compareStations fails at the first station whose state differs
// between the reused instance and the fresh one, naming the field.
func compareStations(t *testing.T, what string, reused, fresh *Instance) {
	t.Helper()
	if len(reused.Net.Stations) != len(fresh.Net.Stations) {
		t.Fatalf("%s: %d stations reused, %d fresh", what, len(reused.Net.Stations), len(fresh.Net.Stations))
	}
	for i, st := range reused.Net.Stations {
		a, b := stationState(st), stationState(fresh.Net.Stations[i])
		for j := 0; j < max(len(a), len(b)); j++ {
			var la, lb string
			if j < len(a) {
				la = a[j]
			}
			if j < len(b) {
				lb = b[j]
			}
			if la != lb {
				t.Fatalf("%s: station %d differs from a fresh build:\nreused: %s\nfresh:  %s", what, i, la, lb)
			}
		}
	}
}

// resetOracleSpecs are reuseSpecs plus the runs that mix every kind of
// per-run state at once: DSDV under relay churn, and a random field
// whose flows re-pair by nearest destination, with TCP, beacons, moving
// stations and a crash.
func resetOracleSpecs(t *testing.T) []Spec {
	specs := reuseSpecs(t)
	mesh, err := Preset("churn-mesh-5x5")
	if err != nil {
		t.Fatal(err)
	}
	mesh.Duration = Duration(2 * time.Second)
	specs = append(specs, mesh, Spec{
		Name:     "reset-mixed",
		Seed:     5,
		Duration: Duration(time.Second),
		MSS:      512,
		Profile:  ProfileTestbed,
		Topology: Topology{Kind: KindRandomUniform, N: 16, Width: 300, Height: 300},
		MAC:      MACParams{RateMbps: 2, BeaconInterval: Duration(100 * time.Millisecond)},
		Flows: []Flow{
			{Src: 0, Dst: 1, Transport: TransportTCP, PacketSize: 512, Port: 5001},
			{Src: 5, NearestDst: true, Transport: TransportUDP, PacketSize: 512,
				Interval: Duration(10 * time.Millisecond), Port: 9000},
			{Src: 9, Dst: 3, Transport: TransportUDP, PacketSize: 256, Port: 9001},
		},
		Mobility: &Mobility{Model: ModelRandomWaypoint, Width: 300, Height: 300, Stations: []int{2, 7}},
		Faults:   &FaultSpec{Crashes: []FaultCrash{{Station: 9, At: Duration(300 * time.Millisecond), Until: Duration(600 * time.Millisecond)}}},
	})
	return specs
}

// TestResetMatchesBuildState is the Reset oracle over randomized runs:
// each spec of resetOracleSpecs is built, then driven through a random
// sequence of seeds (repeats included), each run for a random share of
// its horizon; every third step resets twice with no run between.
// After every Reset, and again after running it, every station must
// match a fresh Build at that seed, and so must the run's result bytes.
func TestResetMatchesBuildState(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	for _, spec := range resetOracleSpecs(t) {
		t.Run(spec.Name, func(t *testing.T) {
			inst, err := Build(spec)
			if err != nil {
				t.Fatal(err)
			}
			inst.Net.Run(randomHorizon(rng, spec))
			seeds := []uint64{spec.Seed, spec.Seed + 1, 1001}
			for step := 0; step < 6; step++ {
				what := fmt.Sprintf("step %d", step)
				if step%3 == 2 {
					// Reset, Reset, Run: the first Reset's sources and
					// sinks never run, and the second must clear them.
					if err := inst.Reset(seeds[rng.Intn(len(seeds))]); err != nil {
						t.Fatal(err)
					}
					what += " (a second Reset)"
				}
				seed := seeds[rng.Intn(len(seeds))]
				if err := inst.Reset(seed); err != nil {
					t.Fatal(err)
				}
				s := spec
				s.Seed = seed
				fresh, err := Build(s)
				if err != nil {
					t.Fatal(err)
				}
				what += fmt.Sprintf(", seed %d", seed)
				compareStations(t, what+", after Reset", inst, fresh)
				h := randomHorizon(rng, spec)
				inst.Net.Run(h)
				fresh.Net.Run(h)
				a, _ := json.Marshal(inst.Collect(h))
				b, _ := json.Marshal(fresh.Collect(h))
				if !bytes.Equal(a, b) {
					t.Fatalf("%s: a %v run diverged from a fresh build:\nreset: %s\nfresh: %s", what, h, a, b)
				}
				compareStations(t, what+fmt.Sprintf(", after a %v run", h), inst, fresh)
			}
		})
	}
}

// randomHorizon draws a run length of 1 ms up to the spec's horizon.
func randomHorizon(rng *rand.Rand, spec Spec) time.Duration {
	return time.Millisecond + time.Duration(rng.Int63n(int64(spec.Duration.D())))
}

// FuzzResetMatchesBuild drives one reuseSpecs scenario through a fuzzed
// sequence of seeds on one instance — each byte of seeds picks a seed,
// and a zero byte resets again without a run in between — and requires
// every Reset-and-run to reproduce a fresh Build's result bytes.
func FuzzResetMatchesBuild(f *testing.F) {
	f.Add(uint8(0), []byte{1, 2, 1})
	f.Add(uint8(11), []byte{3, 0, 3})
	f.Add(uint8(12), []byte{7, 0, 0, 9})
	f.Add(uint8(10), []byte{5, 0, 5})
	f.Add(uint8(13), []byte{5, 5})
	specs := reuseSpecs(f)
	f.Fuzz(func(t *testing.T, which uint8, seeds []byte) {
		if len(seeds) > 4 {
			seeds = seeds[:4]
		}
		spec := specs[int(which)%len(specs)]
		spec.Duration = Duration(200 * time.Millisecond)
		inst, err := Build(spec)
		if err != nil {
			t.Fatal(err)
		}
		inst.Net.Run(spec.Duration.D())
		seed := spec.Seed
		for i, b := range seeds {
			if b != 0 {
				seed = uint64(b)
			}
			if err := inst.Reset(seed); err != nil {
				t.Fatal(err)
			}
			if b == 0 {
				continue
			}
			s := spec
			s.Seed = seed
			want, _ := json.Marshal(MustRun(s))
			h := spec.Duration.D()
			inst.Net.Run(h)
			got, _ := json.Marshal(inst.Collect(h))
			if !bytes.Equal(got, want) {
				t.Fatalf("%s, seed %d (step %d of %v): Reset-and-run diverged from a fresh build:\nreset: %s\nfresh: %s",
					spec.Name, seed, i, seeds, got, want)
			}
		}
	})
}
