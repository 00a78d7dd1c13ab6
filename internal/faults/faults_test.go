package faults

import (
	"math"
	"reflect"
	"strings"
	"testing"
	"time"

	"adhocsim/internal/phy"
	"adhocsim/internal/sim"
)

func sec(s float64) time.Duration { return time.Duration(s * float64(time.Second)) }

func TestCompileIsDeterministic(t *testing.T) {
	p := Params{
		Crashes: []Crash{{Station: 1, At: sec(2), Until: sec(4)}},
		Churn: &Churn{
			RatePerMin: 120, MinDown: sec(0.2), MaxDown: sec(1),
		},
	}
	a, err := Compile(p, sim.NewSource(42), sec(10), 8, 1)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Compile(p, sim.NewSource(42), sec(10), 8, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("same seed compiled two schedules:\n%+v\n%+v", a, b)
	}
	if len(a.Crashes) < 2 {
		t.Fatalf("churn at 120/min over 10 s drew %d crashes beyond the explicit one", len(a.Crashes)-1)
	}
	c, err := Compile(p, sim.NewSource(43), sec(10), 8, 1)
	if err != nil {
		t.Fatal(err)
	}
	if reflect.DeepEqual(a.Crashes, c.Crashes) {
		t.Fatal("different seeds drew identical churn")
	}
}

func TestChurnNeverOverlapsCrashWindows(t *testing.T) {
	p := Params{
		Crashes: []Crash{{Station: 0, At: sec(1), Until: sec(9)}},
		Churn:   &Churn{RatePerMin: 600, MinDown: sec(1), MaxDown: sec(3)},
	}
	s, err := Compile(p, sim.NewSource(7), sec(10), 3, 0)
	if err != nil {
		t.Fatal(err)
	}
	for i, a := range s.Crashes {
		for j, b := range s.Crashes {
			if i >= j || a.Station != b.Station {
				continue
			}
			aEnd, bEnd := a.Until, b.Until
			if aEnd == 0 {
				aEnd = s.Horizon
			}
			if bEnd == 0 {
				bEnd = s.Horizon
			}
			if a.At < bEnd && b.At < aEnd {
				t.Fatalf("crashes %d and %d overlap on station %d: %+v vs %+v", i, j, a.Station, a, b)
			}
		}
	}
}

func TestValidateRejections(t *testing.T) {
	h := sec(10)
	cases := []struct {
		name string
		p    Params
		want string
	}{
		{"crash station", Params{Crashes: []Crash{{Station: 9, At: sec(1)}}}, "outside topology"},
		{"crash past horizon", Params{Crashes: []Crash{{Station: 0, At: sec(11)}}}, "outside run horizon"},
		{"crash restart before crash", Params{Crashes: []Crash{{Station: 0, At: sec(2), Until: sec(1)}}}, "not after"},
		{"crash overlap", Params{Crashes: []Crash{
			{Station: 0, At: sec(1), Until: sec(5)},
			{Station: 0, At: sec(4), Until: sec(6)},
		}}, "overlap"},
		{"open crash overlap", Params{Crashes: []Crash{
			{Station: 0, At: sec(1)},
			{Station: 0, At: sec(4), Until: sec(6)},
		}}, "overlap"},
		{"degradation gain", Params{Degradations: []Degradation{{Station: 0, From: sec(1), To: sec(2), OffsetDB: 3}}}, "gain"},
		{"degradation window", Params{Degradations: []Degradation{{Station: 0, From: sec(2), To: sec(2), OffsetDB: -3}}}, "empty"},
		{"partition box", Params{Partitions: []Partition{{X0: 5, X1: 5, Y0: 0, Y1: 1, From: sec(1), To: sec(2), AttenDB: 10}}}, "empty"},
		{"partition atten", Params{Partitions: []Partition{{X0: 0, X1: 1, Y0: 0, Y1: 1, From: sec(1), To: sec(2), AttenDB: -1}}}, "negative"},
		{"outage flow", Params{Outages: []Outage{{Flow: 2, From: sec(1), To: sec(2)}}}, "outside traffic matrix"},
		{"churn rate", Params{Churn: &Churn{RatePerMin: 0, MinDown: sec(1), MaxDown: sec(1)}}, "positive"},
		{"churn downtime", Params{Churn: &Churn{RatePerMin: 1, MinDown: sec(2), MaxDown: sec(1)}}, "invalid"},
		{"churn station dup", Params{Churn: &Churn{RatePerMin: 1, MinDown: sec(1), MaxDown: sec(1), Stations: []int{1, 1}}}, "twice"},
		// A flood rounds most gaps to zero nanoseconds, and a long
		// window draws more crashes than memory holds: both used to
		// hang Compile.
		{"churn flood", Params{Churn: &Churn{RatePerMin: 1e12, MinDown: sec(1), MaxDown: sec(1)}}, "exceeds the limit"},
		{"churn count", Params{Churn: &Churn{RatePerMin: 1e7, MinDown: sec(1), MaxDown: sec(1)}}, "over the limit"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := tc.p.Validate(4, 2, h)
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("Validate = %v, want error containing %q", err, tc.want)
			}
		})
	}
}

func TestStationUpDownAndDownAt(t *testing.T) {
	s, err := Compile(Params{Crashes: []Crash{
		{Station: 1, At: sec(2), Until: sec(3)},
		{Station: 1, At: sec(5), Until: sec(20)}, // clamped to the horizon
		{Station: 2, At: sec(4)},                 // never restarts
	}}, sim.NewSource(1), sec(10), 4, 0)
	if err != nil {
		t.Fatal(err)
	}
	ud := s.StationUpDown()
	if ud[0].Down != 0 || ud[0].Crashes != 0 {
		t.Fatalf("station 0 = %+v", ud[0])
	}
	if ud[1].Down != sec(6) || ud[1].Crashes != 2 {
		t.Fatalf("station 1 = %+v, want 6s down over 2 crashes", ud[1])
	}
	if ud[2].Down != sec(6) || ud[2].Crashes != 1 {
		t.Fatalf("station 2 = %+v, want 6s down over 1 crash", ud[2])
	}
	for _, tc := range []struct {
		st   int
		at   time.Duration
		want bool
	}{
		{1, sec(2), true}, {1, sec(3), false}, {1, sec(7), true},
		{2, sec(3.9), false}, {2, sec(9.9), true}, {0, sec(5), false},
	} {
		if got := s.DownAt(tc.st, tc.at); got != tc.want {
			t.Errorf("DownAt(%d, %v) = %v, want %v", tc.st, tc.at, got, tc.want)
		}
	}
	// Paced ticks every second: dst 2 is down at t=4..9 (6 ticks); src 1
	// is down at 2, 5..9 — overlapping ticks 5..9 are attributed to the
	// source side, leaving only t=4.
	if got := s.DowntimeTicks(1, 2, sec(1)); got != 1 {
		t.Fatalf("DowntimeTicks = %d, want 1", got)
	}
	if got := s.DowntimeTicks(0, 2, sec(1)); got != 6 {
		t.Fatalf("DowntimeTicks (healthy src) = %d, want 6", got)
	}
}

func TestEventsSortedAndClamped(t *testing.T) {
	s, err := Compile(Params{
		Crashes: []Crash{{Station: 0, At: sec(6), Until: sec(12)}},
		Outages: []Outage{{Flow: 0, From: sec(1), To: sec(3)}},
	}, sim.NewSource(1), sec(10), 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	evs := s.Events()
	want := []Event{
		{At: sec(1), Kind: OutageStartEvent, Station: -1, Flow: 0},
		{At: sec(3), Kind: OutageEndEvent, Station: -1, Flow: 0},
		{At: sec(6), Kind: CrashEvent, Station: 0},
	}
	if !reflect.DeepEqual(evs, want) {
		t.Fatalf("events = %+v, want %+v (restart past the horizon dropped)", evs, want)
	}
}

func TestTimelineClassifiesPartition(t *testing.T) {
	s, err := Compile(Params{
		Degradations: []Degradation{{Station: 0, From: sec(1), To: sec(2), OffsetDB: -10}},
		Partitions:   []Partition{{X0: 50, Y0: -10, X1: 200, Y1: 10, From: sec(3), To: sec(5), AttenDB: 40}},
	}, sim.NewSource(1), sec(10), 3, 0)
	if err != nil {
		t.Fatal(err)
	}
	positions := []phy.Position{{X: 0}, {X: 60}, {X: 70}}
	d := s.Timeline(positions)
	if d == nil {
		t.Fatal("timeline nil with degradations present")
	}
	// Cross-boundary link 0-1 loses 40 dB inside the window, the inside
	// pair 1-2 and every link outside the window lose nothing; station
	// 0's episode adds its -10 dB during [1s, 2s).
	cases := []struct {
		tx, rx int32
		at     time.Duration
		want   float64
	}{
		{0, 1, sec(0.5), 0},
		{0, 1, sec(1.5), -10},
		{0, 1, sec(2.5), 0},
		{0, 1, sec(4), -40},
		{1, 2, sec(4), 0},
		{0, 1, sec(5), 0},
	}
	for _, tc := range cases {
		if got := d.LinkOffsetDB(tc.tx, tc.rx, tc.at); got != tc.want {
			t.Errorf("LinkOffsetDB(%d,%d,%v) = %g, want %g", tc.tx, tc.rx, tc.at, got, tc.want)
		}
	}
	if s2, _ := Compile(Params{}, sim.NewSource(1), sec(10), 3, 0); s2.Timeline(positions) != nil {
		t.Fatal("empty schedule produced a timeline")
	}
}

// TestChurnLimits: a churn process at the rate and count ceilings
// compiles, a tiny rate draws nothing instead of overflowing the first
// gap, and a downtime reaching past the largest Duration leaves the
// victim down for good rather than restarting at a negative instant.
func TestChurnLimits(t *testing.T) {
	h := sec(1)
	at := Params{Churn: &Churn{RatePerMin: MaxChurnCrashes, MinDown: time.Nanosecond, MaxDown: time.Nanosecond}}
	if _, err := Compile(at, sim.NewSource(1), time.Minute, 64, 0); err != nil {
		t.Fatalf("churn at the count limit: %v", err)
	}
	fast := Params{Churn: &Churn{RatePerMin: MaxChurnRatePerMin, MinDown: time.Nanosecond, MaxDown: time.Nanosecond}}
	if _, err := Compile(fast, sim.NewSource(1), time.Millisecond, 64, 0); err != nil {
		t.Fatalf("churn at the rate limit: %v", err)
	}
	slow := Params{Churn: &Churn{RatePerMin: 1e-300, MinDown: time.Nanosecond, MaxDown: time.Nanosecond}}
	if s, err := Compile(slow, sim.NewSource(1), h, 4, 0); err != nil || len(s.Crashes) != 0 {
		t.Fatalf("churn at 1e-300/min: %v, %d crashes; want none", err, len(s.Crashes))
	}
	long := Params{Churn: &Churn{RatePerMin: 600, MinDown: sec(1), MaxDown: math.MaxInt64 - 1}}
	s, err := Compile(long, sim.NewSource(3), h, 4, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(s.Crashes) == 0 {
		t.Fatal("the case draws no crash")
	}
	for _, c := range s.Crashes {
		if c.Until <= c.At {
			t.Fatalf("crash %+v restarts before it crashes", c)
		}
		if !s.DownAt(c.Station, h-1) {
			t.Fatalf("station %d is up at the horizon after a crash %+v", c.Station, c)
		}
	}
}

// TestChurnMatchesPairwiseCheck holds drawChurn, which checks a draw
// against its victim's planned windows and the latest end it drew
// there, to the pairwise check it replaced: a draw is kept only if it
// overlaps no planned or earlier kept window of its victim.
func TestChurnMatchesPairwiseCheck(t *testing.T) {
	for seed := uint64(0); seed < 40; seed++ {
		n := 1 + int(seed%5)
		c := Churn{RatePerMin: 300, MinDown: sec(0.05), MaxDown: sec(float64(seed%4) + 0.05), Start: sec(0.5)}
		if seed%3 == 0 {
			c.Stations = []int{0}
		}
		planned := []Crash{{Station: 0, At: sec(2), Until: sec(3)}, {Station: n - 1, At: sec(6)}}
		got := drawChurn(c, sim.NewSource(seed), sec(10), n, planned)
		// Replay the same draws and keep a draw exactly when it misses
		// every window kept so far.
		rng := sim.NewSource(seed).Stream(churnStream)
		cands := c.Stations
		if len(cands) == 0 {
			for i := 0; i < n; i++ {
				cands = append(cands, i)
			}
		}
		windows := append([]Crash(nil), planned...)
		var want []Crash
		for t := c.Start; ; {
			t += time.Duration(rng.ExpFloat64() / (c.RatePerMin / float64(time.Minute)))
			if t >= sec(10) {
				break
			}
			victim := cands[rng.Intn(len(cands))]
			down := c.MinDown
			if c.MaxDown > c.MinDown {
				down += time.Duration(rng.Int63n(int64(c.MaxDown-c.MinDown) + 1))
			}
			ev := Crash{Station: victim, At: t, Until: t + down}
			if overlapsAny(windows, ev, sec(10)) {
				continue
			}
			windows = append(windows, ev)
			want = append(want, ev)
		}
		if len(want) == 0 || !reflect.DeepEqual(got, want) {
			t.Fatalf("seed %d: drew %v, pairwise check keeps %v", seed, got, want)
		}
	}
}
