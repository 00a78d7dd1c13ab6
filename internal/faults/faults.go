// Package faults is the deterministic fault-injection engine: a
// declarative fault plan — station crashes, link-degradation episodes,
// regional partitions, flow outages, random churn — compiles against a
// seed into a fixed Schedule before the run starts. Everything random
// (churn arrival times, victim picks, downtimes) is drawn from one
// named stream of the simulation's root source at compile time, so the
// schedule is a pure function of (plan, seed): the same faults fire at
// the same instants whatever the worker count, scheduler backend or
// arena-reuse path, which is what keeps faulted runs inside the
// simulator's bit-identical equivalence class.
//
// The engine deliberately produces data, not side effects. Crashes and
// outages become a sorted Event list the scenario layer schedules as
// ordinary simulator events on the affected station's own scheduler
// (parallel-kernel safe: each event touches only its region's state);
// degradations and partitions become a medium.DegTimeline — a pure
// function of time the medium consults on every link computation — so
// they need no events at all and invalidate the gain caches through
// epoch keys instead of callbacks.
package faults

import (
	"fmt"
	"math"
	"sort"
	"time"

	"adhocsim/internal/medium"
	"adhocsim/internal/phy"
	"adhocsim/internal/sim"
)

// churnStream names the Source stream all churn draws come from.
const churnStream = "faults.churn"

// Churn ceilings, checked by Validate. A churn process draws every
// crash at Compile, before the run starts, so an unbounded rate or
// window would hang the build rather than the run.
const (
	// MaxChurnRatePerMin is one crash a microsecond on average. Crash
	// instants are whole nanoseconds; at much faster rates most gaps
	// round to zero and the process stops advancing.
	MaxChurnRatePerMin = 6e7
	// MaxChurnCrashes caps the crashes a churn process is expected to
	// draw over its window, RatePerMin times the window in minutes.
	MaxChurnCrashes = 1 << 20
)

// Crash takes one station down at At: radio detached from the channel,
// MAC stack cold, routes gone. Until, when positive, restarts it — the
// station rejoins the IBSS with a reset stack and (under dsdv) a fresh
// route table at a bumped sequence number. Until zero means the
// station stays down for the rest of the run.
type Crash struct {
	Station int
	At      time.Duration
	Until   time.Duration
}

// Degradation deepens one station's shadowing by OffsetDB (≤ 0 dB, a
// loss) on every link it terminates during [From, To) — a body-blocked
// antenna, a vehicle in an underpass.
type Degradation struct {
	Station  int
	From, To time.Duration
	OffsetDB float64
}

// Partition attenuates every link that crosses the boundary of the
// axis-aligned region [X0,X1)×[Y0,Y1) by AttenDB (≥ 0 dB of extra
// loss) during [From, To), cutting the stations inside off from the
// rest of the field; at To the partition heals. Links with both ends
// on the same side are untouched.
type Partition struct {
	X0, Y0, X1, Y1 float64
	From, To       time.Duration
	AttenDB        float64
}

// Outage pauses one flow's source during [From, To): paced CBR ticks
// keep their phase but offer nothing, saturating sources stop
// refilling. An intentional silence, not a loss.
type Outage struct {
	Flow     int
	From, To time.Duration
}

// Churn draws random station crashes at RatePerMin (a Poisson process
// over [Start, End), End zero meaning the horizon): each event picks a
// victim uniformly from Stations (empty = every station) and a
// downtime uniformly from [MinDown, MaxDown]. Draws that would overlap
// an existing crash window of the victim are skipped — the draw is
// still consumed, so the remaining schedule is unchanged.
type Churn struct {
	RatePerMin       float64
	MinDown, MaxDown time.Duration
	Stations         []int
	Start, End       time.Duration
}

// Params is a complete declarative fault plan.
type Params struct {
	Crashes      []Crash
	Degradations []Degradation
	Partitions   []Partition
	Outages      []Outage
	Churn        *Churn
}

// Empty reports whether the plan injects nothing.
func (p Params) Empty() bool {
	return len(p.Crashes) == 0 && len(p.Degradations) == 0 &&
		len(p.Partitions) == 0 && len(p.Outages) == 0 && p.Churn == nil
}

// Validate checks the plan against a topology of n stations, nFlows
// flows and the run horizon.
func (p Params) Validate(n, nFlows int, horizon time.Duration) error {
	for i, c := range p.Crashes {
		if c.Station < 0 || c.Station >= n {
			return fmt.Errorf("faults: crash %d station %d outside topology of %d stations", i, c.Station, n)
		}
		if c.At < 0 || c.At >= horizon {
			return fmt.Errorf("faults: crash %d at %v outside run horizon %v", i, c.At, horizon)
		}
		if c.Until != 0 && c.Until <= c.At {
			return fmt.Errorf("faults: crash %d restarts at %v, not after its crash at %v", i, c.Until, c.At)
		}
	}
	if err := checkCrashOverlap(p.Crashes, horizon); err != nil {
		return err
	}
	for i, d := range p.Degradations {
		if d.Station < 0 || d.Station >= n {
			return fmt.Errorf("faults: degradation %d station %d outside topology of %d stations", i, d.Station, n)
		}
		if d.From < 0 || d.To <= d.From {
			return fmt.Errorf("faults: degradation %d window [%v, %v) is empty", i, d.From, d.To)
		}
		if d.OffsetDB > 0 {
			return fmt.Errorf("faults: degradation %d offset %+.1f dB is a gain; faults only inject losses (≤ 0 dB)", i, d.OffsetDB)
		}
	}
	for i, pt := range p.Partitions {
		if pt.X1 <= pt.X0 || pt.Y1 <= pt.Y0 {
			return fmt.Errorf("faults: partition %d region [%g,%g)x[%g,%g) is empty", i, pt.X0, pt.X1, pt.Y0, pt.Y1)
		}
		if pt.From < 0 || pt.To <= pt.From {
			return fmt.Errorf("faults: partition %d window [%v, %v) is empty", i, pt.From, pt.To)
		}
		if pt.AttenDB < 0 {
			return fmt.Errorf("faults: partition %d attenuation %g dB is negative (AttenDB is the extra loss)", i, pt.AttenDB)
		}
	}
	for i, o := range p.Outages {
		if o.Flow < 0 || o.Flow >= nFlows {
			return fmt.Errorf("faults: outage %d flow %d outside traffic matrix of %d flows", i, o.Flow, nFlows)
		}
		if o.From < 0 || o.To <= o.From {
			return fmt.Errorf("faults: outage %d window [%v, %v) is empty", i, o.From, o.To)
		}
	}
	if c := p.Churn; c != nil {
		if c.RatePerMin <= 0 {
			return fmt.Errorf("faults: churn rate %g/min must be positive", c.RatePerMin)
		}
		if c.RatePerMin > MaxChurnRatePerMin {
			return fmt.Errorf("faults: churn rate %g/min exceeds the limit of %g/min", c.RatePerMin, float64(MaxChurnRatePerMin))
		}
		if c.MinDown <= 0 || c.MaxDown < c.MinDown {
			return fmt.Errorf("faults: churn downtime range [%v, %v] is invalid", c.MinDown, c.MaxDown)
		}
		if c.Start < 0 || (c.End != 0 && c.End <= c.Start) {
			return fmt.Errorf("faults: churn window [%v, %v) is empty", c.Start, c.End)
		}
		end := c.End
		if end == 0 || end > horizon {
			end = horizon
		}
		if want := c.RatePerMin * float64(end-c.Start) / float64(time.Minute); want > MaxChurnCrashes {
			return fmt.Errorf("faults: churn expects %.3g crashes over [%v, %v), over the limit of %d", want, c.Start, end, MaxChurnCrashes)
		}
		seen := make(map[int]bool, len(c.Stations))
		for _, st := range c.Stations {
			if st < 0 || st >= n {
				return fmt.Errorf("faults: churn station %d outside topology of %d stations", st, n)
			}
			if seen[st] {
				return fmt.Errorf("faults: churn station %d listed twice", st)
			}
			seen[st] = true
		}
	}
	return nil
}

// checkCrashOverlap rejects plans where one station's explicit crash
// windows overlap — the engine could pick an order, but an overlapping
// plan is a spec bug, not an intent.
func checkCrashOverlap(crashes []Crash, horizon time.Duration) error {
	byStation := map[int][]Crash{}
	for _, c := range crashes {
		byStation[c.Station] = append(byStation[c.Station], c)
	}
	for st, cs := range byStation {
		sort.Slice(cs, func(i, j int) bool { return cs[i].At < cs[j].At })
		for i := 1; i < len(cs); i++ {
			prevEnd := cs[i-1].Until
			if prevEnd == 0 {
				prevEnd = horizon
			}
			if cs[i].At < prevEnd {
				return fmt.Errorf("faults: station %d crash windows overlap at %v", st, cs[i].At)
			}
		}
	}
	return nil
}

// Schedule is a compiled fault plan: every instant fixed, every random
// draw already made. It is immutable and safe to query concurrently.
type Schedule struct {
	N       int
	Horizon time.Duration

	// Crashes merges the explicit plan with the churn draws, sorted by
	// crash instant (ties keep plan order, churn after plan).
	Crashes      []Crash
	Degradations []Degradation
	Partitions   []Partition
	Outages      []Outage
}

// Compile validates the plan and fixes every fault instant. All churn
// randomness is drawn here, from the source's "faults.churn" stream,
// so a Schedule is a pure function of (plan, seed, horizon, n):
// executing it cannot depend on worker count or event interleaving
// because nothing is left to decide at run time.
func Compile(p Params, src *sim.Source, horizon time.Duration, n, nFlows int) (*Schedule, error) {
	if err := p.Validate(n, nFlows, horizon); err != nil {
		return nil, err
	}
	s := &Schedule{
		N:            n,
		Horizon:      horizon,
		Crashes:      append([]Crash(nil), p.Crashes...),
		Degradations: append([]Degradation(nil), p.Degradations...),
		Partitions:   append([]Partition(nil), p.Partitions...),
		Outages:      append([]Outage(nil), p.Outages...),
	}
	if c := p.Churn; c != nil {
		s.Crashes = append(s.Crashes, drawChurn(*c, src, horizon, n, s.Crashes)...)
	}
	sort.SliceStable(s.Crashes, func(i, j int) bool { return s.Crashes[i].At < s.Crashes[j].At })
	return s, nil
}

// drawChurn expands a churn process into concrete crashes. existing
// holds the plan's explicit crashes, so churn never double-crashes a
// station that is already down.
func drawChurn(c Churn, src *sim.Source, horizon time.Duration, n int, existing []Crash) []Crash {
	rng := src.Stream(churnStream)
	cands := c.Stations
	if len(cands) == 0 {
		cands = make([]int, n)
		for i := range cands {
			cands[i] = i
		}
	}
	end := c.End
	if end == 0 || end > horizon {
		end = horizon
	}
	ratePerNs := c.RatePerMin / float64(time.Minute)
	// A draw overlaps one of its victim's planned windows, or one drawn
	// before it. The draws come in time order, so of those it overlaps
	// exactly the ones ending after it starts: the latest end decides.
	planned := map[int][]Crash{}
	for _, w := range existing {
		planned[w.Station] = append(planned[w.Station], w)
	}
	drawnEnd := map[int]time.Duration{}
	var drawn []Crash
	for t := c.Start; ; {
		// Compared as a float first: a gap past the window may not fit
		// a Duration.
		gap := rng.ExpFloat64() / ratePerNs
		if gap >= float64(end-t) {
			break
		}
		if t += time.Duration(gap); t >= end {
			break
		}
		victim := cands[rng.Intn(len(cands))]
		down := c.MinDown
		if c.MaxDown > c.MinDown {
			down += time.Duration(rng.Int63n(int64(c.MaxDown-c.MinDown) + 1))
		}
		until := t + down
		if until < t {
			until = math.MaxInt64 // down forever, past any horizon
		}
		// A victim already inside a crash window is skipped, but its
		// draws are consumed: the rest of the process is unchanged.
		ev := Crash{Station: victim, At: t, Until: until}
		if t < drawnEnd[victim] || overlapsAny(planned[victim], ev, horizon) {
			continue
		}
		drawnEnd[victim] = until
		drawn = append(drawn, ev)
	}
	return drawn
}

func overlapsAny(windows []Crash, c Crash, horizon time.Duration) bool {
	for _, w := range windows {
		if w.Station != c.Station {
			continue
		}
		wEnd, cEnd := w.Until, c.Until
		if wEnd == 0 {
			wEnd = horizon
		}
		if cEnd == 0 {
			cEnd = horizon
		}
		if c.At < wEnd && w.At < cEnd {
			return true
		}
	}
	return false
}

// Kind discriminates the schedule's executable events.
type Kind int

// The executable event kinds. Degradations and partitions produce no
// events — they live in the Timeline, a pure function of time.
const (
	CrashEvent Kind = iota
	RestartEvent
	OutageStartEvent
	OutageEndEvent
)

// Event is one executable fault: a station crash or restart, or a flow
// outage edge. Station is meaningful for crash/restart, Flow for
// outages.
type Event struct {
	At      time.Duration
	Kind    Kind
	Station int
	Flow    int
}

// Events lists the schedule's executable events sorted by instant
// (stable: ties keep crash-before-outage construction order). Events
// at or past the horizon are dropped — they could never fire.
func (s *Schedule) Events() []Event {
	var evs []Event
	for _, c := range s.Crashes {
		if c.At < s.Horizon {
			evs = append(evs, Event{At: c.At, Kind: CrashEvent, Station: c.Station})
		}
		if c.Until > 0 && c.Until < s.Horizon {
			evs = append(evs, Event{At: c.Until, Kind: RestartEvent, Station: c.Station})
		}
	}
	for _, o := range s.Outages {
		if o.From < s.Horizon {
			evs = append(evs, Event{At: o.From, Kind: OutageStartEvent, Flow: o.Flow, Station: -1})
		}
		if o.To < s.Horizon {
			evs = append(evs, Event{At: o.To, Kind: OutageEndEvent, Flow: o.Flow, Station: -1})
		}
	}
	sort.SliceStable(evs, func(i, j int) bool { return evs[i].At < evs[j].At })
	return evs
}

// EventCounts tallies a schedule's executable events by kind, indexed
// by Kind — the planned-edge totals the obs layer publishes beside the
// applied-edge counters the wiring increments as each event actually
// fires (they differ only if a run stops short of the horizon).
func (s *Schedule) EventCounts() [4]int {
	var n [4]int
	for _, ev := range s.Events() {
		n[ev.Kind]++
	}
	return n
}

// Timeline compiles the schedule's degradations and partitions into
// the medium's degradation timeline: per-station shadowing episodes
// plus boundary attenuation for every partition, stations classified
// by the given positions. Nil when the schedule has neither — the
// medium then skips the degradation path entirely.
func (s *Schedule) Timeline(positions []phy.Position) *medium.DegTimeline {
	if len(s.Degradations) == 0 && len(s.Partitions) == 0 {
		return nil
	}
	d := medium.NewDegTimeline(s.N)
	for _, dg := range s.Degradations {
		d.AddStationEpisode(dg.Station, dg.From, dg.To, dg.OffsetDB)
	}
	for _, p := range s.Partitions {
		inside := make([]bool, s.N)
		for i, pos := range positions {
			inside[i] = pos.X >= p.X0 && pos.X < p.X1 && pos.Y >= p.Y0 && pos.Y < p.Y1
		}
		d.AddPairRule(inside, p.From, p.To, -p.AttenDB)
	}
	d.Finalize()
	return d
}

// UpDown is one station's downtime account over the run.
type UpDown struct {
	Down    time.Duration
	Crashes int
}

// StationUpDown folds the crash windows into per-station downtime and
// crash counts, windows clamped to the horizon.
func (s *Schedule) StationUpDown() []UpDown {
	out := make([]UpDown, s.N)
	for _, c := range s.Crashes {
		if c.At >= s.Horizon {
			continue
		}
		until := c.Until
		if until == 0 || until > s.Horizon {
			until = s.Horizon
		}
		out[c.Station].Down += until - c.At
		out[c.Station].Crashes++
	}
	return out
}

// DownAt reports whether the station is inside a crash window at t.
func (s *Schedule) DownAt(station int, t time.Duration) bool {
	for _, c := range s.Crashes {
		if c.Station != station {
			continue
		}
		until := c.Until
		if until == 0 {
			until = s.Horizon
		}
		if t >= c.At && t < until {
			return true
		}
	}
	return false
}

// DowntimeTicks counts a paced flow's offered instants (every interval
// from time zero) that fall while its destination is crashed but its
// source is not — the destination-side share of downtime-attributed
// loss. The source-side share is measured live (the MAC refuses the
// send with ErrDown), so excluding source-down instants here keeps the
// two shares disjoint.
func (s *Schedule) DowntimeTicks(src, dst int, interval time.Duration) uint64 {
	if interval <= 0 {
		return 0
	}
	var n uint64
	for t := time.Duration(0); t < s.Horizon; t += interval {
		if s.DownAt(dst, t) && !s.DownAt(src, t) {
			n++
		}
	}
	return n
}

// FaultInstants lists every instant a fault may break routes — crash
// onsets and partition onsets — sorted ascending. The scenario layer
// stamps them on every flow's sink as recovery markers: the first
// delivery after each marker closes it as a route-recovery sample.
func (s *Schedule) FaultInstants() []time.Duration {
	var out []time.Duration
	for _, c := range s.Crashes {
		if c.At < s.Horizon {
			out = append(out, c.At)
		}
	}
	for _, p := range s.Partitions {
		if p.From < s.Horizon {
			out = append(out, p.From)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}
