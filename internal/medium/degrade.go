package medium

import (
	"fmt"
	"sort"
	"time"
)

// DegTimeline is a precompiled, immutable link-degradation timeline: a
// piecewise-constant shadowing offset per station slot plus regional
// partition rules that attenuate every link crossing a region boundary
// during their window. The fault engine compiles one per run from the
// Spec's fault schedule and installs it with Medium.SetDegradation.
//
// Immutability is the parallel-kernel contract: after Finalize the
// timeline is never written again, every query is a pure function of
// (slots, now), and region goroutines can evaluate it concurrently
// without synchronization. Offsets must be ≤ 0 dB — degradation only
// ever lowers received power — so the spatial index's relevance radius
// (computed fade-optimistically, without degradation) remains a sound
// upper bound and the irrelevance cut can only prune more, never less.
//
// The link-gain cache keys degradation by per-endpoint epochs: each
// slot's timeline is a sorted boundary list, and the epoch at time now
// is the count of boundaries ≤ now. Partition windows inject their
// boundaries into every inside station's timeline (leaving the value
// unchanged), so any link that crosses a partition edge has at least
// one endpoint whose epoch ticks at the window's open and close — the
// cached pair offset can never go stale.
type DegTimeline struct {
	// Per-slot step functions: bounds[s] is sorted ascending and
	// vals[s] has len(bounds[s])+1 entries — vals[s][e] is the slot's
	// offset during epoch e (the interval between boundary e-1 and
	// boundary e, half-open on the right).
	bounds [][]time.Duration
	vals   [][]float64

	// pairs are the partition rules, applied to a link when exactly one
	// endpoint is inside the region during the window.
	pairs []degPair

	// global is the sorted distinct union of every boundary instant, the
	// field-wide epoch the fan-out memo keys on.
	global []time.Duration

	// episodes is builder state, consumed by Finalize.
	episodes []degEpisode
	final    bool
}

// degEpisode is one per-station degradation window (builder state).
type degEpisode struct {
	slot     int
	from, to time.Duration
	offsetDB float64
}

// degPair is one compiled partition rule.
type degPair struct {
	from, to time.Duration
	attenDB  float64
	inside   []bool // per slot
}

// NewDegTimeline returns an empty timeline over n station slots.
func NewDegTimeline(n int) *DegTimeline {
	return &DegTimeline{
		bounds: make([][]time.Duration, n),
		vals:   make([][]float64, n),
	}
}

// AddStationEpisode adds offsetDB to every link touching slot during
// [from, to). Offsets must be ≤ 0 (see the type comment); overlapping
// episodes sum in insertion order.
func (d *DegTimeline) AddStationEpisode(slot int, from, to time.Duration, offsetDB float64) {
	if d.final {
		panic("medium: AddStationEpisode after Finalize")
	}
	if offsetDB > 0 {
		panic(fmt.Sprintf("medium: positive degradation offset %g dB would unsound the spatial index", offsetDB))
	}
	if !(from < to) || slot < 0 || slot >= len(d.bounds) {
		panic(fmt.Sprintf("medium: bad degradation episode slot=%d [%v,%v)", slot, from, to))
	}
	d.episodes = append(d.episodes, degEpisode{slot: slot, from: from, to: to, offsetDB: offsetDB})
}

// AddPairRule adds attenDB (≤ 0) to every link with exactly one
// endpoint inside the region during [from, to). inside must have one
// entry per slot and is retained — the caller must not mutate it.
func (d *DegTimeline) AddPairRule(inside []bool, from, to time.Duration, attenDB float64) {
	if d.final {
		panic("medium: AddPairRule after Finalize")
	}
	if attenDB > 0 {
		panic(fmt.Sprintf("medium: positive partition attenuation %g dB would unsound the spatial index", attenDB))
	}
	if !(from < to) || len(inside) != len(d.bounds) {
		panic(fmt.Sprintf("medium: bad partition rule [%v,%v) over %d slots", from, to, len(inside)))
	}
	d.pairs = append(d.pairs, degPair{from: from, to: to, attenDB: attenDB, inside: inside})
}

// Finalize compiles the accumulated episodes and rules into the
// queryable step functions. Call exactly once, before installation.
func (d *DegTimeline) Finalize() {
	if d.final {
		panic("medium: Finalize called twice")
	}
	d.final = true

	// Gather per-slot boundary instants: the slot's own episode edges
	// plus the edges of every partition window it is inside (the value
	// does not change there, but the epoch must tick — that is what
	// keys the pair offset out of the cache).
	perSlot := make([][]time.Duration, len(d.bounds))
	for _, e := range d.episodes {
		perSlot[e.slot] = append(perSlot[e.slot], e.from, e.to)
	}
	for _, p := range d.pairs {
		for s, in := range p.inside {
			if in {
				perSlot[s] = append(perSlot[s], p.from, p.to)
			}
		}
	}
	var global []time.Duration
	for s, b := range perSlot {
		sortDedupTimes(&b)
		d.bounds[s] = b
		vals := make([]float64, len(b)+1)
		for e := 0; e <= len(b); e++ {
			// Probe at the epoch's left edge: epochs are half-open on the
			// right and every episode edge is itself a boundary, so the
			// left edge classifies the whole interval exactly.
			var t time.Duration
			if e > 0 {
				t = b[e-1]
			} else {
				t = -1 // before every boundary
			}
			var v float64
			for _, ep := range d.episodes {
				if ep.slot == s && t >= ep.from && t < ep.to {
					v += ep.offsetDB
				}
			}
			vals[e] = v
		}
		d.vals[s] = vals
		global = append(global, b...)
	}
	for _, p := range d.pairs {
		global = append(global, p.from, p.to)
	}
	sortDedupTimes(&global)
	d.global = global
	d.episodes = nil
}

// sortDedupTimes sorts ts ascending and removes duplicates in place.
func sortDedupTimes(ts *[]time.Duration) {
	b := *ts
	sort.Slice(b, func(i, j int) bool { return b[i] < b[j] })
	out := b[:0]
	for i, t := range b {
		if i == 0 || t != out[len(out)-1] {
			out = append(out, t)
		}
	}
	*ts = out
}

// epoch returns the slot's degradation epoch at time now: the number of
// its boundaries ≤ now. The cached pair offset is valid while both
// endpoints' epochs stand still.
func (d *DegTimeline) epoch(slot int32, now time.Duration) uint64 {
	b := d.bounds[slot]
	return uint64(sort.Search(len(b), func(i int) bool { return b[i] > now }))
}

// globalEpoch returns the whole-field epoch at time now — the
// count of any boundary instants ≤ now — keying the fan-out memo.
func (d *DegTimeline) globalEpoch(now time.Duration) uint64 {
	g := d.global
	return uint64(sort.Search(len(g), func(i int) bool { return g[i] > now }))
}

// linkOffset returns the degradation offset in dB for the directed link
// txSlot→rxSlot at time now: the two endpoint offsets plus every active
// partition rule the link crosses, summed in a fixed order so cached
// and direct computations are bit-identical.
func (d *DegTimeline) linkOffset(txSlot, rxSlot int32, now time.Duration) float64 {
	v := d.vals[txSlot][d.epoch(txSlot, now)]
	v += d.vals[rxSlot][d.epoch(rxSlot, now)]
	for i := range d.pairs {
		p := &d.pairs[i]
		if now >= p.from && now < p.to && p.inside[txSlot] != p.inside[rxSlot] {
			v += p.attenDB
		}
	}
	return v
}

// LinkOffsetDB exposes linkOffset for instrumentation and tests: the
// compiled degradation offset in dB for the directed link tx→rx at time
// now. The timeline must be finalized.
func (d *DegTimeline) LinkOffsetDB(tx, rx int32, now time.Duration) float64 {
	if !d.final {
		panic("medium: LinkOffsetDB before Finalize")
	}
	return d.linkOffset(tx, rx, now)
}

// Empty reports whether the timeline degrades nothing — no episodes
// and no partition rules survived compilation.
func (d *DegTimeline) Empty() bool {
	return len(d.global) == 0 && len(d.pairs) == 0
}

// SetDegradation installs (or, with nil, removes) the run's link
// degradation timeline. The timeline must be finalized. Installation
// advances posEpoch, which stales the gain rows and the candidate/fan
// memos: the timeline is part of the link-power function, and a reused
// arena must recompute against the new run's schedule. Installing nil
// over nil is a no-op, so fault-free scenarios keep every cache warm
// across resets.
func (m *Medium) SetDegradation(d *DegTimeline) {
	if m.deg == nil && d == nil {
		return
	}
	if d != nil && !d.final {
		panic("medium: SetDegradation before Finalize")
	}
	m.deg = d
	m.posEpoch++
}
