package medium

import (
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"time"

	"adhocsim/internal/frame"
	"adhocsim/internal/phy"
	"adhocsim/internal/sim"
)

// This file is the medium's half of the space-partitioned parallel
// execution mode (sim.Exec). The field is partitioned by a
// phy.RegionGrid; a transmission's receiver set may span any number of
// regions, and each remote region's slice crosses the boundary as ONE
// exec message — the leading edge, timestamped one propagation bound
// out, the minimum any cross-region influence costs, which is what the
// conservative lookahead (phy.MinPropagationDelay over the regions'
// separation and the field's relevance radius) rests on; see
// internal/phy/lookahead.go for the derivation. The trailing edge never
// crosses the boundary itself: the lead schedules it locally on the
// destination scheduler once it arrives (the frame end is strictly
// after the frame start, so it is always a local-future event there).
//
// Partitioned state discipline: everything a region's events touch is
// either owned by that region (its radios' receive chains, its shard's
// pools and counters) or reached across a region boundary only through
// sim.Exec.Send, whose timestamps are at least one propagation bound in
// the future — the exec's published-clock protocol then guarantees the
// receiving region observes the sender's writes (the race detector job
// in CI checks exactly this). The link-gain cache stays safe: a
// radio's gain row, like its candidate memo, is rebuilt and written
// only by its own region (a radio transmits only on its own region's
// goroutine), and what a rebuild reads — the spatial index and the
// receiver-side SoA arrays (position, id, irrelevance cut) — is
// immutable while a partition is installed (mobility scenarios fall
// back to the sequential kernel).

// medShard is the per-region slice of the medium's mutable transmit
// state: descriptor pool, region-sort scratch and counters, each
// touched only by the owning region's goroutine — except returns, the
// locked list through which remote regions hand descriptors back to
// their origin pool so the targets capacity stays warm where the
// fan-out happens (one short lock per finished transmission). The pad
// keeps two shards' hot counters off one cache line.
type medShard struct {
	freeTx   []*transmission
	regCount []int32
	sortBuf  []arrivalTarget

	transmissions uint64
	deliveries    uint64
	phyErrors     uint64

	// Per-region copy of the medium's cache-efficiency counters
	// (Medium.Stats) — owned by the region goroutine, folded with the
	// aggregates above.
	memo memoCounters

	retMu   sync.Mutex
	returns []*transmission

	_ [64]byte
}

func (sh *medShard) newTransmission(from *Radio, f *frame.Frame, rate phy.Rate, end time.Duration) *transmission {
	if len(sh.freeTx) == 0 {
		// Swap in whatever remote regions have returned; the empty
		// freeTx backing becomes the next returns list.
		sh.retMu.Lock()
		sh.freeTx, sh.returns = sh.returns, sh.freeTx
		sh.retMu.Unlock()
	}
	var tx *transmission
	if n := len(sh.freeTx); n > 0 {
		tx = sh.freeTx[n-1]
		sh.freeTx = sh.freeTx[:n-1]
	} else {
		tx = new(transmission)
	}
	*tx = transmission{from: from, f: f, rate: rate, end: end,
		targets: tx.targets[:0], segs: tx.segs[:0], origin: sh}
	tx.lead.tx = tx
	tx.trail.tx = tx
	return tx
}

func (sh *medShard) release(tx *transmission) {
	sh.freeTx = append(sh.freeTx, tx)
}

// FieldReach returns the maximum relevance radius any of the given
// profiles can have on a field whose lowest noise floor is also drawn
// from them — the farthest a single transmission can influence
// anything, and hence the per-link distance bound of the parallel
// kernel's lookahead (phy.MinPropagationDelay). It returns +Inf when
// any profile is degenerate (non-positive path-loss exponent or
// unbounded reach), meaning no spatial index exists and the parallel
// kernel must not be used.
func FieldReach(profiles []*phy.Profile) float64 {
	minFloor := 0.0
	first := true
	for _, p := range profiles {
		if first || p.NoiseFloorDBm < minFloor {
			minFloor = p.NoiseFloorDBm
			first = false
		}
	}
	threshold := minFloor - IrrelevantMarginDB
	reach := 0.0
	for _, p := range profiles {
		d := p.ReachRange(threshold)
		if p.PathLoss.Exponent <= 0 || !(d > 0) {
			return math.Inf(1)
		}
		if d > reach {
			reach = d
		}
	}
	return reach
}

// SetPartition installs the parallel partition: every radio is assigned
// to its grid region and re-bound to that region's scheduler, and the
// medium's transmit path switches to the partitioned variant. Any grid
// shape is sound — the executor's lookahead already accounts for
// arbitrarily close regions (see internal/phy/lookahead.go) — but the
// radio model must admit a spatial index, or the relevance radius the
// lookahead leans on does not exist. It must be called after every
// radio is attached and before the first event runs.
func (m *Medium) SetPartition(ex *sim.Exec, grid phy.RegionGrid) {
	if ex.Regions() != grid.Regions() {
		panic(fmt.Sprintf("medium: exec has %d regions, grid %s has %d",
			ex.Regions(), grid, grid.Regions()))
	}
	m.ensureIndex()
	if m.index == nil {
		panic("medium: parallel partition requires the spatial index (degenerate radio model)")
	}
	m.ex = ex
	// Region assignments are baked into the fan-out memos (arrivalTarget
	// carries reg), so installing a partition is a geometry change.
	m.posEpoch++
	m.shards = make([]medShard, grid.Regions())
	for i := range m.shards {
		m.shards[i].regCount = make([]int32, grid.Regions())
	}
	for _, r := range m.radios {
		reg := grid.RegionOf(r.pos)
		r.reg = int32(reg)
		r.sched = ex.Sched(reg)
		r.shard = &m.shards[reg]
	}
}

// FoldCounters accumulates the per-region shard counters into the
// public aggregate fields. The node layer calls it after each parallel
// run, from the single post-join goroutine.
func (m *Medium) FoldCounters() {
	for i := range m.shards {
		sh := &m.shards[i]
		m.Transmissions += sh.transmissions
		m.Deliveries += sh.deliveries
		m.PHYErrors += sh.phyErrors
		sh.transmissions, sh.deliveries, sh.phyErrors = 0, 0, 0
		m.memo.add(&sh.memo)
		sh.memo = memoCounters{}
	}
}

// txSegment is the remote-region slice of one transmission's receiver
// set: targets[lo:hi] all live in one region other than the
// transmitter's. Only its lead action travels to that region as an exec
// message; the lead then schedules the trailing edge locally on the
// destination scheduler (sched, at trailAt) — one cross-region message
// per segment instead of two, halving the executor's boundary traffic
// and canonical-sort load. shard is the destination region's, for the
// final descriptor release.
type txSegment struct {
	tx      *transmission
	lo, hi  int32
	shard   *medShard
	sched   *sim.Scheduler
	trailAt time.Duration
	lead    segLeadAction
	trail   segTrailAction
}

// segLeadAction is the remote leading edge: it starts the segment's
// receivers and schedules the trailing edge locally. Implements
// sim.Action.
func (a *segLeadAction) Act() {
	s := a.s
	tx := s.tx
	for i := s.lo; i < s.hi; i++ {
		t := &tx.targets[i]
		t.rx.arrivalStart(tx, t.dbm, t.mw)
	}
	// trailAt is strictly after the lead (airtime is positive), so this
	// schedules into the region's own future — no cross-region timing
	// constraint applies, and a trailing edge past one Run's horizon
	// simply stays pending for the next Run, like any local event.
	s.sched.AtAction(s.trailAt, &s.trail)
}

// segLeadAction/segTrailAction carry their segment.
type segLeadAction struct{ s *txSegment }

// segTrailAction is the remote trailing edge: it finishes the segment's
// receivers and drops the segment's hold on the descriptor.
type segTrailAction struct{ s *txSegment }

func (a *segTrailAction) Act() {
	s := a.s
	tx := s.tx
	for i := s.lo; i < s.hi; i++ {
		tx.targets[i].rx.arrivalEnd(tx)
	}
	tx.finishOn(s.shard)
}

// finishOn drops one region's hold on the descriptor and, on the last,
// returns it to its origin region's pool — directly when the finishing
// region is the origin, through the origin's locked returns list
// otherwise. Returning home (rather than to whichever region finished
// last) keeps each descriptor's targets capacity warm at the
// transmitter that grows it.
func (tx *transmission) finishOn(sh *medShard) {
	if atomic.AddInt32(&tx.remaining, -1) > 0 {
		return
	}
	o := tx.origin
	switch {
	case o == nil:
		tx.from.m.releaseTransmission(tx)
	case o == sh:
		o.release(tx)
	default:
		o.retMu.Lock()
		o.returns = append(o.returns, tx)
		o.retMu.Unlock()
	}
}

// partTransmit is the partitioned counterpart of the sequential body of
// Radio.Transmit: the same fanOut builds the receiver set, which is then
// split into per-region segments. The transmitter's own region is
// dispatched on the local scheduler exactly like the sequential path;
// every other region's segment crosses the boundary as one exec message
// (the leading edge, timestamped one propagation bound out), which
// schedules the trailing edge locally on arrival.
func (m *Medium) partTransmit(r *Radio, f *frame.Frame, rate phy.Rate) time.Duration {
	if m.index == nil || m.indexDirty {
		panic("medium: partitioned transmit without a live spatial index")
	}
	sched := r.sched
	now := sched.Now()
	air := f.AirTime(rate)
	sh := r.shard
	sh.transmissions++
	r.FramesSent++

	r.unlock()
	r.state = stateTransmit
	r.updateCCA()

	tx := sh.newTransmission(r, f, rate, now+air)
	m.fanOut(tx, r, now)
	r.txEndPending = sched.AtAction(now+air, &r.txEnd)
	nt := len(tx.targets)
	if nt == 0 {
		sh.release(tx)
		return air
	}

	// Per-region segments, ordered (region, id). The targets were
	// appended in ascending radio id (the candidate list is sorted), so
	// a stable counting scatter by region yields exactly the (region,
	// id) order a comparison sort would — within one region the dispatch
	// order stays ascending radio id, and a one-region partition is
	// event-for-event identical to the sequential path.
	cnt := sh.regCount
	for i := range cnt {
		cnt[i] = 0
	}
	for i := range tx.targets {
		cnt[tx.targets[i].reg]++
	}
	if int(cnt[tx.targets[0].reg]) != nt { // more than one region: scatter
		buf := sh.sortBuf
		if cap(buf) < nt {
			buf = make([]arrivalTarget, nt)
		}
		buf = buf[:nt]
		pos := int32(0)
		for reg := range cnt {
			c := cnt[reg]
			cnt[reg] = pos
			pos += c
		}
		for i := range tx.targets {
			t := &tx.targets[i]
			buf[cnt[t.reg]] = *t
			cnt[t.reg]++
		}
		sh.sortBuf, tx.targets = tx.targets, buf
	}
	// Segments live inside the descriptor; the capacity is reserved up
	// front so the lead/trail pointers handed to Send stay put.
	if cap(tx.segs) < len(m.shards) {
		tx.segs = make([]txSegment, 0, len(m.shards))
	}
	regions := int32(0)
	for i := 0; i < nt; {
		reg := tx.targets[i].reg
		j := i + 1
		for j < nt && tx.targets[j].reg == reg {
			j++
		}
		regions++
		if reg == r.reg {
			tx.lo, tx.hi = int32(i), int32(j)
		} else {
			tx.segs = append(tx.segs, txSegment{tx: tx, lo: int32(i), hi: int32(j),
				shard: &m.shards[reg], sched: m.ex.Sched(int(reg)), trailAt: now + air + phy.PropDelay})
			seg := &tx.segs[len(tx.segs)-1]
			seg.lead.s = seg
			seg.trail.s = seg
			m.ex.Send(int(r.reg), int(reg), now+phy.PropDelay, &seg.lead)
		}
		i = j
	}
	atomic.StoreInt32(&tx.remaining, regions)
	if tx.hi > tx.lo {
		sched.AtAction(now+phy.PropDelay, &tx.lead)
		sched.AtAction(now+air+phy.PropDelay, &tx.trail)
	}
	return air
}
