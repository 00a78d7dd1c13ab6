// Package medium simulates the shared wireless channel: it propagates
// every transmission to every radio it can physically matter to,
// maintains per-receiver energy bookkeeping for physical carrier sense
// (CCA), decides which frames are decodable under cumulative co-channel
// interference (SINR), and models preamble locking with power capture.
//
// The medium is where the paper's three ranges become emergent behaviour
// rather than configured constants:
//
//   - TX_range: a frame decodes only if its received power clears the
//     per-rate sensitivity and SINR requirement (shorter for faster rates).
//   - PCS_range: CCA reports busy whenever total received energy exceeds
//     the energy-detect threshold, far below decode sensitivity.
//   - IF_range: a transmission too weak to decode still raises the
//     interference floor at distant receivers and can corrupt their
//     receptions.
//
// Because the ranges are emergent, the medium cannot use a configured
// "who hears whom" adjacency; instead it derives a hard relevance radius
// from the radio model itself — the distance beyond which no shadowing
// draw can lift a transmission's power to within IrrelevantMarginDB of
// any receiver's noise floor (phy.Profile.ReachRange) — and buckets the
// radios in a spatial grid (phy.CellIndex) with that radius as the cell
// size. Transmit then touches only the 3×3 cell neighborhood of the
// transmitter: per-transmission cost is proportional to the stations in
// earshot, not the stations in existence, which is what makes
// thousand-station fields tractable. A degenerate radio model with no
// finite radius has no index; every radio is then a candidate.
// Candidates are dispatched in ascending radio-id order — the insertion
// order of networks built by internal/node — so the index changes which
// radios are probed, never which receive or in what order.
//
// The per-transmission bookkeeping runs allocation-free in steady state:
// transmission descriptors are pooled and carry their receiver set
// inline, and the leading/trailing propagation edges are scheduled as
// two batch Actions per transmission (every receiver shares the same
// edge instants) rather than a closure or event pair per receiver — so
// the scheduler's pending set scales with transmissions in flight, not
// with receivers in earshot.
package medium

import (
	"fmt"
	"math"
	"math/bits"
	"slices"
	"time"

	"adhocsim/internal/frame"
	"adhocsim/internal/phy"
	"adhocsim/internal/sim"
)

// Handler receives PHY indications. It is implemented by the MAC.
// Callbacks are invoked synchronously from the event loop.
type Handler interface {
	// CCAChanged reports physical carrier sense edges: busy=true when the
	// medium becomes busy at this radio, false when it returns to idle.
	CCAChanged(busy bool)

	// RxEnd reports the end of a locked reception. ok=true delivers a
	// decoded frame; ok=false is a PHY reception error (the receiver
	// locked onto a preamble but could not decode the body — FCS error),
	// which must trigger EIFS at the MAC. f is non-nil in both cases.
	RxEnd(f *frame.Frame, rate phy.Rate, rssiDBm float64, ok bool)

	// TxDone reports that this radio's own transmission left the air.
	TxDone()
}

// IrrelevantMarginDB is how far under a receiver's noise floor an
// arrival must be before the medium stops simulating it at that
// receiver. At 20 dB each skipped arrival carries at most 1% of the
// noise power, so any CCA, preamble-lock, or SINR decision would need
// on the order of a hundred such arrivals overlapping at one receiver
// before the summed skipped energy rivals the noise floor itself. This
// is a deliberate approximation: it trades exactness in that
// pathological regime (dozens of concurrent transmitters all barely
// under the floor at the same radio) for O(radios-within-earshot)
// event scheduling instead of O(all radios) per transmission.
const IrrelevantMarginDB = 20

// Medium is the shared broadcast channel connecting a set of radios.
type Medium struct {
	sched *sim.Scheduler
	src   *sim.Source

	radios []*Radio

	// lins memoizes phy.Profile.Linearize per distinct set of threshold
	// values: a field of one shared profile computes its table once, not
	// once per radio.
	lins []linMemo

	// Struct-of-arrays mirrors of the per-radio state the transmit inner
	// loop reads per candidate, indexed by radio slot: id, position, and
	// the precomputed irrelevance power cut. Packing them densely keeps
	// the per-candidate work inside a few sequential cache lines instead
	// of chasing a map probe plus a Radio pointer per candidate; the
	// *Radio itself is touched only when the candidate survives the
	// power cut. The arrays are mirrors — Radio.pos stays authoritative
	// for the public API — kept in sync by AddRadio, SetPos and Reset.
	soaID    []uint32
	soaPos   []phy.Position
	soaIrrel []float64

	// index is the spatial neighbor grid over soaPos; nil on an empty
	// field, or when a degenerate radio model admits no finite relevance
	// radius (every radio is then a candidate). It is rebuilt whole on
	// the first Transmit after a radio is added, moved or re-placed.
	index      *phy.CellIndex
	indexDirty bool

	// posEpoch stamps everything the per-transmitter candidate memos
	// (Radio.cand) and the gain rows beside them are a function of. It
	// advances on every radio insertion, move, arena reset that moves a
	// radio, and partition install — the geometry — and on every seed
	// change and degradation install, the link power's other inputs.
	// While it stands still, a repeat transmitter's index walk and
	// dispatch-order sort collapse to a slice reuse and its gain row
	// stays valid; once it moves, every row is rebuilt empty.
	posEpoch uint64

	// gainSeed is the sim.Source root seed the link-gain rows were drawn
	// under; Reset advances posEpoch only when the seed it finds on the
	// source differs.
	gainSeed uint64

	// deg is the run's link-degradation timeline (nil when no fault
	// schedule is installed): an immutable piecewise-constant offset the
	// link-power composition adds after the shadowing terms. See
	// SetDegradation for the cache-invalidation contract.
	deg *DegTimeline

	// Pools: reused across transmissions so the steady-state event flow
	// allocates nothing.
	freeTx []*transmission

	// touched is the set of radio slots touched since they were last
	// taken (TakeTouched), one bit per slot: the stations whose state a
	// run changed and a Reset must rewind. Radio.Touch fills it.
	touched []uint64

	// Parallel partition (nil/empty in sequential mode): the region
	// executor, and one shard of pools + counters per region. See
	// partition.go.
	ex     *sim.Exec
	shards []medShard

	// Counters (aggregate, for experiments and tests).
	Transmissions uint64
	Deliveries    uint64
	PHYErrors     uint64

	// Out-of-band cache-efficiency counters (Stats). In sequential mode
	// one goroutine owns the medium; in parallel mode the hot paths
	// increment the per-region shard copies instead (Radio.memo picks
	// the right one) and FoldCounters folds them here at the post-join
	// point.
	memo memoCounters
}

// memoCounters are the cache-efficiency counters behind Stats. Plain
// fields, each owned by one goroutine: the medium's in sequential mode,
// a region shard's in parallel mode. They are observability only —
// nothing reads them on a simulation path.
type memoCounters struct {
	gainHits, gainMisses     uint64
	fanReplays, fanBuilds    uint64
	candReuses, candRebuilds uint64
	soaRescans               uint64
	fadeCuts                 uint64
}

// add folds o into c.
func (c *memoCounters) add(o *memoCounters) {
	c.gainHits += o.gainHits
	c.gainMisses += o.gainMisses
	c.fanReplays += o.fanReplays
	c.fanBuilds += o.fanBuilds
	c.candReuses += o.candReuses
	c.candRebuilds += o.candRebuilds
	c.soaRescans += o.soaRescans
	c.fadeCuts += o.fadeCuts
}

// Stats is a point-in-time copy of the medium's counters, the raw
// material of the obs layer's cache hit-rate metrics. In parallel mode
// it is exact only after FoldCounters (the node layer folds after every
// Run), and must be read from the post-join goroutine.
type Stats struct {
	Transmissions uint64
	Deliveries    uint64
	PHYErrors     uint64
	GainHits      uint64 // lookups serving the path-loss base from cache
	GainMisses    uint64 // lookups that recomputed the path-loss base
	FanReplays    uint64 // transmissions replayed from the fan-out memo
	FanBuilds     uint64 // transmissions that walked candidates and rebuilt it
	CandReuses    uint64 // candidate-memo reuses (index walk + sort skipped)
	CandRebuilds  uint64 // candidate-memo rebuilds after a geometry change
	SoARescans    uint64 // arrival-list energy-fold rebuilds (trailing edges)
	FadeCuts      uint64 // link evaluations the fade cut rejected; a re-rejection within one epoch counts again
	GainEntries   uint64 // link-gain entries held: the sum of all gain-row lengths
}

// Stats returns the medium's observability counters.
func (m *Medium) Stats() Stats {
	entries := 0
	for _, r := range m.radios {
		entries += len(r.gains)
	}
	return Stats{
		Transmissions: m.Transmissions,
		Deliveries:    m.Deliveries,
		PHYErrors:     m.PHYErrors,
		GainHits:      m.memo.gainHits,
		GainMisses:    m.memo.gainMisses,
		FanReplays:    m.memo.fanReplays,
		FanBuilds:     m.memo.fanBuilds,
		CandReuses:    m.memo.candReuses,
		CandRebuilds:  m.memo.candRebuilds,
		SoARescans:    m.memo.soaRescans,
		FadeCuts:      m.memo.fadeCuts,
		GainEntries:   uint64(entries),
	}
}

// New returns an empty medium driven by sched, drawing fading values
// from src.
func New(sched *sim.Scheduler, src *sim.Source) *Medium {
	return &Medium{
		sched:      sched,
		src:        src,
		gainSeed:   src.Seed(),
		indexDirty: true,
	}
}

// Now returns the current simulated time.
func (m *Medium) Now() time.Duration { return m.sched.Now() }

// Reset returns the medium to its just-built state so a replication
// sweep can re-seed a constructed network instead of rebuilding it:
// aggregate counters clear, and radio slot i is re-placed at
// positions[i]. Everything derived from the run seed or the geometry is
// invalidated exactly when its input actually changes, so a same-seed
// same-placement replication — the benchmark loop, a variance-reduction
// sweep — re-runs on every cached structure intact:
//
//   - posEpoch advances, and with it every candidate memo, gain row and
//     fan-out memo goes stale, if the owning sim.Source's root seed
//     changed since the rows were drawn — the node layer reseeds the
//     source before calling here, and the shadowing draws are pure
//     functions of (seed, link) — or if any radio lands on a new
//     position, which also dirties the spatial index.
//   - Positions are compared on the dense soaPos mirror, so a radio
//     that stays put is never dereferenced, and a move alone does not
//     mark its station touched.
//
// The arrival/transmission pools and the gain rows' capacity are
// deliberately retained — reusing them is the point of the arena.
// Per-radio receive state is the caller's next step: Radio.Reset on
// every slot TakeTouched hands out.
func (m *Medium) Reset(positions []phy.Position) {
	if len(positions) != len(m.radios) {
		panic(fmt.Sprintf("medium: Reset with %d positions for %d radios", len(positions), len(m.radios)))
	}
	m.Transmissions, m.Deliveries, m.PHYErrors = 0, 0, 0
	m.memo = memoCounters{}
	if seed := m.src.Seed(); seed != m.gainSeed {
		m.gainSeed = seed
		m.posEpoch++
	}
	for slot, p := range positions {
		if p != m.soaPos[slot] {
			m.radios[slot].pos = p
			m.soaPos[slot] = p
			m.posEpoch++
			m.indexDirty = true
		}
	}
}

// TakeTouched calls fn for every radio slot touched (Radio.Touch) since
// the last TakeTouched, in ascending order, and empties the set as it
// goes: a slot touched again while fn runs — a Reset that re-arms a
// beacon — is left for the next TakeTouched. Networks built by
// internal/node attach one radio per station, in station order, so a
// slot is a station index.
func (m *Medium) TakeTouched(fn func(slot int)) {
	for i, w := range m.touched {
		if w == 0 {
			continue
		}
		m.touched[i] = 0
		for ; w != 0; w &= w - 1 {
			fn(i<<6 | bits.TrailingZeros64(w))
		}
	}
}

// Link-gain cache -------------------------------------------------------

// linkGain validity bits.
const (
	gainBase   uint8 = 1 << iota // baseDBm computed for this row
	gainStatic                   // staticDB drawn for this row
	gainFade                     // fadeDB matches fadeEpoch
	gainDeg                      // degDB matches both endpoints' degradation epochs
	gainCut                      // uMax matches baseDBm and staticDB
)

// linkGain caches the deterministic pieces of one directed link's
// received power, each stored exactly as first computed so cached and
// direct results are bit-identical. An entry lives in its transmitter's
// gain row, which is valid exactly while the candidate list beside it
// is: rebuildCandidates hands back a zeroed row whenever posEpoch has
// moved, so the entry needs no stamp for the geometry or the seed.
//
//   - baseDBm: transmit power minus log-distance path loss — a pure
//     function of the two positions. Static stations, the common case,
//     compute the math.Log10 once per row.
//   - staticDB: the per-run static shadowing draw — a pure function of
//     (seed, link).
//   - fadeDB: the time-varying shadowing draw — a pure function of
//     (seed, link, coherence epoch), valid until the epoch rolls over.
//   - uMax: the link's fade-cut bound, phy.Fading.EpochCutBound of how
//     far baseDBm + staticDB lies under the receiver's irrelevance cut
//     — a pure function of the two cached terms and the receiver's
//     fixed cut. It lets propagate reject a link whose epoch fade
//     cannot lift it over the cut from the fade's uniform deviates
//     alone (see DESIGN.md, "Fade draws the cut throws away"). It sits
//     in the padding after have, so the entry is 64 bytes, one cache
//     line (TestLinkGainSize).
//
// The linear form of the composed power is not cached here: the
// fan-out memo (Radio.fan) already holds both forms for every target.
type linkGain struct {
	fadeEpoch      uint64  // coherence epoch of the cached dynamic fade
	txDegE, rxDegE uint64  // degradation epochs of the cached deg offset
	have           uint8   // gain* validity bits
	uMax           float32 // fade-cut bound, valid under gainCut
	baseDBm        float64
	staticDB       float64
	fadeDB         float64
	degDB          float64
}

// linkPower returns the instantaneous received power in dBm for the
// directed link from the given radio to the receiver in slot rxSlot at
// time now, served from g, the link's entry in the transmitter's gain
// row. fc is from's fade chain (phy.NewFadeChain), folded once per
// fan-out rebuild. The receiver side is read entirely from the
// slot-indexed SoA arrays. The composition — path-loss base plus static shadow plus
// epoch fade, summed in that order, then the fault engine's
// degradation offset when a timeline is installed — mirrors
// phy.Profile.RxPowerDBm exactly, so a cache hit is bit-identical to
// the direct computation, MeanRxPowerDBm(d) + (ShadowDB + linkOffset)
// under degradation.
//
// linkPower may instead report ok=false: the power is certainly below
// the receiver's irrelevance cut, decided from the epoch fade's uniform
// deviates before the transcendental draw. The entry then caches no
// fade — its fade stays stale, so any later lookup recomputes it in
// full. The cut ignores a degradation timeline's offset, which is
// sound because the offset is never positive (DegTimeline panics on
// one, the invariant the spatial index rests on too): it can only push
// the composed power further under the cut.
func (m *Medium) linkPower(from *Radio, fc phy.FadeChain, rxSlot int32, g *linkGain, now time.Duration) (p float64, ok bool) {
	rxID := uint64(m.soaID[rxSlot])
	// Hit/miss classification: the cache exists to skip the
	// transcendental path-loss base (PR 4), so a lookup is a miss only
	// when that base recomputes. Fade/degradation epoch refreshes are
	// cheap keyed lookups that by construction accompany *every* fan-out
	// rebuild (the memo is keyed on those same epochs), so charging them
	// as misses would pin the hit counter at zero forever.
	//
	// linkPower only ever runs on the transmitter's owning goroutine (its
	// region's, in parallel mode — the same discipline that makes the
	// entry mutations here safe), so the plain counters need no atomics.
	c := from.memo()
	if g.have&gainBase == 0 {
		g.baseDBm = from.profile.MeanRxPowerDBm(phy.Dist(from.pos, m.soaPos[rxSlot]))
		g.have |= gainBase
		c.gainMisses++
	} else {
		c.gainHits++
	}
	fad := &from.profile.Fading
	var shadow float64
	if fad.StaticSigmaDB != 0 {
		if g.have&gainStatic == 0 {
			g.staticDB = fad.StaticShadowDB(m.src, uint64(from.id), rxID)
			g.have |= gainStatic
		}
		shadow = g.staticDB
	}
	if fad.SigmaDB != 0 {
		epoch := fad.FadeEpoch(now)
		if g.have&gainFade == 0 || g.fadeEpoch != epoch {
			if g.have&gainCut == 0 {
				g.uMax = fad.EpochCutBound(m.soaIrrel[rxSlot] - (g.baseDBm + shadow))
				g.have |= gainCut
			}
			fade, above := fad.EpochShadowAbove(fc, rxID, epoch, g.uMax)
			if !above {
				c.fadeCuts++
				return 0, false
			}
			g.fadeDB = fade
			g.fadeEpoch = epoch
			g.have |= gainFade
		}
		shadow += g.fadeDB
	}
	if dg := m.deg; dg != nil {
		te, re := dg.epoch(from.slot, now), dg.epoch(rxSlot, now)
		if g.have&gainDeg == 0 || g.txDegE != te || g.rxDegE != re {
			g.degDB = dg.linkOffset(from.slot, rxSlot, now)
			g.txDegE, g.rxDegE = te, re
			g.have |= gainDeg
		}
		shadow += g.degDB
	}
	return g.baseDBm + shadow, true
}

// ensureIndex rebuilds the neighbor grid if a radio was added, moved or
// re-placed since the last transmission. The cell size is the maximum
// relevance radius over all transmitter profiles against the lowest
// noise floor on the field (or a power-of-two multiple of it on a field
// too sparse for that many cells), so any transmission's candidate set
// lies within the 3×3 cell block around the transmitter.
func (m *Medium) ensureIndex() {
	if !m.indexDirty {
		return
	}
	m.indexDirty = false
	m.index = nil
	if len(m.radios) == 0 {
		return
	}
	minFloor := math.Inf(1)
	for _, r := range m.radios {
		if f := r.profile.NoiseFloorDBm; f < minFloor {
			minFloor = f
		}
	}
	threshold := minFloor - IrrelevantMarginDB
	maxReach, d := 0.0, 0.0
	var last *phy.Profile
	for _, r := range m.radios {
		// Radios share profile pointers in long runs (every station of
		// the city presets has the same one), so the radius is computed
		// once per run of equal pointers.
		if r.profile != last {
			last = r.profile
			// A non-positive path-loss exponent means received power
			// does not fall with distance, so no relevance radius exists
			// at all; a non-finite ReachRange means the budget never
			// runs out. Either way the index cannot soundly prune
			// anything — keep the exhaustive path.
			d = r.profile.ReachRange(threshold)
			if r.profile.PathLoss.Exponent <= 0 || !(d > 0) || math.IsInf(d, 1) {
				return
			}
		}
		r.reach = d
		if d > maxReach {
			maxReach = d
		}
	}
	// The index is built over the slot-indexed positions, so it holds
	// slots, not ids: a query result then drives the SoA arrays directly,
	// with no id→radio map probe on the hot path.
	m.index = phy.NewCellIndex(m.soaPos, maxReach)
}

// radioState tracks what a radio's receive chain is doing.
type radioState uint8

const (
	stateListen radioState = iota
	stateTransmit
)

// Radio is one station's PHY attachment to the medium.
type Radio struct {
	id      uint32
	m       *Medium
	pos     phy.Position
	profile *phy.Profile
	handler Handler

	state radioState

	// touched is set by Touch at the first state change since the last
	// Reset; see Touch.
	touched bool

	// reach is this radio's transmit relevance radius in meters, set by
	// Medium.ensureIndex: beyond it no receiver on the field can see
	// this radio's frames above the irrelevance threshold.
	reach float64

	// lin caches the profile's dB-scale thresholds in linear mW,
	// snapshotted at attach time (profiles are configured before attach)
	// so the hot CCA/verdict paths never re-run the dBm→mW exponential
	// on constants. irrelevantDBm is the precomputed per-receiver power
	// cut, profile.NoiseFloorDBm − IrrelevantMarginDB.
	lin           phy.Linear
	irrelevantDBm float64

	// slot is this radio's dense index in Medium.radios and in the
	// medium's slot-indexed SoA arrays (ids, positions, irrelevance
	// cuts).
	slot int32

	// Parallel partition bindings (zero in sequential mode): the radio's
	// region, that region's scheduler — where every event this radio
	// originates must land — and its shard. Set by Medium.SetPartition;
	// a non-nil sched routes Transmit to the partitioned path.
	reg   int32
	sched *sim.Scheduler
	shard *medShard

	// txEnd is the pooled end-of-own-transmission action, scheduled once
	// per Transmit without allocating.
	txEnd txEndAction

	// arrivals lists every in-flight transmission overlapping this radio
	// with its received power (fixed at arrival time, one fading epoch
	// per frame), in arrival order. A slice rather than a map: the
	// handful of entries makes linear scans faster than hashing, and —
	// decisive for the determinism contract — the interference/CCA power
	// sums accumulate in a fixed order, where Go's randomized map
	// iteration would let three-summand float sums differ between
	// identically-seeded runs. The linear power form is cached at the
	// leading edge so the hot sums never re-run the dBm→mW exponential.
	arrivals []arrivalEntry

	// cand memoizes this radio's sorted candidate slot list from the
	// spatial index — the receivers within its relevance radius, in
	// dispatch order. Valid while candEpoch matches the medium's
	// posEpoch; any geometry change invalidates every memo at once. In
	// partitioned mode the memo is touched only by the region goroutine
	// servicing this radio's transmissions, so it stays race-free.
	//
	// gains is this radio's link-gain row, parallel to cand: gains[i]
	// caches the link to receiver slot cand[i], and the row is valid
	// exactly while cand is. A radio that never transmits holds neither.
	cand      []uint32
	gains     []linkGain
	candEpoch uint64

	// fan memoizes this radio's full propagation fan-out: the candidates
	// that survive the irrelevance cut, with both power forms and the
	// receiver regions — everything propagate would append for a
	// transmission starting now. Each component is a pure function of the
	// geometry (posEpoch) and the transmitter profile's fade epoch (all
	// of one transmitter's links fade on its own profile's clock), so
	// while both stamps stand still, replaying the memo is bit-identical
	// to re-running the per-candidate power probes. Race-free in
	// partitioned mode for the same reason the candidate memo is.
	fan      []arrivalTarget
	fanEpoch uint64 // posEpoch the fan was computed at (0 = never)
	fanFade  uint64 // transmitter-profile fade epoch of the memo
	fanDeg   uint64 // degradation global epoch of the memo (0 when no timeline)

	// down marks a crashed station's radio: energy bookkeeping continues
	// (the radio stays in the spatial index and its arrivals stay summed,
	// so CCA state is consistent the instant it restarts) but the receive
	// chain never locks — every arrival is missed — and the MAC layer
	// guarantees no transmission originates here. Set by PowerDown,
	// cleared by PowerUp and Reset.
	down bool

	// locked is the transmission the receive chain is synchronized to.
	locked       *transmission
	lockedPower  float64 // dBm
	maxInterfMW  float64 // worst cumulative interference during the lock
	ccaBusy      bool
	txEndPending sim.Event

	// Maintained energy folds over the arrivals list, updated at arrival
	// edges instead of re-summed per decision: ccaMW is the total in-air
	// energy CCA compares against its threshold; floorMW is the same
	// fold seeded with the noise floor, serving the preamble
	// interference-floor test; interfMW is the fold excluding the locked
	// transmission (the whole fold while nothing is locked). Each always
	// equals a fresh left-to-right fold over the arrivals
	// (recomputeSums): appends extend such a fold exactly, and removals
	// call recomputeSums because a mid-list removal changes the fold's
	// association.
	ccaMW    float64
	floorMW  float64
	interfMW float64

	// Counters.
	FramesSent      uint64
	FramesDecoded   uint64
	FramesErrored   uint64 // locked but failed decode (→ EIFS at MAC)
	FramesMissed    uint64 // arrived while busy or below preamble detect
	CaptureSwitches uint64
}

// transmission is one frame in flight. Descriptors are pooled and carry
// their receiver set inline: every receiver shares the same leading and
// trailing edge instants (propagation delay is a constant bound), so
// the medium schedules two batch events per transmission — lead and
// trail — instead of two events per receiver. Receivers are dispatched
// in target order, which is exactly the order the per-receiver events
// used to fire in (consecutive sequence numbers at one instant), so
// the batch is event-order-identical to the pre-batch kernel while
// keeping the pending-event heap proportional to transmissions in
// flight, not receivers in earshot.
type transmission struct {
	from    *Radio
	f       *frame.Frame
	rate    phy.Rate
	end     time.Duration
	targets []arrivalTarget
	lead    txLeadAction
	trail   txTrailAction

	// lo:hi is the slice of targets the local lead/trail pair serves —
	// the whole set in sequential mode, the transmitter's own region's
	// segment in partitioned mode (remote segments ride tx.segs).
	// remaining counts the regions still holding the descriptor; the
	// last finishOn returns it to the origin shard's pool (accessed
	// atomically only in partitioned mode — see partition.go).
	lo, hi    int32
	remaining int32

	// Partitioned-mode state: the remote-region segments (embedded so a
	// recirculating descriptor reuses their storage) and the shard whose
	// pool the descriptor recirculates through — the transmitter's, so
	// the targets capacity warms up where the fan-out happens.
	segs   []txSegment
	origin *medShard
}

// arrivalTarget is one receiver of an in-flight transmission with its
// received power in both scales, and the receiver's region (zero in
// sequential mode) so the partitioned path can split the set.
type arrivalTarget struct {
	rx  *Radio
	reg int32
	dbm float64
	mw  float64
}

// txLeadAction fires the leading edge of a transmission at every
// receiver in earshot, in target (ascending radio id) order. It is
// embedded in the pooled transmission and scheduled by pointer, so the
// interface conversion never allocates.
type txLeadAction struct{ tx *transmission }

// Act implements sim.Action.
func (a *txLeadAction) Act() {
	tx := a.tx
	for i := tx.lo; i < tx.hi; i++ {
		t := &tx.targets[i]
		t.rx.arrivalStart(tx, t.dbm, t.mw)
	}
}

// txTrailAction fires the trailing edge at every local receiver, then
// drops the local region's hold on the descriptor (sequential mode
// holds exactly one, so this is the release).
type txTrailAction struct{ tx *transmission }

// Act implements sim.Action.
func (a *txTrailAction) Act() {
	tx := a.tx
	for i := tx.lo; i < tx.hi; i++ {
		tx.targets[i].rx.arrivalEnd(tx)
	}
	tx.finishOn(tx.from.shard)
}

// arrivalEntry is one in-flight transmission's received power at one
// radio, in both scales: dBm for lock/sensitivity decisions, linear mW
// for energy summation.
type arrivalEntry struct {
	tx  *transmission
	dbm float64
	mw  float64
}

// txEndAction returns a transmitting radio to listen state when its own
// frame leaves the air.
type txEndAction struct{ r *Radio }

// Act implements sim.Action.
func (t *txEndAction) Act() {
	r := t.r
	r.state = stateListen
	r.txEndPending = sim.Event{}
	r.updateCCA()
	r.handler.TxDone()
}

func (m *Medium) newTransmission(from *Radio, f *frame.Frame, rate phy.Rate, end time.Duration) *transmission {
	var tx *transmission
	if n := len(m.freeTx); n > 0 {
		tx = m.freeTx[n-1]
		m.freeTx = m.freeTx[:n-1]
	} else {
		tx = new(transmission)
	}
	*tx = transmission{from: from, f: f, rate: rate, end: end,
		targets: tx.targets[:0], segs: tx.segs[:0]}
	tx.lead.tx = tx
	tx.trail.tx = tx
	return tx
}

func (m *Medium) releaseTransmission(tx *transmission) {
	*tx = transmission{targets: tx.targets[:0], segs: tx.segs[:0]}
	m.freeTx = append(m.freeTx, tx)
}

// AddRadio attaches a radio at pos with the given profile and handler.
// The id keys the fading process and sets the dispatch order; each id
// must be above the last one attached (node-built networks number
// stations from 1), which makes ids unique and slot order id order.
func (m *Medium) AddRadio(id uint32, pos phy.Position, profile *phy.Profile, h Handler) *Radio {
	if n := len(m.soaID); n > 0 && id <= m.soaID[n-1] {
		panic(fmt.Sprintf("medium: radio id %d does not ascend (last %d)", id, m.soaID[n-1]))
	}
	if m.shards != nil {
		panic("medium: AddRadio after SetPartition")
	}
	r := &Radio{
		id:            id,
		m:             m,
		pos:           pos,
		profile:       profile,
		handler:       h,
		lin:           m.linearize(profile),
		irrelevantDBm: profile.NoiseFloorDBm - IrrelevantMarginDB,
		slot:          int32(len(m.radios)),
	}
	r.floorMW = r.lin.NoiseFloorMW
	r.txEnd.r = r
	if r.slot&63 == 0 {
		m.touched = append(m.touched, 0)
	}
	m.radios = append(m.radios, r)
	m.soaID = append(m.soaID, id)
	m.soaPos = append(m.soaPos, pos)
	m.soaIrrel = append(m.soaIrrel, r.irrelevantDBm)
	m.indexDirty = true
	m.posEpoch++
	return r
}

// linMemo is one memoized phy.Linear and the thresholds it was computed
// from.
type linMemo struct {
	key linKey
	lin phy.Linear
}

// linKey is every profile value phy.Profile.Linearize reads, as bits:
// equal keys convert to equal tables, whichever profile carries them.
type linKey struct {
	noise, cca uint64
	sens       [4]uint64
}

// linearize returns profile.Linearize(), computed once per distinct set
// of threshold values. The memo is keyed on the values, not the
// pointer, so a profile edited between two attaches gets a fresh table.
func (m *Medium) linearize(profile *phy.Profile) phy.Linear {
	k := linKey{
		noise: math.Float64bits(profile.NoiseFloorDBm),
		cca:   math.Float64bits(profile.CCAThresholdDBm),
	}
	for i, s := range profile.SensitivityDBm {
		k.sens[i] = math.Float64bits(s)
	}
	for _, e := range m.lins {
		if e.key == k {
			return e.lin
		}
	}
	lin := profile.Linearize()
	m.lins = append(m.lins, linMemo{k, lin})
	return lin
}

// ID returns the radio identifier.
func (r *Radio) ID() uint32 { return r.id }

// Pos returns the radio's current position.
func (r *Radio) Pos() phy.Position { return r.pos }

// Touch records that the radio's station changed state since the last
// Reset, so the next node-level Reset must rewind it: the medium adds
// the slot to its touched set (TakeTouched). The radio touches itself
// at every arrival, transmission, power-down and move (a power-up only
// undoes a power-down of the same run); the layers above touch it
// through their own Touch at every write that does not follow from one
// of those (a queued MSDU, a port binding, an armed beacon). A Reset
// clears the mark.
//
// In parallel mode (after SetPartition) the set is shared by every
// region goroutine, and the network is never Reset, so only the
// radio's own flag is set, by the goroutine that owns the radio.
func (r *Radio) Touch() {
	if !r.touched {
		r.touch()
	}
}

// touch is Touch's first-time path, out of line so that Touch inlines.
func (r *Radio) touch() {
	r.touched = true
	if r.shard == nil {
		r.m.touched[r.slot>>6] |= 1 << (r.slot & 63)
	}
}

// SetPos moves the radio (mobility support). Takes effect for
// transmissions that begin after the move, the first of which rebuilds
// the spatial index.
func (r *Radio) SetPos(p phy.Position) {
	r.Touch()
	m := r.m
	r.pos = p
	m.soaPos[r.slot] = p
	m.posEpoch++
	m.indexDirty = true
}

// Reset clears the radio's per-run receive state, counters and touch
// mark, keeping the attachment (profile, handler, precomputed linear
// tables), the position and the memos intact. It is the per-radio half
// of the arena-reuse path: call Medium.Reset first (which re-places the
// radios and stales every gain row whose inputs changed), then Reset
// the radios TakeTouched hands out. A radio never touched since its last
// Reset holds exactly this state already.
func (r *Radio) Reset() {
	r.touched = false
	r.state = stateListen
	clear(r.arrivals)
	r.arrivals = r.arrivals[:0]
	r.locked = nil
	r.lockedPower = 0
	r.maxInterfMW = 0
	r.ccaMW, r.floorMW, r.interfMW = 0, r.lin.NoiseFloorMW, 0
	r.ccaBusy = false
	r.down = false
	r.txEndPending = sim.Event{}
	r.FramesSent, r.FramesDecoded, r.FramesErrored = 0, 0, 0
	r.FramesMissed, r.CaptureSwitches = 0, 0
}

// Profile returns the radio's PHY profile.
func (r *Radio) Profile() *phy.Profile { return r.profile }

// CCABusy reports the current physical-carrier-sense state.
func (r *Radio) CCABusy() bool { return r.ccaBusy }

// Transmitting reports whether the radio is currently transmitting.
func (r *Radio) Transmitting() bool { return r.state == stateTransmit }

// Down reports whether the radio is powered down (crashed station).
func (r *Radio) Down() bool { return r.down }

// PowerDown detaches the radio's receive chain: any lock is abandoned
// and no arrival can lock until PowerUp. The radio deliberately stays
// in the spatial index and its in-air energy bookkeeping keeps running
// — a crash must not mutate the field geometry mid-run (the parallel
// kernel's partition and every candidate/fan memo depend on it), and
// carrying the sums through the downtime makes CCA exact the instant
// the station restarts. A transmission already in the air when the
// crash fires plays out naturally (its trailing edges are already
// scheduled at every receiver); the MAC layer discards its TxDone.
func (r *Radio) PowerDown() {
	r.Touch()
	r.down = true
	r.unlock()
	r.updateCCA()
}

// PowerUp re-enables the receive chain after a PowerDown. CCA state is
// already exact — the energy folds ran through the downtime — so the
// restarted MAC can read CCABusy immediately.
func (r *Radio) PowerUp() {
	r.down = false
	r.updateCCA()
}

// Transmit puts f on the air at the given rate and returns its airtime.
// The radio's receive chain is disabled for the duration (half-duplex);
// any reception in progress is abandoned. TxDone fires when the frame
// leaves the air.
func (r *Radio) Transmit(f *frame.Frame, rate phy.Rate) time.Duration {
	if r.state == stateTransmit {
		panic("medium: Transmit while already transmitting")
	}
	if !rate.Valid() {
		panic(fmt.Sprintf("medium: invalid rate %d", rate))
	}
	r.Touch()
	m := r.m
	if r.sched != nil {
		return m.partTransmit(r, f, rate)
	}
	now := m.sched.Now()
	air := f.AirTime(rate)
	m.Transmissions++
	r.FramesSent++

	// Half-duplex: abandon any lock; the abandoned frame still occupies
	// the arrivals set (it remains energy in the air).
	r.unlock()
	r.state = stateTransmit
	r.updateCCA()

	tx := m.newTransmission(r, f, rate, now+air)
	m.ensureIndex()
	m.fanOut(tx, r, now)
	r.txEndPending = m.sched.AtAction(now+air, &r.txEnd)
	if len(tx.targets) == 0 {
		// Nobody in earshot: the descriptor never entered any receiver's
		// bookkeeping.
		m.releaseTransmission(tx)
	} else {
		tx.lo, tx.hi = 0, int32(len(tx.targets))
		tx.remaining = 1
		m.sched.AtAction(now+phy.PropDelay, &tx.lead)
		m.sched.AtAction(now+air+phy.PropDelay, &tx.trail)
	}
	return air
}

// memo returns the cache counters this radio's work charges: its region
// shard's in parallel mode, the medium's otherwise.
func (r *Radio) memo() *memoCounters {
	if sh := r.shard; sh != nil {
		return &sh.memo
	}
	return &r.m.memo
}

// fanOut appends r's receiver set for a transmission starting at now to
// tx.targets, through r's candidate memo, its gain row and its fan-out
// memo. The candidate list is a pure function of the geometry, so while
// posEpoch stands still the memo IS the fresh query. The fan-out memo
// goes one step further and keeps the propagated targets themselves,
// valid while the geometry, r's fade epoch and the degradation epoch
// all stand still. A rebuild folds r's fade chain once for all its
// candidates. Only r's own (region) goroutine transmits from r, so
// none of the three races.
func (m *Medium) fanOut(tx *transmission, r *Radio, now time.Duration) {
	c := r.memo()
	if r.candEpoch != m.posEpoch {
		m.rebuildCandidates(r)
		c.candRebuilds++
	} else {
		c.candReuses++
	}
	var fade uint64
	if pf := &r.profile.Fading; pf.SigmaDB != 0 {
		fade = pf.FadeEpoch(now)
	}
	var degE uint64
	if m.deg != nil {
		degE = m.deg.globalEpoch(now)
	}
	if r.fanEpoch == m.posEpoch && r.fanFade == fade && r.fanDeg == degE {
		tx.targets = append(tx.targets, r.fan...)
		c.fanReplays++
		return
	}
	fc := phy.NewFadeChain(m.src, uint64(r.id))
	for i, slot := range r.cand {
		m.propagate(tx, r, fc, int32(slot), &r.gains[i], now)
	}
	r.fan = append(r.fan[:0], tx.targets...)
	r.fanEpoch, r.fanFade, r.fanDeg = m.posEpoch, fade, degE
	c.fanBuilds++
}

// rebuildCandidates recomputes r's candidate list for the current
// posEpoch — the spatial index's cells in deterministic grid order, or
// every slot when there is no index — in place, puts it in dispatch
// order, and hands back a zeroed gain row of the same length, reusing
// both slices' capacity. Every entry of the new row starts empty: a
// move anywhere on the field recomputes all of r's links, which costs a
// field with a few moving stations more than carrying the unaffected
// entries over would, and costs fixed fields nothing (DESIGN.md,
// "Bit-identical caching").
func (m *Medium) rebuildCandidates(r *Radio) {
	cand := r.cand[:0]
	if m.index != nil {
		cand = m.index.AppendWithin(cand, r.pos, r.reach)
	} else {
		for slot := range m.radios {
			cand = append(cand, uint32(slot))
		}
	}
	// Dispatch order is ascending radio id, which is slot order.
	slices.Sort(cand)
	r.cand = cand
	r.gains = slices.Grow(r.gains[:0], len(cand))[:len(cand)]
	clear(r.gains)
	r.candEpoch = m.posEpoch
}

// propagate adds the radio in slot rxSlot to tx's receiver set, unless
// the frame arrives so far under that receiver's noise floor that it
// cannot shift any CCA, lock, or SINR decision there. The candidate
// test runs entirely on the slot-indexed SoA arrays and g, the link's
// gain entry — for link/epoch combinations already seen since posEpoch
// last moved the transcendental PHY arithmetic is skipped entirely, and
// a link whose new epoch fade provably cannot lift it over the cut is
// rejected before its fade is drawn (linkPower's cut), which is the
// fate of most candidates on a sparse field. The *Radio is only dereferenced for
// candidates that survive the power cut. The edges themselves are
// scheduled once per transmission by Transmit, not once per receiver.
func (m *Medium) propagate(tx *transmission, from *Radio, fc phy.FadeChain, rxSlot int32, g *linkGain, now time.Duration) {
	if rxSlot == from.slot {
		return
	}
	p, ok := m.linkPower(from, fc, rxSlot, g, now)
	if !ok || p < m.soaIrrel[rxSlot] {
		return
	}
	rx := m.radios[rxSlot]
	tx.targets = append(tx.targets, arrivalTarget{rx: rx, reg: rx.reg, dbm: p, mw: phy.DBmToMilliwatt(p)})
}

// arrivalStart handles the leading edge of a transmission reaching this
// radio. powerMW is the caller-supplied linear form of powerDBm.
//
// The three energy folds are maintained at this edge rather than
// re-summed per decision, and stay bit-identical to a fresh fold
// (recomputeSums) by a fold-prefix argument: appending to a
// left-to-right float fold extends it exactly (the prefix's association
// is unchanged), and the two "all but the new arrival" quantities the
// decisions need — the preamble's interference floor and a fresh lock's
// interference record — are precisely the folds' values before this
// append.
func (r *Radio) arrivalStart(tx *transmission, powerDBm, powerMW float64) {
	r.Touch()
	preCCA, preFloor := r.ccaMW, r.floorMW
	r.arrivals = append(r.arrivals, arrivalEntry{tx: tx, dbm: powerDBm, mw: powerMW})
	r.ccaMW += powerMW
	r.floorMW += powerMW
	r.interfMW += powerMW // a lock below re-seeds it from preCCA
	prof := r.profile

	switch {
	case r.down:
		// Crashed station: the receive chain is off. The arrival still
		// entered the energy bookkeeping above, so CCA state is exact at
		// restart, but nothing can lock.
		r.FramesMissed++
	case r.state == stateTransmit:
		// Half-duplex: cannot hear anything while transmitting.
		r.FramesMissed++
	case powerDBm < prof.PLCPDetectDBm:
		// Too weak to synchronize: pure energy/interference.
		r.FramesMissed++
	case r.locked == nil:
		// Preamble must clear the interference floor — noise plus every
		// arrival before this one, which is exactly preFloor.
		if powerDBm >= r.floorDBm(preFloor)+prof.SINRRequiredDB[phy.Rate1.Index()] {
			r.lock(tx, powerDBm, preCCA)
		} else {
			r.FramesMissed++
		}
	case powerDBm >= r.lockedPower+prof.CaptureMarginDB:
		// Message-in-message capture: a much stronger newcomer steals
		// the receiver; the previous frame is lost.
		r.CaptureSwitches++
		r.FramesMissed++ // the abandoned frame
		r.lock(tx, powerDBm, preCCA)
	default:
		r.FramesMissed++
	}

	if r.locked != nil && r.locked != tx && r.interfMW > r.maxInterfMW {
		// Newcomer interferes with the locked frame; the decode verdict
		// uses the worst cumulative interference seen during the lock.
		r.maxInterfMW = r.interfMW
	}
	r.updateCCA()
}

// lock synchronizes the receive chain to tx, which is always the
// arrival just appended. interfMW is the pre-append total-energy fold:
// with tx last in the list, that is exactly the fold of every arrival
// except the locked one — including a previously locked frame a capture
// just abandoned, at its original fold position.
func (r *Radio) lock(tx *transmission, powerDBm, interfMW float64) {
	r.locked = tx
	r.lockedPower = powerDBm
	r.maxInterfMW = 0
	r.interfMW = interfMW
	if interfMW > 0 {
		r.maxInterfMW = interfMW
	}
}

// unlock abandons any reception in progress (half-duplex transmit or
// power-down). The abandoned frame stays in the arrivals — it is still
// energy in the air — so with nothing locked the interference fold
// widens back to the whole in-air fold.
func (r *Radio) unlock() {
	r.locked = nil
	r.maxInterfMW = 0
	r.interfMW = r.ccaMW
}

// recomputeSums rebuilds the three maintained energy folds from the
// arrivals list in arrival order. Removing an arrival from the middle
// of the list changes the folds' association, so the running values
// cannot be maintained by subtraction without drifting one ulp at a
// time; one rebuild per trailing edge keeps them exact (and, with the
// list empty, pins them back to exactly zero — no drift ever
// accumulates).
func (r *Radio) recomputeSums() {
	r.memo().soaRescans++
	cca, interf := 0.0, 0.0
	floor := r.lin.NoiseFloorMW
	for _, a := range r.arrivals {
		cca += a.mw
		floor += a.mw
		if a.tx != r.locked {
			interf += a.mw
		}
	}
	r.ccaMW, r.floorMW, r.interfMW = cca, floor, interf
}

// arrivalEnd handles the trailing edge of a transmission at this radio.
func (r *Radio) arrivalEnd(tx *transmission) {
	for i := range r.arrivals {
		if r.arrivals[i].tx == tx {
			// Remove preserving arrival order, so later sums stay a pure
			// function of the remaining arrival sequence. On these short
			// lists an element loop beats copy, which pays a
			// typedslicecopy call for the pointer-holding entries.
			last := len(r.arrivals) - 1
			for j := i; j < last; j++ {
				r.arrivals[j] = r.arrivals[j+1]
			}
			r.arrivals[last] = arrivalEntry{}
			r.arrivals = r.arrivals[:last]
			r.recomputeSums()
			break
		}
	}
	if r.locked == tx {
		r.locked = nil
		ok := r.verdict(tx)
		if ok {
			r.FramesDecoded++
			if r.shard != nil {
				r.shard.deliveries++
			} else {
				r.m.Deliveries++
			}
		} else {
			r.FramesErrored++
			if r.shard != nil {
				r.shard.phyErrors++
			} else {
				r.m.PHYErrors++
			}
		}
		power := r.lockedPower
		r.maxInterfMW = 0
		r.updateCCA()
		r.handler.RxEnd(tx.f, tx.rate, power, ok)
		return
	}
	r.updateCCA()
}

// verdict decides whether the locked frame decoded successfully: power
// above the rate's sensitivity, and SINR above the rate's requirement
// against the worst noise+interference seen during the reception.
func (r *Radio) verdict(tx *transmission) bool {
	prof := r.profile
	idx := tx.rate.Index()
	if r.lockedPower < prof.SensitivityDBm[idx] {
		return false
	}
	sinr := r.lockedPower - r.floorDBm(r.lin.NoiseFloorMW+r.maxInterfMW)
	return sinr >= prof.SINRRequiredDB[idx]
}

// floorDBm is phy.MilliwattToDBm(floorMW) for a noise-plus-interference
// floor. At the bare noise floor — the lock test of a frame that
// arrives on a quiet channel, the verdict of one nothing overlapped,
// the common case on a sparse field — it is the radio's cached
// conversion of those very bits, so the Log10 is skipped and the
// result is the same float.
func (r *Radio) floorDBm(floorMW float64) float64 {
	if floorMW == r.lin.NoiseFloorMW {
		return r.lin.NoiseFloorDBm
	}
	return phy.MilliwattToDBm(floorMW)
}

// updateCCA recomputes physical carrier sense and reports edges.
// The medium is busy at this radio when it is transmitting, when its
// receive chain is locked, or when total in-air energy exceeds the
// energy-detect threshold.
func (r *Radio) updateCCA() {
	busy := r.state == stateTransmit || r.locked != nil
	if !busy && len(r.arrivals) > 0 {
		busy = r.ccaMW >= r.lin.CCAThresholdMW
	}
	if busy != r.ccaBusy {
		r.ccaBusy = busy
		r.handler.CCAChanged(busy)
	}
}
