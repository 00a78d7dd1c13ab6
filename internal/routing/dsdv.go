package routing

import (
	"encoding/binary"
	"time"

	"adhocsim/internal/frame"
	"adhocsim/internal/mac"
	"adhocsim/internal/network"
	"adhocsim/internal/phy"
	"adhocsim/internal/sim"
	"adhocsim/internal/trace"
)

// This file implements DSDV (Destination-Sequenced Distance Vector,
// Perkins & Bhagwat '94), adapted to the simulator's 802.11 stack:
//
//   - every station periodically broadcasts its route table over
//     network.ProtoRouting; each entry is (destination, sequence
//     number, metric). The sender's own entry carries metric 0 and a
//     sequence number it alone increments (by 2, staying even) per
//     periodic advertisement.
//   - receivers adopt an entry when its sequence number is fresher, or
//     equally fresh with a smaller metric; entries relayed by the
//     current next hop always supersede (the next hop's latest word on
//     its own route). Adopted routes install into the stack with the
//     advertising neighbor as next hop.
//   - a route break — the MAC dropping a data MSDU to a next hop at
//     the retry limit — marks every route through that neighbor with
//     the infinity metric and an odd sequence number (last even + 1),
//     and triggers an immediate advertisement. Only the destination
//     itself can override a break, by advertising a fresher even
//     number; this is the sequence-number rule that makes DSDV
//     count-to-infinity-free.
//   - advertisements ride a pinned basic rate (mac.SendControl) so
//     every station in range can decode them — the same reason the
//     standard sends RTS/CTS/ACK at basic rates. Because basic-rate
//     control reaches much farther than high-rate data, receptions
//     weaker than MinNeighborDBm are ignored (gray-zone filtering):
//     a neighbor whose advertisement barely arrives at 1 Mbit/s would
//     lose every 11 Mbit/s data frame routed through it.

// InfinityMetric is the hop count meaning "unreachable". The TTL
// budget admits exactly DefaultTTL hops (the origin sends TTL 16 and a
// relay forwards while TTL > 1, so relays 1..15 can carry a packet to
// a 16th hop), so the first undeliverable metric is one past it.
const InfinityMetric = network.DefaultTTL + 1

// advertEntryBytes is the wire size of one advertisement entry:
// destination (4) + sequence number (4) + metric (1).
const advertEntryBytes = 9

// maxAdvertEntries bounds one advertisement to what fits an MSDU after
// the network header and the count byte.
const maxAdvertEntries = (mac.MaxMSDU - network.HeaderBytes - 1) / advertEntryBytes

// MaxNetworkSize is the largest station count DSDV supports: a full
// dump must fit one MSDU (the sender's own entry plus every possible
// destination), since the protocol has no incremental-dump mechanism.
// Scenario validation rejects larger dsdv networks up front — a
// silently truncated advertisement would starve the destinations that
// fell off the end, indistinguishable from genuine unreachability.
const MaxNetworkSize = maxAdvertEntries

// DSDVConfig parameterizes one station's DSDV instance.
type DSDVConfig struct {
	// AdvertInterval is the periodic full-table advertisement period
	// (default 1s). Each period the station increments its own sequence
	// number, which is what lets broken routes heal.
	AdvertInterval time.Duration
	// SettleDelay bounds the random delay before a triggered update and
	// the initial advertisement jitter (default 50ms). The jitter
	// de-synchronizes stations that would otherwise collide their
	// broadcasts forever.
	SettleDelay time.Duration
	// ControlRate is the pinned PHY rate of advertisements (default
	// 1 Mbit/s, the most robust basic rate).
	ControlRate phy.Rate
	// MinNeighborDBm, when nonzero, ignores advertisements received
	// weaker than this power: gray-zone filtering. Scenario wiring
	// derives it from the data rate's decode sensitivity, so "neighbor"
	// means "could carry my data frames", not "could deliver a
	// 1 Mbit/s broadcast on a lucky fade".
	MinNeighborDBm float64
	// BlacklistFor is how long a neighbor's advertisements are ignored
	// after its link is declared broken (default 2×AdvertInterval).
	// Fading makes the RSSI filter a per-sample test, so a marginal far
	// neighbor occasionally slips through on a lucky fade, gets adopted
	// as a shortcut, and immediately drops data; the blacklist keeps
	// such a neighbor from being re-adopted the moment its next
	// advertisement gets lucky again.
	BlacklistFor time.Duration
	// FailStreak is how many consecutive retry-limit MSDU drops to a
	// neighbor (with no intervening success) declare its link broken
	// (default 3). One drop is not a verdict under block fading: a
	// single bad coherence epoch routinely swallows an entire MSDU's
	// retry budget on a link that is healthy on average, and a failed
	// MSDU's backoff schedule spans roughly one epoch — so an honest
	// neighbor produces short failure streaks, while a gray-zone
	// shortcut that loses most epochs crosses the threshold within a
	// few packets.
	FailStreak int
	// AdmitStreak is how many consecutive strong advertisements (at or
	// above MinNeighborDBm) a sender needs before it is admitted as a
	// neighbor (default 2). Admission is sticky — a later weak
	// advertisement does not demote an admitted neighbor; only a link
	// break does. The hysteresis is what makes the filter decisive
	// under fading: a healthy link passes two consecutive samples
	// almost surely, a gray-zone one almost never. Irrelevant when
	// MinNeighborDBm is zero (no filter).
	AdmitStreak int
}

func (c DSDVConfig) withDefaults() DSDVConfig {
	if c.AdvertInterval <= 0 {
		c.AdvertInterval = time.Second
	}
	if c.SettleDelay <= 0 {
		c.SettleDelay = 50 * time.Millisecond
	}
	if c.ControlRate == 0 {
		c.ControlRate = phy.Rate1
	}
	if c.BlacklistFor <= 0 {
		c.BlacklistFor = 2 * c.AdvertInterval
	}
	if c.FailStreak <= 0 {
		c.FailStreak = 3
	}
	if c.AdmitStreak <= 0 {
		c.AdmitStreak = 2
	}
	return c
}

// DSDVCounters aggregates one station's control-plane activity.
type DSDVCounters struct {
	// AdvertsSent counts advertisement broadcasts handed to the MAC;
	// ControlBytes is their network-layer byte total (header included) —
	// the control overhead the summaries report.
	AdvertsSent  uint64
	ControlBytes uint64
	// AdvertsHeard counts advertisements processed; Filtered counts
	// those ignored by gray-zone filtering; Blacklisted counts those
	// ignored because the sender recently dropped our data.
	AdvertsHeard uint64
	Filtered     uint64
	Blacklisted  uint64
	// TriggeredUpdates counts advertisements sent ahead of schedule in
	// response to a route change or break.
	TriggeredUpdates uint64
	// LinkBreaks counts next-hop transmit failures observed from the
	// MAC; RouteChanges counts route-table installs and removals.
	LinkBreaks   uint64
	RouteChanges uint64
}

// dsdvEntry is one route-table row.
type dsdvEntry struct {
	next   network.Addr
	metric uint8
	seq    uint32
}

// DSDV is one station's distance-vector control plane. Create it with
// New (which wires the stack handler and MAC observer — permanent,
// Reset-surviving subscriptions) and arm it with Start. On an arena
// reuse, call Reset after the owning network's Reset.
type DSDV struct {
	sched  *sim.Scheduler
	source *sim.Source
	rng    sim.Stream // advertisement jitter
	node   Node
	cfg    DSDVConfig

	// table plus its deterministic iteration order: advertisement
	// content must not depend on Go map ordering. table and the four
	// maps below are made at their first write.
	table map[network.Addr]*dsdvEntry
	order []network.Addr

	// blacklist maps a neighbor to the simulated time until which its
	// advertisements are ignored (link recently proved broken);
	// failStreak counts its consecutive retry-limit drops since the
	// last success. admitted is the sticky neighbor set; strongStreak
	// counts a not-yet-admitted sender's consecutive strong
	// advertisements.
	blacklist    map[network.Addr]time.Duration
	failStreak   map[network.Addr]int
	admitted     map[network.Addr]bool
	strongStreak map[network.Addr]int

	ownSeq uint32
	rounds int // periodic advertisement rounds completed (fast-start pacing)

	// gen is the station's incarnation counter: every scheduled closure
	// captures the generation it was armed under and becomes inert when
	// Crash advances it. The fault engine cannot cancel the closures
	// individually (no handles are stored — see triggerPending below),
	// and dropping them wholesale via scheduler Reset would rewind the
	// whole run; the generation gate retires them in O(1) without
	// touching the scheduler.
	gen uint64

	// triggerPending coalesces bursts of route changes into one
	// pending triggered update. The scheduled events themselves need no
	// stored handles: nothing ever cancels them individually, and Reset
	// relies on the owning scheduler's Reset to drop them wholesale.
	triggerPending bool

	// tr, when enabled, logs route changes and link breaks (SetTracer).
	// Purely observational.
	tr *trace.Tracer

	Counters DSDVCounters
}

// SetTracer installs an execution tracer on the route-change and
// link-break paths. A nil or disabled tracer costs one branch per route
// event. Derive the handle with Tracer.WithClock on this station's
// scheduler so timestamps follow its region clock in parallel mode.
func (r *DSDV) SetTracer(t *trace.Tracer) { r.tr = t }

var _ mac.TxObserver = (*DSDV)(nil)

// New creates a DSDV instance for node. It registers the advertisement
// handler on the node's stack and subscribes to the node's MAC transmit
// outcomes — both construction-time wiring — and flips the stack into
// forwarding + RequireRoutes mode. Call Start to begin advertising.
func New(sched *sim.Scheduler, source *sim.Source, node Node, cfg DSDVConfig) *DSDV {
	r := &DSDV{
		sched:  sched,
		source: source,
		node:   node,
		cfg:    cfg.withDefaults(),
	}
	r.rng = source.Lazy(dsdvKey(node.Addr))
	node.Stack.Handle(network.ProtoRouting, r.onAdvert)
	node.MAC.AddTxObserver(r)
	node.Stack.Forwarding = true
	node.Stack.RequireRoutes = true
	return r
}

// dsdvKey names the jitter stream of the station at addr:
// "routing.dsdv." followed by addr's dotted-quad form, hashed without
// allocating.
func dsdvKey(addr network.Addr) sim.StreamKey {
	var buf [len(dsdvPrefix) + 15]byte
	return sim.KeyForBytes(addr.AppendTo(append(buf[:0], dsdvPrefix...)))
}

const dsdvPrefix = "routing.dsdv."

// Start arms the first advertisement (after a short random jitter, so
// co-located stations do not collide their initial broadcasts) and the
// periodic schedule behind it.
func (r *DSDV) Start() {
	delay := time.Duration(r.rng.Rand().Int63n(int64(r.cfg.SettleDelay)))
	gen := r.gen
	r.sched.After(delay, func() {
		if gen != r.gen {
			return
		}
		r.periodic()
	})
}

// Reset returns the instance to its just-built state for a new run on
// a reused arena: route table, sequence number and counters clear, the
// jitter rng re-derives from the (re-seeded) source, the stale event
// handles drop (the owning scheduler has been Reset), the stack's
// route table empties, and Start re-arms. The stack handler and MAC
// observer subscriptions persist from New.
func (r *DSDV) Reset() {
	r.rng.Reset(r.source)
	clear(r.table)
	r.order = r.order[:0]
	clear(r.blacklist)
	clear(r.failStreak)
	clear(r.admitted)
	clear(r.strongStreak)
	r.ownSeq = 0
	r.rounds = 0
	r.triggerPending = false
	r.Counters = DSDVCounters{}
	r.node.Stack.ClearRoutes()
	r.Start()
}

// Crash tears the control plane down mid-run (station crash, fault
// engine): the route table, neighbor admission state, blacklist and
// failure streaks all vanish — a rebooted daemon remembers none of them
// — and the stack's installed routes empty. The generation counter
// advances so every armed closure (initial, periodic, triggered)
// retires inert. Two things deliberately survive: ownSeq, because the
// network still circulates our pre-crash sequence numbers and a restart
// that rewound to zero would advertise itself as staler than its own
// ghost and be ignored forever; and the counters, which are this run's
// measurement record, not the daemon's state.
func (r *DSDV) Crash() {
	r.gen++
	clear(r.table)
	r.order = r.order[:0]
	clear(r.blacklist)
	clear(r.failStreak)
	clear(r.admitted)
	clear(r.strongStreak)
	r.rounds = 0
	r.triggerPending = false
	r.node.Stack.ClearRoutes()
}

// Restart brings a crashed control plane back: the own sequence number
// jumps past anything the pre-crash incarnation could have advertised
// (so peers re-adopt us immediately) and the advertisement schedule
// re-arms from scratch, fast-start rounds included — a rejoining
// station needs to re-learn its neighborhood just like a cold one.
func (r *DSDV) Restart() {
	r.ownSeq += 2
	r.Start()
}

// fastStartRounds is how many initial advertisement rounds run at a
// quarter of the configured interval. Neighbor admission needs
// AdmitStreak consecutive strong samples, and samples only arrive with
// advertisements — a cold network at one advert per second would take
// several seconds just to find out who its neighbors are. Deployed
// distance-vector daemons burst their first updates for the same
// reason.
const fastStartRounds = 4

// periodic sends the scheduled full-table advertisement and re-arms.
func (r *DSDV) periodic() {
	r.ownSeq += 2 // fresh even sequence number: "I am alive and here"
	r.sendAdvert()
	interval := r.cfg.AdvertInterval
	if r.rounds++; r.rounds < fastStartRounds {
		interval /= 4
	}
	jitter := time.Duration(r.rng.Rand().Int63n(int64(r.cfg.SettleDelay)))
	gen := r.gen
	r.sched.After(interval+jitter, func() {
		if gen != r.gen {
			return
		}
		r.periodic()
	})
}

// scheduleTriggered arms a near-immediate advertisement after the
// settling delay, coalescing bursts of route changes into one update.
func (r *DSDV) scheduleTriggered() {
	if r.triggerPending {
		return
	}
	r.triggerPending = true
	delay := time.Duration(r.rng.Rand().Int63n(int64(r.cfg.SettleDelay)))
	gen := r.gen
	r.sched.After(delay, func() {
		if gen != r.gen {
			return
		}
		r.triggerPending = false
		r.Counters.TriggeredUpdates++
		r.sendAdvert()
	})
}

// sendAdvert broadcasts the route table. A full queue just drops the
// advertisement — the next periodic one repeats the information.
func (r *DSDV) sendAdvert() {
	payload := r.encodeAdvert()
	if err := r.node.Stack.SendControl(network.ProtoRouting, payload, network.Broadcast, r.cfg.ControlRate); err != nil {
		return
	}
	r.Counters.AdvertsSent++
	r.Counters.ControlBytes += uint64(network.HeaderBytes + len(payload))
}

// encodeAdvert marshals the advertisement: a count byte, then
// (destination, sequence, metric) entries — own entry first.
func (r *DSDV) encodeAdvert() []byte {
	n := 1 + len(r.order)
	if n > maxAdvertEntries {
		// Unreachable for validated scenarios (MaxNetworkSize); a direct
		// library user past the limit loses the newest entries.
		n = maxAdvertEntries
	}
	buf := make([]byte, 1+n*advertEntryBytes)
	buf[0] = byte(n)
	put := func(i int, dst network.Addr, seq uint32, metric uint8) {
		off := 1 + i*advertEntryBytes
		binary.BigEndian.PutUint32(buf[off:], uint32(dst))
		binary.BigEndian.PutUint32(buf[off+4:], seq)
		buf[off+8] = metric
	}
	put(0, r.node.Addr, r.ownSeq, 0)
	for i, dst := range r.order {
		if i+1 >= n {
			break
		}
		e := r.table[dst]
		put(i+1, dst, e.seq, e.metric)
	}
	return buf
}

// onAdvert processes a received advertisement from the neighbor `from`.
func (r *DSDV) onAdvert(payload []byte, from network.Addr, _ network.Addr) {
	if until, bad := r.blacklist[from]; bad {
		if r.sched.Now() < until {
			r.Counters.Blacklisted++
			return
		}
		delete(r.blacklist, from)
	}
	if r.cfg.MinNeighborDBm != 0 && !r.admitted[from] {
		if r.strongStreak == nil {
			r.strongStreak = make(map[network.Addr]int)
		}
		if r.node.MAC.LastRxRSSIDBm() < r.cfg.MinNeighborDBm {
			r.strongStreak[from] = 0
			r.Counters.Filtered++
			return
		}
		r.strongStreak[from]++
		if r.strongStreak[from] < r.cfg.AdmitStreak {
			r.Counters.Filtered++
			return
		}
		delete(r.strongStreak, from)
		if r.admitted == nil {
			r.admitted = make(map[network.Addr]bool)
		}
		r.admitted[from] = true
	}
	if len(payload) < 1 {
		return
	}
	n := int(payload[0])
	if len(payload) < 1+n*advertEntryBytes {
		return
	}
	r.Counters.AdvertsHeard++
	for i := 0; i < n; i++ {
		off := 1 + i*advertEntryBytes
		dst := network.Addr(binary.BigEndian.Uint32(payload[off:]))
		seq := binary.BigEndian.Uint32(payload[off+4:])
		metric := payload[off+8]
		r.consider(from, dst, seq, metric)
	}
}

// consider applies one advertised entry.
func (r *DSDV) consider(from, dst network.Addr, seq uint32, metric uint8) {
	if dst == r.node.Addr {
		// Someone is circulating a broken route to us with a sequence
		// number at least as fresh as our own (an odd break number from
		// a dead link). Out-sequence it so our next advertisement
		// overrides the breakage; plain echoes of our good entry are
		// normal gossip and are ignored.
		if metric >= InfinityMetric && seq >= r.ownSeq {
			r.ownSeq = (seq/2 + 1) * 2
			r.scheduleTriggered()
		}
		return
	}
	if metric < InfinityMetric {
		metric++ // one more hop: through the advertising neighbor
	}
	cur, known := r.table[dst]
	adopt := !known ||
		seq > cur.seq ||
		(seq == cur.seq && (metric < cur.metric || cur.next == from))
	if !adopt {
		// A stale break heard about a route we hold fresher: advertise
		// the repair rather than letting the breakage echo.
		if metric >= InfinityMetric && cur.metric < InfinityMetric && cur.seq > seq {
			r.scheduleTriggered()
		}
		return
	}
	if !known {
		cur = &dsdvEntry{}
		if r.table == nil {
			r.table = make(map[network.Addr]*dsdvEntry)
		}
		r.table[dst] = cur
		r.order = append(r.order, dst)
	}
	wasUsable := known && cur.metric < InfinityMetric
	prevNext, prevMetric := cur.next, cur.metric
	cur.next, cur.seq, cur.metric = from, seq, metric

	switch {
	case metric >= InfinityMetric:
		if wasUsable {
			r.node.Stack.DelRoute(dst)
			r.Counters.RouteChanges++
			if r.tr.Enabled(trace.LevelInfo) {
				r.tr.Infof("dsdv %v: route to %v withdrawn (advertised broken via %v)",
					r.node.Addr, dst, from)
			}
			r.scheduleTriggered() // propagate the break
		}
	default:
		if !wasUsable || prevNext != from {
			r.node.Stack.AddRoute(dst, from)
			r.Counters.RouteChanges++
			if r.tr.Enabled(trace.LevelInfo) {
				r.tr.Infof("dsdv %v: route to %v via %v metric %d (was via %v metric %d)",
					r.node.Addr, dst, from, metric, prevNext, prevMetric)
			}
		}
		// New destinations and repaired routes are worth telling the
		// neighborhood about immediately; pure metric drift waits for
		// the periodic advertisement.
		if !known || !wasUsable || metric < prevMetric {
			r.scheduleTriggered()
		}
	}
}

// peerAddr resolves a MAC transmit destination back to the station's
// network address. frame.AddrFromID and network.StationAddr are both
// pure functions of the station id, so the convention itself is the
// mapping; addresses outside it (broadcast among them) report false.
func peerAddr(hw frame.Addr) (network.Addr, bool) {
	id, ok := frame.IDFromAddr(hw)
	if !ok || id == 0 || id > network.MaxStationID {
		return 0, false
	}
	return network.StationAddr(id), true
}

// ObserveTx implements mac.TxObserver: cfg.FailStreak consecutive data
// MSDUs dropped at the retry limit are the MAC's word that the link to
// that neighbor is dead. Every route through the neighbor then gets the
// infinity metric and an odd sequence number (break numbers are one
// above the last even number heard — only the destination itself, with
// a fresher even number, can resurrect the route), and the neighbor is
// blacklisted so a lucky advertisement cannot immediately re-adopt it.
func (r *DSDV) ObserveTx(o mac.TxOutcome) {
	if !o.Final || o.Control {
		return
	}
	neighbor, ok := peerAddr(o.To)
	if !ok || neighbor == r.node.Addr {
		return
	}
	if o.Success {
		delete(r.failStreak, neighbor)
		return
	}
	if r.failStreak == nil {
		r.failStreak = make(map[network.Addr]int)
	}
	r.failStreak[neighbor]++
	if r.failStreak[neighbor] < r.cfg.FailStreak {
		return
	}
	delete(r.failStreak, neighbor)
	if r.blacklist == nil {
		r.blacklist = make(map[network.Addr]time.Duration)
	}
	r.blacklist[neighbor] = r.sched.Now() + r.cfg.BlacklistFor
	delete(r.admitted, neighbor) // re-admission takes fresh strong samples
	delete(r.strongStreak, neighbor)
	broke := false
	for _, dst := range r.order {
		e := r.table[dst]
		if e.metric >= InfinityMetric || e.next != neighbor {
			continue
		}
		e.metric = InfinityMetric
		e.seq++ // odd: a break we observed, not the destination's word
		r.node.Stack.DelRoute(dst)
		r.Counters.RouteChanges++
		if r.tr.Enabled(trace.LevelInfo) {
			r.tr.Infof("dsdv %v: route to %v broken (next hop %v failed at the MAC)",
				r.node.Addr, dst, neighbor)
		}
		broke = true
	}
	if broke {
		r.Counters.LinkBreaks++
		r.scheduleTriggered()
	}
}

// Route reports the installed next hop and metric for dst, for tests
// and instrumentation. ok is false for unknown or broken destinations.
func (r *DSDV) Route(dst network.Addr) (next network.Addr, metric int, ok bool) {
	e, known := r.table[dst]
	if !known || e.metric >= InfinityMetric {
		return 0, 0, false
	}
	return e.next, int(e.metric), true
}
