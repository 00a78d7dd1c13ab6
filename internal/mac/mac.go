// Package mac implements the IEEE 802.11 Distributed Coordination
// Function (DCF): CSMA/CA channel access with binary exponential backoff,
// virtual carrier sense (NAV), the optional RTS/CTS exchange, MAC-level
// acknowledgements and retransmissions, and EIFS deferral after PHY
// reception errors.
//
// Timing constants follow Table 1 of Anastasi et al. (ICDCSW'03):
// SlotTime 20 µs, SIFS 10 µs, DIFS 50 µs, CW 32–1024 slots, long PLCP.
// Control frames (RTS/CTS/ACK) are transmitted at basic rates (1 or
// 2 Mbit/s) while data frames use the configured NIC rate — the rate
// split whose consequences the paper investigates.
package mac

import (
	"errors"
	"fmt"
	"time"

	"adhocsim/internal/frame"
	"adhocsim/internal/medium"
	"adhocsim/internal/phy"
	"adhocsim/internal/sim"
	"adhocsim/internal/trace"
)

// RTS threshold sentinels.
const (
	// RTSAlways enables RTS/CTS protection for every unicast data frame.
	RTSAlways = 0
	// RTSNever disables RTS/CTS entirely (the basic access scheme).
	RTSNever = 1 << 30
)

// MaxMSDU is the largest MSDU accepted from the upper layer, per the
// 802.11 MSDU size limit.
const MaxMSDU = 2304

// Config parameterizes one station's MAC.
type Config struct {
	// Address is this station's MAC address. Required.
	Address frame.Addr
	// BSSID identifies the ad hoc network (IBSS). All stations in one
	// experiment share it. Defaults to a fixed IBSS id.
	BSSID frame.Addr
	// DataRate is the NIC rate for unicast data frames. Defaults to 11
	// Mbit/s. With ARF it is the rate fallback starts from.
	DataRate phy.Rate
	// RTSThreshold: unicast MSDUs of at least this many bytes are
	// protected by RTS/CTS. Use RTSAlways or RTSNever for the paper's
	// two access modes. Defaults to RTSNever.
	RTSThreshold int
	// ShortRetryLimit bounds attempts for frames without RTS protection
	// and for the RTS itself (aShortRetryLimit, default 7).
	ShortRetryLimit int
	// LongRetryLimit bounds attempts for RTS-protected data frames
	// (aLongRetryLimit, default 4).
	LongRetryLimit int
	// QueueCap bounds the MSDU transmit queue (default 50).
	QueueCap int
	// BeaconInterval enables IBSS beaconing when positive. Beacons are
	// broadcast at 1 Mbit/s and contend like normal traffic.
	BeaconInterval time.Duration
	// ARF switches on Automatic Rate Fallback: each unicast data MSDU's
	// rate follows the station's own success/failure streaks, starting
	// from DataRate, as the paper's "dynamic rate switching" NICs do.
	// The state is the MAC's, so Reset rewinds it. Default false: the
	// fixed DataRate the paper's experiments use.
	ARF bool
	// DisableEIFS is an ablation switch: PHY errors defer by plain DIFS
	// instead of EIFS. The four-node asymmetry benches use it to isolate
	// how much of the unfairness the EIFS rule contributes. Default
	// false (standard behaviour).
	DisableEIFS bool
	// DeferResponses reproduces a testbed firmware quirk the paper's
	// §3.3 describes: the NIC carrier-senses before SIFS responses, so
	// an exposed receiver "is not able to send back the MAC ACK" while
	// it senses the other session, and the sender "reacts as in the
	// collision cases". Standard 802.11 sends SIFS responses regardless;
	// default false.
	DeferResponses bool
}

func (c Config) withDefaults() Config {
	if c.BSSID == (frame.Addr{}) {
		c.BSSID = frame.Addr{0x02, 0xad, 0x60, 0xc0, 0x00, 0x01}
	}
	if c.DataRate == 0 {
		c.DataRate = phy.Rate11
	}
	if !c.DataRate.Valid() {
		panic(fmt.Sprintf("mac: invalid data rate %d", c.DataRate))
	}
	if c.RTSThreshold == 0 {
		// The zero value means "unset"; explicit RTSAlways is also 0, so
		// experiments wanting RTS-on-everything set RTSThreshold: 1.
		// Keeping zero-value == paper's default (basic access).
		c.RTSThreshold = RTSNever
	}
	// Zero means "unset" (standard defaults); negative disables retries
	// entirely, which the range-probing sweeps use.
	if c.ShortRetryLimit == 0 {
		c.ShortRetryLimit = 7
	} else if c.ShortRetryLimit < 0 {
		c.ShortRetryLimit = 0
	}
	if c.LongRetryLimit == 0 {
		c.LongRetryLimit = 4
	} else if c.LongRetryLimit < 0 {
		c.LongRetryLimit = 0
	}
	if c.QueueCap == 0 {
		c.QueueCap = 50
	}
	return c
}

// ErrQueueFull is returned by Send when the transmit queue is at
// capacity; the upper layer should retry after the QueueSpace callback.
var ErrQueueFull = errors.New("mac: transmit queue full")

// ErrTooLarge is returned by Send for MSDUs above MaxMSDU.
var ErrTooLarge = errors.New("mac: MSDU exceeds 2304 bytes")

// state is the DCF transmit-path state.
type state uint8

const (
	stIdle     state = iota // no transmit operation in progress
	stContend               // waiting for IFS/backoff before transmitting
	stTxRTS                 // RTS on the air
	stWaitCTS               // awaiting CTS
	stTxData                // data frame on the air
	stWaitACK               // awaiting ACK
	stSIFSData              // CTS received; data frame due one SIFS later
)

func (s state) String() string {
	switch s {
	case stIdle:
		return "idle"
	case stContend:
		return "contend"
	case stTxRTS:
		return "tx-rts"
	case stWaitCTS:
		return "wait-cts"
	case stTxData:
		return "tx-data"
	case stWaitACK:
		return "wait-ack"
	case stSIFSData:
		return "sifs-data"
	}
	return fmt.Sprintf("state(%d)", uint8(s))
}

// msdu is one queued upper-layer packet plus its transmission state.
type msdu struct {
	payload    []byte
	to         frame.Addr
	seq        uint16
	rate       phy.Rate // data rate chosen for this MSDU
	shortRetry int
	longRetry  int
	ctsOK      bool // RTS/CTS handshake completed
	isBeacon   bool
	// pinned marks control-plane MSDUs whose rate was fixed at queue
	// time (SendControl): rate fallback neither chooses their rate nor
	// counts their outcomes, exactly like beacons.
	pinned bool
	// needsBackoff is false only for frames eligible for the standard's
	// immediate-access rule (arrived to an idle pipeline on an idle
	// channel); every retry and every queued frame backs off.
	needsBackoff bool
	// next links a recycled record into its MAC's free list.
	next *msdu
}

// MAC is one station's DCF instance. Create with New, attach to a medium
// with Attach, then exchange MSDUs via Send and the Deliver callback.
type MAC struct {
	cfg   Config
	sched *sim.Scheduler
	radio *medium.Radio
	rng   sim.Stream // backoff and beacon jitter, created at the first draw

	// Upper-layer hooks.
	deliver    func(payload []byte, src frame.Addr)
	queueSpace func()
	beaconSeen func(src frame.Addr)

	// txObservers receive transmit outcomes (routing link-failure
	// detectors). Construction-time wiring; survives Reset.
	txObservers []TxObserver

	queue   []*msdu
	current *msdu
	st      state
	spare   *msdu // free list of msdu records back from the pipeline

	cw      int // current contention window (slots)
	backoff int // remaining backoff slots (at the countdown's start while slotEv runs); -1 = not drawn

	nav         time.Duration // virtual carrier sense expiry (absolute)
	availSince  time.Duration
	available   bool // channel available (CCA idle && NAV expired)
	lastRxError bool // most recent reception ended in a PHY error (EIFS owed)
	down        bool // station crashed (PowerDown); all PHY callbacks gated

	resumeEv   sim.Event // fires when IFS after idle has elapsed
	resumeMark sim.Mark  // stands for resumeEv while the station is quiet
	slotEv     sim.Event // the backoff countdown
	navEv      sim.Event // NAV expiry
	timeoutEv  sim.Event // CTS/ACK timeout
	sifsEv     sim.Event // pending SIFS response
	beaconEv   sim.Event // next beacon

	pendingResp  *frame.Frame
	respRate     phy.Rate
	respInFlight bool

	seq uint16
	// arf is the rate fallback state DataRate reads under Config.ARF.
	arf arf
	// rxSeq is the last delivered sequence per source, made at the first
	// delivery.
	rxSeq map[frame.Addr]uint16

	// lastRxRSSI is the received power of the most recent error-free
	// reception; see LastRxRSSIDBm.
	lastRxRSSI float64

	// tr, when enabled, logs retry/backoff decisions (SetTracer). Purely
	// observational: trace calls read MAC state, never change it.
	tr *trace.Tracer

	Counters Counters
}

// SetTracer installs an execution tracer on the retry/backoff paths. A
// nil or disabled tracer costs one branch per failed attempt. Derive
// the handle with Tracer.WithClock on this station's scheduler so the
// timestamps follow its region clock in parallel mode.
func (m *MAC) SetTracer(t *trace.Tracer) { m.tr = t }

// Verify the MAC satisfies the medium's PHY indication interface.
var _ medium.Handler = (*MAC)(nil)

// New creates a MAC. Call Attach before use.
func New(sched *sim.Scheduler, src *sim.Source, cfg Config) *MAC {
	cfg = cfg.withDefaults()
	return &MAC{
		cfg:     cfg,
		sched:   sched,
		rng:     src.Lazy(backoffKey(cfg.Address)),
		cw:      phy.CWMin,
		backoff: -1,
		arf:     newARF(cfg.DataRate),
	}
}

// backoffKey names the backoff stream of the station at addr:
// "mac.backoff." followed by addr's colon-hex form, hashed without
// allocating.
func backoffKey(addr frame.Addr) sim.StreamKey {
	var buf [len(backoffPrefix) + 17]byte
	return sim.KeyForBytes(addr.AppendTo(append(buf[:0], backoffPrefix...)))
}

const backoffPrefix = "mac.backoff."

// Attach binds the MAC to its radio. The radio must have been created
// with this MAC as its handler. Channel state is initialized from the
// radio and beaconing starts (if configured).
func (m *MAC) Attach(r *medium.Radio) {
	if m.radio != nil {
		panic("mac: Attach called twice")
	}
	m.radio = r
	m.available = !r.CCABusy()
	m.availSince = m.sched.Now()
	if m.cfg.BeaconInterval > 0 {
		m.scheduleBeacon()
	}
}

// Reset returns an attached MAC to its just-attached state for a new
// run: queue, DCF state machine, rate fallback, counters and sequence
// tracking clear, and beaconing re-arms if configured. The backoff
// stream needs nothing: it re-roots at its next draw after the source's
// Reseed (sim.Stream). The owning scheduler must have been Reset first
// — the MAC's event handles are stale by then, so they are simply
// dropped — and the radio must already be Reset so carrier sense reads
// idle. The configuration is retained.
func (m *MAC) Reset() {
	if m.radio == nil {
		panic("mac: Reset before Attach")
	}
	m.flushPipeline()
	m.st = stIdle
	m.cw = phy.CWMin
	m.backoff = -1
	m.nav = 0
	m.lastRxError = false
	m.down = false
	m.resumeEv = sim.Event{}
	m.resumeMark = sim.Mark{}
	m.slotEv = sim.Event{}
	m.navEv = sim.Event{}
	m.timeoutEv = sim.Event{}
	m.sifsEv = sim.Event{}
	m.beaconEv = sim.Event{}
	m.pendingResp = nil
	m.respRate = 0
	m.respInFlight = false
	m.seq = 0
	clear(m.rxSeq)
	m.lastRxRSSI = 0
	m.arf = newARF(m.cfg.DataRate)
	m.Counters = Counters{}
	// Mirror Attach's channel-state initialization and beacon arming, in
	// the same order, so a Reset network schedules the same t=0 events
	// as a freshly built one.
	m.available = !m.radio.CCABusy()
	m.availSince = m.sched.Now()
	if m.cfg.BeaconInterval > 0 {
		m.scheduleBeacon()
	}
}

// Touch marks the station's state changed since the last Reset
// (medium.Radio.Touch). The MAC touches at its own entry points — a
// queued MSDU, an armed beacon, a power-down; everything else it does
// follows from those or from a radio indication, which touched
// already. The layers above touch through it.
func (m *MAC) Touch() { m.radio.Touch() }

// Address returns the station's MAC address.
func (m *MAC) Address() frame.Addr { return m.cfg.Address }

// DataRate returns the rate the next data MSDU would use: the fixed
// Config.DataRate, or rate fallback's current choice under Config.ARF.
func (m *MAC) DataRate() phy.Rate {
	if m.cfg.ARF {
		return m.arf.rate()
	}
	return m.cfg.DataRate
}

// QueueLen returns the number of queued MSDUs (excluding any in flight).
func (m *MAC) QueueLen() int { return len(m.queue) }

// QueueCap returns the transmit queue capacity.
func (m *MAC) QueueCap() int { return m.cfg.QueueCap }

// OnDeliver registers the upper-layer receive callback.
func (m *MAC) OnDeliver(fn func(payload []byte, src frame.Addr)) { m.deliver = fn }

// LastRxRSSIDBm returns the received power of the most recent
// error-free reception. Delivery is a synchronous call chain (PHY →
// MAC → network → transport), so a handler reading this during its own
// callback sees exactly the frame it is handling — the hook routing
// protocols use to reject neighbors whose advertisements arrive too
// weak to carry data ("gray zone" filtering). Zero before any
// reception.
func (m *MAC) LastRxRSSIDBm() float64 { return m.lastRxRSSI }

// OnQueueSpace registers a callback invoked whenever queue space becomes
// available, for saturating sources that keep the MAC busy.
func (m *MAC) OnQueueSpace(fn func()) { m.queueSpace = fn }

// OnBeacon registers a callback invoked when a beacon is received.
func (m *MAC) OnBeacon(fn func(src frame.Addr)) { m.beaconSeen = fn }

// Send queues one MSDU for transmission to the given address (which may
// be frame.Broadcast). It returns ErrQueueFull when the queue is at
// capacity and ErrTooLarge for oversized MSDUs.
func (m *MAC) Send(payload []byte, to frame.Addr) error {
	pkt := m.newMSDU()
	pkt.payload, pkt.to, pkt.rate = payload, to, m.DataRate()
	return m.enqueue(pkt)
}

// SendControl queues a control-plane MSDU pinned to the given PHY rate:
// the frame is exempt from rate control (neither re-rated per attempt
// nor reported to rate observers), like a beacon. Routing protocols use
// it so their advertisements ride a basic rate every station decodes —
// the same rule the standard applies to RTS/CTS/ACK.
func (m *MAC) SendControl(payload []byte, to frame.Addr, rate phy.Rate) error {
	if !rate.Valid() {
		panic(fmt.Sprintf("mac: invalid control rate %d", rate))
	}
	pkt := m.newMSDU()
	pkt.payload, pkt.to, pkt.rate, pkt.pinned = payload, to, rate, true
	return m.enqueue(pkt)
}

// newMSDU returns a zeroed msdu record, reusing one the pipeline
// released when there is one.
func (m *MAC) newMSDU() *msdu {
	pkt := m.spare
	if pkt == nil {
		return &msdu{}
	}
	m.spare, pkt.next = pkt.next, nil
	return pkt
}

// recycle returns a record that has left the pipeline (delivered,
// dropped, refused or flushed) for reuse by newMSDU. The caller must
// hold no other reference to it.
func (m *MAC) recycle(pkt *msdu) {
	*pkt = msdu{next: m.spare}
	m.spare = pkt
}

// flushPipeline discards the queued MSDUs and the one in service,
// recycling their records.
func (m *MAC) flushPipeline() {
	if m.current != nil {
		m.recycle(m.current)
		m.current = nil
	}
	for i, pkt := range m.queue {
		m.recycle(pkt)
		m.queue[i] = nil
	}
	m.queue = m.queue[:0]
}

// enqueue admits one MSDU (rate and flags already chosen) to the
// transmit queue. A refused record is recycled.
func (m *MAC) enqueue(pkt *msdu) error {
	m.Touch()
	if m.down {
		m.recycle(pkt)
		return ErrDown
	}
	if len(pkt.payload) > MaxMSDU {
		m.recycle(pkt)
		return ErrTooLarge
	}
	if len(m.queue) >= m.cfg.QueueCap {
		m.Counters.QueueDrops++
		m.recycle(pkt)
		return ErrQueueFull
	}
	pkt.seq = m.nextSeq()
	m.queue = append(m.queue, pkt)
	m.Counters.MSDUQueued++
	m.kick()
	return nil
}

func (m *MAC) nextSeq() uint16 {
	m.seq = (m.seq + 1) & 0x0fff
	return m.seq
}

// scheduleBeacon arms the next beacon. Beacons are queued at the head of
// the transmit queue and broadcast at 1 Mbit/s. Per the IBSS beacon
// generation rules, each station adds a random delay after the target
// beacon time so that stations sharing a TBTT do not collide forever.
func (m *MAC) scheduleBeacon() {
	m.Touch()
	jitter := time.Duration(m.rng.Rand().Intn(2*phy.CWMin)) * phy.SlotTime
	m.beaconEv = m.sched.AfterAction(m.cfg.BeaconInterval+jitter, (*beaconTimer)(m))
}

// beacon queues a beacon at the head of the transmit queue and arms the
// next one.
func (m *MAC) beacon() {
	b := m.newMSDU()
	b.payload = make([]byte, 40) // timestamp+interval+capability+IBSS params
	b.to, b.seq, b.rate, b.isBeacon = frame.Broadcast, m.nextSeq(), phy.Rate1, true
	if len(m.queue) < m.cfg.QueueCap {
		m.queue = append(m.queue, nil)
		copy(m.queue[1:], m.queue)
		m.queue[0] = b
		m.kick()
	} else {
		m.recycle(b)
	}
	m.scheduleBeacon()
}
