package transport

import (
	"encoding/binary"
	"errors"
	"time"

	"adhocsim/internal/network"
	"adhocsim/internal/sim"
)

// TCPHeaderBytes is the TCP header size (no options).
const TCPHeaderBytes = 20

// TCP segment flags.
const (
	flagFIN = 1 << 0
	flagSYN = 1 << 1
	flagACK = 1 << 4
)

// TCP tuning (defaults follow the early-2000s Linux stacks of the
// paper's testbed closely enough for shape fidelity).
const (
	DefaultMSS     = 1460
	sendBufCap     = 64 << 10
	recvWindow     = 64<<10 - 1 // fits the 16-bit window field
	initialRTO     = 1 * time.Second
	minRTO         = 200 * time.Millisecond
	maxRTO         = 60 * time.Second
	delayedACKTime = 100 * time.Millisecond
	initialCwndMSS = 2
)

// segment is a parsed TCP segment.
type segment struct {
	srcPort, dstPort uint16
	seq, ack         uint32
	flags            uint8
	wnd              uint16
	payload          []byte
}

// encodeSegment marshals s into a new packet buffer, behind
// network.HeaderBytes of headroom that Stack.SendPacket writes the
// network header into.
func encodeSegment(s *segment) []byte {
	pkt := make([]byte, network.HeaderBytes+TCPHeaderBytes+len(s.payload))
	buf := pkt[network.HeaderBytes:]
	binary.BigEndian.PutUint16(buf[0:2], s.srcPort)
	binary.BigEndian.PutUint16(buf[2:4], s.dstPort)
	binary.BigEndian.PutUint32(buf[4:8], s.seq)
	binary.BigEndian.PutUint32(buf[8:12], s.ack)
	buf[12] = 5 << 4 // data offset: 5 words
	buf[13] = s.flags
	binary.BigEndian.PutUint16(buf[14:16], s.wnd)
	copy(buf[TCPHeaderBytes:], s.payload)
	return pkt
}

func decodeSegment(b []byte) (*segment, error) {
	if len(b) < TCPHeaderBytes {
		return nil, errors.New("transport: segment shorter than TCP header")
	}
	return &segment{
		srcPort: binary.BigEndian.Uint16(b[0:2]),
		dstPort: binary.BigEndian.Uint16(b[2:4]),
		seq:     binary.BigEndian.Uint32(b[4:8]),
		ack:     binary.BigEndian.Uint32(b[8:12]),
		flags:   b[13],
		wnd:     binary.BigEndian.Uint16(b[14:16]),
		payload: b[TCPHeaderBytes:],
	}, nil
}

// Sequence-space comparisons (wraparound-safe).
func seqLT(a, b uint32) bool  { return int32(a-b) < 0 }
func seqLEQ(a, b uint32) bool { return int32(a-b) <= 0 }

// connState is the TCP connection state (the subset a simulated bulk
// transfer visits).
type connState uint8

const (
	stateSynSent connState = iota + 1
	stateSynRcvd
	stateEstablished
	stateFinSent
	stateClosed
)

// ConnStats counts per-connection protocol events.
type ConnStats struct {
	SegsSent        uint64
	SegsRcvd        uint64
	BytesSent       uint64 // payload bytes, first transmissions only
	BytesAcked      uint64
	BytesDelivered  uint64 // in-order payload handed to the application
	Retransmits     uint64
	FastRetransmits uint64
	RTOs            uint64
	DupAcksRcvd     uint64
	DelayedACKs     uint64
}

type connKey struct {
	remote     network.Addr
	localPort  uint16
	remotePort uint16
}

// TCP is one station's TCP instance.
type TCP struct {
	sched *sim.Scheduler
	stack *network.Stack
	rng   sim.Stream // initial sequence numbers, created at the first draw
	mss   int

	// conns and listeners are made on their first write: only the
	// stations of a TCP flow ever hold an entry.
	conns     map[connKey]*Conn
	listeners map[uint16]func(*Conn)
	nextPort  uint16

	// Orphans counts segments that matched no connection or listener.
	Orphans uint64
}

// NewTCP attaches a TCP layer to the stack. mss ≤ 0 selects DefaultMSS;
// the paper's experiments use 512-byte application packets, so its
// harness passes 512.
func NewTCP(sched *sim.Scheduler, src *sim.Source, stack *network.Stack, mss int) *TCP {
	if mss <= 0 {
		mss = DefaultMSS
	}
	t := &TCP{
		sched:    sched,
		stack:    stack,
		rng:      src.Lazy(issKey(stack.Addr())),
		mss:      mss,
		nextPort: 49152,
	}
	stack.Handle(network.ProtoTCP, t.receive)
	stack.OnQueueSpace(t.onQueueSpace)
	return t
}

// issKey names the ISN stream of the station at addr: "tcp.iss."
// followed by addr's dotted-quad form, hashed without allocating.
func issKey(addr network.Addr) sim.StreamKey {
	var buf [len(issPrefix) + 15]byte
	return sim.KeyForBytes(addr.AppendTo(append(buf[:0], issPrefix...)))
}

const issPrefix = "tcp.iss."

// Listen registers an accept callback for a local port.
func (t *TCP) Listen(port uint16, accept func(*Conn)) {
	if t.listeners == nil {
		t.listeners = make(map[uint16]func(*Conn))
	}
	t.listeners[port] = accept
}

// Reset discards every connection and listener and re-derives the ISN
// stream from src (which the caller has just Reseed-ed), returning the
// TCP layer to its just-constructed state for a new run on a reused
// network. The owning scheduler must have been Reset first, so the
// discarded connections' timers are already gone.
func (t *TCP) Reset(src *sim.Source) {
	t.rng.Reset(src)
	clear(t.conns)
	clear(t.listeners)
	t.nextPort = 49152
	t.Orphans = 0
}

// Dial opens a connection to dst:port and starts the three-way
// handshake. Writes may be queued immediately; they flow once the
// handshake completes.
func (t *TCP) Dial(dst network.Addr, port uint16) *Conn {
	local := t.nextPort
	t.nextPort++
	c := t.newConn(connKey{remote: dst, localPort: local, remotePort: port})
	c.state = stateSynSent
	c.sndNxt = c.iss + 1 // SYN consumes one sequence number
	if err := c.sendSYN(false); err != nil {
		// No route yet (dynamic routing still converging): poll rather
		// than waiting out a full RTO for a SYN that never hit the air.
		c.synLocalFail = true
		c.rtoEv = c.tcp.sched.Reschedule(c.rtoEv, c.tcp.sched.Now()+synRetryInterval, (*rtoTimer)(c))
		return c
	}
	c.armRTO()
	return c
}

func (t *TCP) newConn(key connKey) *Conn {
	c := &Conn{
		tcp:      t,
		key:      key,
		mss:      t.mss,
		iss:      t.rng.Rand().Uint32(),
		cwnd:     float64(initialCwndMSS * t.mss),
		ssthresh: sendBufCap,
		rwnd:     uint32(t.mss), // until the peer advertises
		rto:      initialRTO,
		ooo:      make(map[uint32][]byte),
	}
	c.sndUna = c.iss
	c.sndNxt = c.iss
	if t.conns == nil {
		t.conns = make(map[connKey]*Conn)
	}
	t.conns[key] = c
	return c
}

func (t *TCP) onQueueSpace() {
	for _, c := range t.conns {
		if c.state == stateEstablished {
			c.trySend()
		}
	}
}

func (t *TCP) receive(data []byte, src, _ network.Addr) {
	seg, err := decodeSegment(data)
	if err != nil {
		return
	}
	key := connKey{remote: src, localPort: seg.dstPort, remotePort: seg.srcPort}
	c, ok := t.conns[key]
	if !ok {
		accept, lok := t.listeners[seg.dstPort]
		if !lok || seg.flags&flagSYN == 0 || seg.flags&flagACK != 0 {
			t.Orphans++
			return
		}
		// Passive open. A locally refused SYN-ACK (full queue, or no
		// reverse route yet under dynamic routing) retries on the RTO
		// path, which polls without backoff for local failures.
		c = t.newConn(key)
		c.state = stateSynRcvd
		c.rcvNxt = seg.seq + 1
		c.sndNxt = c.iss + 1
		if err := c.sendSYN(true); err != nil {
			c.synLocalFail = true
			c.rtoEv = c.tcp.sched.Reschedule(c.rtoEv, c.tcp.sched.Now()+synRetryInterval, (*rtoTimer)(c))
			accept(c)
			return
		}
		c.armRTO()
		accept(c)
		return
	}
	c.processSegment(seg)
}

// Conn is one TCP connection endpoint.
type Conn struct {
	tcp   *TCP
	key   connKey
	state connState
	mss   int

	// Send side.
	iss        uint32
	sndUna     uint32
	sndNxt     uint32
	sendBuf    []byte // sendBuf[0] is the byte at sequence sndUna
	cwnd       float64
	ssthresh   float64
	rwnd       uint32
	dupAcks    int
	inRecovery bool
	sending    bool // re-entrancy guard: queue-space events fire inside Send

	// RTO state (Jacobson/Karn).
	rto      time.Duration
	srtt     time.Duration
	rttvar   time.Duration
	hasSRTT  bool
	sampling bool
	rttSeq   uint32
	rttStart time.Duration
	rtoEv    sim.Event

	// synLocalFail records that the most recent SYN attempt failed
	// locally (no route / full queue) and never reached the air, so the
	// next successful send must not inherit a Karn backoff.
	synLocalFail bool

	// Receive side.
	rcvNxt   uint32
	ooo      map[uint32][]byte
	acksOwed int
	delackEv sim.Event
	finRcvd  bool

	// Application hooks.
	onData     func([]byte)
	onWritable func()
	onClose    func()

	Stats ConnStats
}

// Established reports whether the handshake has completed.
func (c *Conn) Established() bool { return c.state == stateEstablished }

// OnData registers the in-order delivery callback.
func (c *Conn) OnData(fn func([]byte)) { c.onData = fn }

// OnWritable registers a callback invoked when send-buffer space frees
// up, for saturating sources.
func (c *Conn) OnWritable(fn func()) { c.onWritable = fn }

// OnClose registers a callback invoked when the peer closes.
func (c *Conn) OnClose(fn func()) { c.onClose = fn }

// CwndBytes exposes the congestion window for instrumentation.
func (c *Conn) CwndBytes() int { return int(c.cwnd) }

// RTO exposes the current retransmission timeout for instrumentation.
func (c *Conn) RTO() time.Duration { return c.rto }

// Write queues application bytes, returning how many fit in the send
// buffer. A short write indicates backpressure; OnWritable fires when
// space opens.
func (c *Conn) Write(b []byte) int {
	if c.state == stateClosed || c.state == stateFinSent {
		return 0
	}
	space := sendBufCap - len(c.sendBuf)
	n := min(space, len(b))
	c.sendBuf = append(c.sendBuf, b[:n]...)
	if c.state == stateEstablished {
		c.trySend()
	}
	return n
}

// Close sends a FIN once the send buffer drains; no further writes are
// accepted. (TIME_WAIT and simultaneous-close subtleties are out of
// scope for the simulated workloads.)
func (c *Conn) Close() {
	if c.state != stateEstablished {
		c.state = stateClosed
		c.tcp.sched.Cancel(c.rtoEv)
		c.tcp.sched.Cancel(c.delackEv)
		return
	}
	c.state = stateFinSent
	if len(c.sendBuf) == 0 {
		c.sendFIN()
	}
}

// segment construction ---------------------------------------------------

var debugSeg func(who network.Addr, dir string, s *segment, extra string)

func (c *Conn) send(seg *segment) error {
	seg.srcPort = c.key.localPort
	seg.dstPort = c.key.remotePort
	seg.wnd = recvWindow
	if debugSeg != nil {
		debugSeg(c.tcp.stack.Addr(), "->", seg, "")
	}
	if err := c.tcp.stack.SendPacket(network.ProtoTCP, encodeSegment(seg), c.key.remote); err != nil {
		return err
	}
	c.Stats.SegsSent++
	return nil
}

// synRetryInterval paces handshake retries after a *local* send
// failure (no route yet under dynamic routing, or a full MAC queue).
// Such a failure never reached the air, so Karn's exponential backoff —
// a congestion response — does not apply; the connection just polls
// until the stack accepts the SYN.
const synRetryInterval = 100 * time.Millisecond

func (c *Conn) sendSYN(withACK bool) error {
	seg := &segment{seq: c.iss, flags: flagSYN}
	if withACK {
		seg.flags |= flagACK
		seg.ack = c.rcvNxt
	}
	return c.send(seg) // handshake retransmission rides on the RTO
}

func (c *Conn) sendFIN() {
	_ = c.send(&segment{seq: c.sndNxt, ack: c.rcvNxt, flags: flagFIN | flagACK})
	c.sndNxt++
	c.armRTO()
}

func (c *Conn) sendACK() {
	c.acksOwed = 0
	c.tcp.sched.Cancel(c.delackEv)
	_ = c.send(&segment{seq: c.sndNxt, ack: c.rcvNxt, flags: flagACK})
}

// trySend transmits as much buffered data as the congestion and receive
// windows allow.
func (c *Conn) trySend() {
	if c.state != stateEstablished && c.state != stateFinSent {
		return
	}
	// The MAC's queue-space callback fires synchronously from inside
	// stack.Send, which would re-enter this loop before sndNxt advances
	// and corrupt the sequence stream; the guard makes the outer loop
	// the only writer.
	if c.sending {
		return
	}
	c.sending = true
	defer func() { c.sending = false }()
	for {
		inFlight := c.sndNxt - c.sndUna
		window := uint32(c.cwnd)
		if c.rwnd < window {
			window = c.rwnd
		}
		if inFlight >= window {
			return
		}
		avail := len(c.sendBuf) - int(inFlight)
		if avail <= 0 {
			if c.state == stateFinSent && inFlight == 0 && len(c.sendBuf) == 0 {
				c.sendFIN()
				c.state = stateClosed
			}
			return
		}
		n := min(c.mss, avail)
		if inFlight+uint32(n) > window {
			return // don't send runt segments mid-window
		}
		payload := c.sendBuf[inFlight : inFlight+uint32(n)]
		seg := &segment{
			seq:     c.sndNxt,
			ack:     c.rcvNxt,
			flags:   flagACK,
			payload: payload,
		}
		if err := c.send(seg); err != nil {
			return // MAC queue full: resume on queue-space notification
		}
		if !c.sampling {
			c.sampling = true
			c.rttSeq = c.sndNxt + uint32(n)
			c.rttStart = c.tcp.sched.Now()
		}
		c.sndNxt += uint32(n)
		c.Stats.BytesSent += uint64(n)
		c.armRTO()
	}
}

// retransmit resends the segment at sndUna.
func (c *Conn) retransmit() {
	n := min(c.mss, len(c.sendBuf))
	if n == 0 {
		return
	}
	c.Stats.Retransmits++
	c.sampling = false // Karn: never sample retransmitted segments
	seg := &segment{
		seq:     c.sndUna,
		ack:     c.rcvNxt,
		flags:   flagACK,
		payload: c.sendBuf[:n],
	}
	_ = c.send(seg)
}

// timers -----------------------------------------------------------------

// The retransmission and delayed-ACK timers are sim.Actions of
// pointer-conversion types over Conn, so arming one (once per segment
// sent or received) allocates neither a closure nor a method value.
type (
	rtoTimer    Conn
	delackTimer Conn
)

func (t *rtoTimer) Act() { (*Conn)(t).onRTO() }

func (t *delackTimer) Act() {
	c := (*Conn)(t)
	c.Stats.DelayedACKs++
	c.sendACK()
}

func (c *Conn) armRTO() {
	c.rtoEv = c.tcp.sched.Reschedule(c.rtoEv, c.tcp.sched.Now()+c.rto, (*rtoTimer)(c))
}

func (c *Conn) onRTO() {
	switch c.state {
	case stateSynSent, stateSynRcvd:
		if err := c.sendSYN(c.state == stateSynRcvd); err != nil {
			// The SYN never left this host; retry soon, without backoff.
			c.synLocalFail = true
			c.rtoEv = c.tcp.sched.Reschedule(c.rtoEv, c.tcp.sched.Now()+synRetryInterval, (*rtoTimer)(c))
			return
		}
		if c.synLocalFail {
			// First SYN to actually reach the air after a run of local
			// failures: it has never timed out, so it earns the base
			// RTO, not a Karn doubling.
			c.synLocalFail = false
			c.armRTO()
			return
		}
	case stateEstablished, stateFinSent:
		if c.sndNxt == c.sndUna {
			return // nothing outstanding
		}
		c.Stats.RTOs++
		flight := float64(c.sndNxt - c.sndUna)
		c.ssthresh = maxf(flight/2, float64(2*c.mss))
		c.cwnd = float64(c.mss)
		c.dupAcks = 0
		c.inRecovery = false
		c.retransmit()
	default:
		return
	}
	c.rto = minDur(2*c.rto, maxRTO) // exponential backoff (Karn)
	c.armRTO()
}

func (c *Conn) updateRTT(sample time.Duration) {
	if !c.hasSRTT {
		c.srtt = sample
		c.rttvar = sample / 2
		c.hasSRTT = true
	} else {
		diff := c.srtt - sample
		if diff < 0 {
			diff = -diff
		}
		c.rttvar = (3*c.rttvar + diff) / 4
		c.srtt = (7*c.srtt + sample) / 8
	}
	c.rto = c.srtt + 4*c.rttvar
	if c.rto < minRTO {
		c.rto = minRTO
	}
	if c.rto > maxRTO {
		c.rto = maxRTO
	}
}

// receive path -------------------------------------------------------------

func (c *Conn) processSegment(seg *segment) {
	if debugSeg != nil {
		debugSeg(c.tcp.stack.Addr(), "<-", seg, "")
	}
	c.Stats.SegsRcvd++
	now := c.tcp.sched.Now()

	// Handshake transitions.
	switch c.state {
	case stateSynSent:
		if seg.flags&flagSYN != 0 && seg.flags&flagACK != 0 && seg.ack == c.sndNxt {
			c.rcvNxt = seg.seq + 1
			c.sndUna = seg.ack
			c.rwnd = uint32(seg.wnd)
			c.state = stateEstablished
			c.tcp.sched.Cancel(c.rtoEv)
			c.rto = initialRTO
			c.sendACK()
			c.trySend()
		}
		return
	case stateSynRcvd:
		if seg.flags&flagACK != 0 && seg.ack == c.sndNxt {
			c.sndUna = seg.ack
			c.state = stateEstablished
			c.tcp.sched.Cancel(c.rtoEv)
			c.rto = initialRTO
			// Fall through: the ACK may carry data.
		} else {
			return
		}
	case stateClosed:
		return
	}

	if seg.flags&flagACK != 0 {
		c.rwnd = uint32(seg.wnd)
		c.processACK(seg, now)
	}
	if len(seg.payload) > 0 || seg.flags&flagFIN != 0 {
		c.processData(seg)
	}
}

func (c *Conn) processACK(seg *segment, now time.Duration) {
	switch {
	case seqLT(c.sndUna, seg.ack) && seqLEQ(seg.ack, c.sndNxt):
		acked := seg.ack - c.sndUna
		// SYN and FIN occupy sequence space but not buffer space.
		trim := min(int(acked), len(c.sendBuf))
		c.sendBuf = c.sendBuf[trim:]
		c.sndUna = seg.ack
		c.Stats.BytesAcked += uint64(acked)
		c.dupAcks = 0

		if c.sampling && seqLEQ(c.rttSeq, seg.ack) {
			c.sampling = false
			c.updateRTT(now - c.rttStart)
		}
		if c.inRecovery {
			// Reno: deflate on the first new ACK.
			c.cwnd = c.ssthresh
			c.inRecovery = false
		} else if c.cwnd < c.ssthresh {
			c.cwnd += float64(c.mss) // slow start
		} else {
			c.cwnd += float64(c.mss) * float64(c.mss) / c.cwnd // congestion avoidance
		}
		if c.sndUna == c.sndNxt {
			c.tcp.sched.Cancel(c.rtoEv)
		} else {
			c.armRTO()
		}
		if c.onWritable != nil && len(c.sendBuf) < sendBufCap {
			c.onWritable()
		}
		c.trySend()

	case seg.ack == c.sndUna && len(seg.payload) == 0 && c.sndNxt != c.sndUna:
		c.Stats.DupAcksRcvd++
		c.dupAcks++
		switch {
		case c.dupAcks == 3:
			// Fast retransmit + fast recovery.
			c.Stats.FastRetransmits++
			flight := float64(c.sndNxt - c.sndUna)
			c.ssthresh = maxf(flight/2, float64(2*c.mss))
			c.retransmit()
			c.cwnd = c.ssthresh + 3*float64(c.mss)
			c.inRecovery = true
			c.armRTO()
		case c.dupAcks > 3 && c.inRecovery:
			c.cwnd += float64(c.mss) // window inflation
			c.trySend()
		}
	}
}

func (c *Conn) processData(seg *segment) {
	switch {
	case seg.seq == c.rcvNxt:
		c.deliver(seg.payload)
		if seg.flags&flagFIN != 0 {
			c.rcvNxt++
			c.finRcvd = true
		}
		// Drain any contiguous out-of-order segments.
		for {
			p, ok := c.ooo[c.rcvNxt]
			if !ok {
				break
			}
			delete(c.ooo, c.rcvNxt)
			c.deliver(p)
		}
		if c.finRcvd {
			c.sendACK()
			if c.onClose != nil {
				c.onClose()
			}
			return
		}
		// Delayed ACK: every second segment, or after the timer.
		c.acksOwed++
		if c.acksOwed >= 2 || len(c.ooo) > 0 {
			c.sendACK()
		} else if !c.delackEv.Pending() {
			c.delackEv = c.tcp.sched.Reschedule(c.delackEv,
				c.tcp.sched.Now()+delayedACKTime, (*delackTimer)(c))
		}
	case seqLT(c.rcvNxt, seg.seq):
		// A hole: buffer and signal it with an immediate duplicate ACK.
		if len(c.ooo) < 256 {
			c.ooo[seg.seq] = append([]byte(nil), seg.payload...)
		}
		c.sendACK()
	default:
		// Entirely old data (a retransmission we already have): re-ACK so
		// the sender advances.
		c.sendACK()
	}
}

func (c *Conn) deliver(p []byte) {
	if len(p) == 0 {
		return
	}
	c.rcvNxt += uint32(len(p))
	c.Stats.BytesDelivered += uint64(len(p))
	if c.onData != nil {
		c.onData(p)
	}
}

// small helpers ------------------------------------------------------------

func maxf(a, b float64) float64 {
	if a > b {
		return a
	}
	return b
}

func minDur(a, b time.Duration) time.Duration {
	if a < b {
		return a
	}
	return b
}
