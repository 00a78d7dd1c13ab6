// Package app provides the paper's two workloads and their measuring
// sinks: a CBR source over UDP and a saturating bulk-transfer ("ftp")
// source over TCP, both operating in the asymptotic regime of §3.1 —
// "they always have packets ready for transmission" — with constant
// packet sizes.
package app

import (
	"encoding/binary"
	"errors"
	"time"

	"adhocsim/internal/mac"
	"adhocsim/internal/network"
	"adhocsim/internal/node"
	"adhocsim/internal/transport"
)

// seqHeaderBytes is the CBR in-payload sequence header used for loss
// accounting.
const seqHeaderBytes = 4

// CBR is a constant-bit-rate (or saturating) UDP source.
type CBR struct {
	net      *node.Network
	from     *node.Station
	dst      network.Addr
	port     uint16
	interval time.Duration // 0 = saturate the MAC queue

	seq     uint32
	buf     []byte // the size-byte payload, reused: UDP copies it per packet
	started bool
	filling bool // re-entrancy guard: queue-space events fire inside SendTo
	retry   bool // a saturating-mode retry tick is pending
	paused  bool // flow outage (fault engine): offer nothing until Resume

	// Sent counts datagrams handed to UDP successfully. Attempts counts
	// every offered datagram, delivered or not — the delivery-ratio
	// denominator under faults (a paced tick that finds no route, or a
	// crashed source MAC, is an attempt that produced a loss). DownErr
	// counts the attempts refused because this station's own MAC was
	// powered down: the source-side share of downtime-attributed loss.
	Sent     uint64
	Attempts uint64
	DownErr  uint64
}

// retryInterval is how soon a saturating source retries after a send
// failed outright (no route yet under dynamic routing). Queue-space
// events cannot rescue it: nothing was queued, so none will fire.
const retryInterval = 10 * time.Millisecond

// NewCBR creates a CBR source on station from, addressed to dst:port,
// sending size-byte application packets. interval==0 selects the
// asymptotic (always-backlogged) regime: the source keeps the MAC queue
// full and refills on queue-space events. interval>0 paces packets.
func NewCBR(net *node.Network, from *node.Station, dst network.Addr, port uint16, size int, interval time.Duration) *CBR {
	if size < seqHeaderBytes {
		size = seqHeaderBytes
	}
	return &CBR{net: net, from: from, dst: dst, port: port, interval: interval, buf: make([]byte, size)}
}

// Start begins generation. Safe to call once.
func (c *CBR) Start() {
	if c.started {
		return
	}
	c.started = true
	if c.interval > 0 {
		c.tickPaced()
		return
	}
	c.from.Net.OnQueueSpace(c.fill)
	c.fill()
}

func (c *CBR) tickPaced() {
	// A paused flow keeps its tick chain alive — the outage must not
	// shift the post-resume tick phase — but offers nothing.
	if !c.paused {
		c.sendOne()
	}
	// The source's timers live on its own station's scheduler, which in
	// parallel mode is the station's region scheduler.
	c.from.Sched.AfterAction(c.interval, (*cbrTick)(c))
}

// cbrTick is the paced tick as an allocation-free sim.Action.
type cbrTick CBR

func (t *cbrTick) Act() { (*CBR)(t).tickPaced() }

// Pause suspends the flow (fault-engine outage). Paced ticks keep
// firing but offer nothing; saturating sources stop refilling.
func (c *CBR) Pause() { c.paused = true }

// Resume lifts a Pause. Saturating sources are re-kicked immediately;
// paced sources pick up at their next tick.
func (c *CBR) Resume() {
	if !c.paused {
		return
	}
	c.paused = false
	if c.started && c.interval == 0 {
		c.fill()
	}
}

func (c *CBR) fill() {
	if c.filling || c.paused {
		return
	}
	c.filling = true
	defer func() { c.filling = false }()
	// Leave one queue slot free so SIFS responses and TCP ACKs of other
	// flows on this station are never starved by the saturator.
	for c.from.Net.QueueFree() > 1 {
		if !c.sendOne() {
			// With an empty MAC queue there is no queue-space event to
			// wake us (the failure was not backpressure — e.g. routing
			// has not resolved the destination yet), so poll on a timer.
			if !c.retry && c.from.Net.MAC().QueueLen() == 0 {
				c.retry = true
				c.from.Sched.After(retryInterval, func() {
					c.retry = false
					c.fill()
				})
			}
			return
		}
	}
}

func (c *CBR) sendOne() bool {
	c.Attempts++
	binary.BigEndian.PutUint32(c.buf, c.seq)
	if err := c.from.UDP.SendTo(c.buf, c.dst, c.port, c.port); err != nil {
		if errors.Is(err, mac.ErrDown) {
			c.DownErr++
		}
		return false
	}
	c.seq++
	c.Sent++
	return true
}

// UDPSink receives CBR traffic and keeps delivery statistics.
type UDPSink struct {
	// Received counts datagrams; Bytes counts application payload bytes.
	Received uint64
	Bytes    uint64
	// MaxSeq is the highest sequence number observed (+1 == sender count
	// lower bound in-flight losses aside); Gaps counts skipped sequence
	// numbers, Reorders counts sequence regressions.
	MaxSeq   uint32
	Gaps     uint64
	Reorders uint64

	// Route-recovery accounting under faults. MarkFault stamps a fault
	// instant; the first datagram delivered after each pending marker
	// closes it and records the delay as a recovery sample. Markers
	// still pending at the end of the run are the flow's Unrecovered
	// faults.
	Recovered   uint64
	RecoverySum time.Duration
	RecoveryMax time.Duration

	pending []time.Duration
	haveSeq bool
	nextSeq uint32
}

// MarkFault records a fault instant affecting this flow; the next
// delivery closes it as a recovery sample.
func (s *UDPSink) MarkFault(t time.Duration) {
	s.pending = append(s.pending, t)
}

// Unrecovered reports the number of fault markers no delivery ever
// closed.
func (s *UDPSink) Unrecovered() int { return len(s.pending) }

// ListenUDP attaches the sink to a station's UDP port.
func (s *UDPSink) ListenUDP(st *node.Station, port uint16) {
	sched := st.Sched
	st.UDP.Listen(port, func(payload []byte, _ network.Addr, _ uint16) {
		s.Received++
		s.Bytes += uint64(len(payload))
		if len(s.pending) > 0 {
			now := sched.Now()
			for _, m := range s.pending {
				d := now - m
				s.Recovered++
				s.RecoverySum += d
				if d > s.RecoveryMax {
					s.RecoveryMax = d
				}
			}
			s.pending = s.pending[:0]
		}
		if len(payload) < seqHeaderBytes {
			return
		}
		seq := binary.BigEndian.Uint32(payload)
		if seq > s.MaxSeq {
			s.MaxSeq = seq
		}
		if !s.haveSeq {
			s.haveSeq = true
			s.nextSeq = seq + 1
			return
		}
		switch {
		case seq == s.nextSeq:
			s.nextSeq++
		case seq > s.nextSeq:
			s.Gaps += uint64(seq - s.nextSeq)
			s.nextSeq = seq + 1
		default:
			s.Reorders++
		}
	})
}

// ThroughputMbps converts the sink's byte count to application-level
// Mbit/s over the given horizon.
func (s *UDPSink) ThroughputMbps(horizon time.Duration) float64 {
	return float64(s.Bytes) * 8 / horizon.Seconds() / 1e6
}

// Bulk is a saturating TCP sender: it keeps the connection's send buffer
// full for the lifetime of the simulation, like an ftp transfer of an
// unbounded file.
type Bulk struct {
	conn  *transport.Conn
	chunk []byte

	// Written counts bytes accepted into the send buffer.
	Written uint64
}

// StartBulk dials dst:port from the station and saturates the
// connection with size-byte application writes (the paper's 512-byte
// packets; the harness also sets MSS=size so segments carry exactly one
// packet).
func StartBulk(net *node.Network, from *node.Station, dst network.Addr, port uint16, size int) *Bulk {
	b := &Bulk{chunk: make([]byte, size)}
	b.conn = from.TCP.Dial(dst, port)
	b.conn.OnWritable(b.fill)
	b.fill()
	return b
}

// Conn exposes the underlying connection for instrumentation.
func (b *Bulk) Conn() *transport.Conn { return b.conn }

func (b *Bulk) fill() {
	for {
		n := b.conn.Write(b.chunk)
		b.Written += uint64(n)
		if n < len(b.chunk) {
			return
		}
	}
}

// TCPSink accepts one bulk connection on a port and counts delivered
// bytes.
type TCPSink struct {
	Bytes  uint64
	Conns  int
	closed bool
}

// ListenTCP starts the sink on the station's port.
func (s *TCPSink) ListenTCP(st *node.Station, port uint16) {
	st.TCP.Listen(port, func(c *transport.Conn) {
		s.Conns++
		c.OnData(func(p []byte) { s.Bytes += uint64(len(p)) })
		c.OnClose(func() { s.closed = true })
	})
}

// ThroughputMbps converts delivered bytes to Mbit/s over the horizon.
func (s *TCPSink) ThroughputMbps(horizon time.Duration) float64 {
	return float64(s.Bytes) * 8 / horizon.Seconds() / 1e6
}
