// Package transport implements the two transport protocols of the
// paper's workloads: UDP (for the CBR traffic) and a TCP Reno
// implementation complete enough for saturating bulk transfer (for the
// ftp traffic): connection establishment, cumulative and delayed ACKs,
// slow start, congestion avoidance, fast retransmit/recovery, and
// Jacobson/Karn retransmission timers.
package transport

import (
	"encoding/binary"
	"errors"
	"fmt"

	"adhocsim/internal/network"
)

// UDPHeaderBytes is the UDP header size.
const UDPHeaderBytes = 8

// ErrShortDatagram reports a datagram smaller than its header.
var ErrShortDatagram = errors.New("transport: datagram shorter than UDP header")

// UDPHandler receives datagrams for a bound port.
type UDPHandler func(payload []byte, src network.Addr, srcPort uint16)

// UDP is one station's UDP instance.
type UDP struct {
	stack *network.Stack
	ports map[uint16]UDPHandler // made at the first Listen

	// Counters.
	Sent, Received, NoPort uint64
}

// NewUDP attaches a UDP layer to the stack.
func NewUDP(stack *network.Stack) *UDP {
	u := &UDP{stack: stack}
	stack.Handle(network.ProtoUDP, u.receive)
	return u
}

// Listen binds a handler to a local port, replacing any previous one.
func (u *UDP) Listen(port uint16, h UDPHandler) {
	if u.ports == nil {
		u.ports = make(map[uint16]UDPHandler)
	}
	u.ports[port] = h
}

// Reset drops all port bindings and counters for a new run on a reused
// network. The stack registration survives (it was made once at
// construction); sinks re-Listen per run.
func (u *UDP) Reset() {
	clear(u.ports)
	u.Sent, u.Received, u.NoPort = 0, 0, 0
}

// SendTo transmits one datagram. Errors propagate from the stack (e.g.
// MAC queue full), letting sources implement backpressure. The payload
// is copied, so the caller may reuse its buffer as soon as SendTo
// returns.
func (u *UDP) SendTo(payload []byte, dst network.Addr, srcPort, dstPort uint16) error {
	// One buffer per datagram: the network header goes in front, in
	// place (Stack.SendPacket).
	pkt := make([]byte, network.HeaderBytes+UDPHeaderBytes+len(payload))
	dgram := pkt[network.HeaderBytes:]
	binary.BigEndian.PutUint16(dgram[0:2], srcPort)
	binary.BigEndian.PutUint16(dgram[2:4], dstPort)
	binary.BigEndian.PutUint16(dgram[4:6], uint16(UDPHeaderBytes+len(payload)))
	copy(dgram[UDPHeaderBytes:], payload)
	if err := u.stack.SendPacket(network.ProtoUDP, pkt, dst); err != nil {
		return fmt.Errorf("udp: %w", err)
	}
	u.Sent++
	return nil
}

func (u *UDP) receive(dgram []byte, src, _ network.Addr) {
	if len(dgram) < UDPHeaderBytes {
		return
	}
	srcPort := binary.BigEndian.Uint16(dgram[0:2])
	dstPort := binary.BigEndian.Uint16(dgram[2:4])
	h, ok := u.ports[dstPort]
	if !ok {
		u.NoPort++
		return
	}
	u.Received++
	h(dgram[UDPHeaderBytes:], src, srcPort)
}
