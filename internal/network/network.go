// Package network implements a minimal IPv4-like network layer on top of
// the 802.11 MAC: 20-byte headers, protocol demultiplexing, a static
// neighbor (ARP) table, TTL-guarded forwarding with static routes (so the
// library is multi-hop ready, although the paper's experiments are
// single-hop), and link-layer broadcast.
//
// The 20-byte header is carried inside the MAC payload so that frame
// airtimes include the same per-packet network overhead as the paper's
// testbed (Figure 1's encapsulation stack).
package network

import (
	"encoding/binary"
	"errors"
	"fmt"
	"strconv"

	"adhocsim/internal/frame"
	"adhocsim/internal/mac"
	"adhocsim/internal/phy"
)

// Addr is an IPv4-style address.
type Addr uint32

// Broadcast is the all-stations address.
const Broadcast Addr = 0xffffffff

// AddrFrom builds an address from dotted-quad components.
func AddrFrom(a, b, c, d byte) Addr {
	return Addr(uint32(a)<<24 | uint32(b)<<16 | uint32(c)<<8 | uint32(d))
}

// HostAddr returns the conventional simulation address 10.0.0.n.
func HostAddr(n byte) Addr { return AddrFrom(10, 0, 0, n) }

// MaxStationID is the largest station identifier representable inside
// the 10.0.0.0/8 simulation network (24 host bits, minus the network
// and broadcast conventions).
const MaxStationID = 1<<24 - 2

// StationAddr returns the simulation address of station id inside
// 10.0.0.0/8: for ids below 256 it coincides with HostAddr(id); larger
// ids spill into the higher host octets (station 256 is 10.0.1.0), so
// addresses stay unique for up to 2^24-2 stations. Ids outside (0,
// MaxStationID] panic: a colliding address would silently cross-deliver
// traffic between stations.
func StationAddr(id uint32) Addr {
	if id == 0 || id > MaxStationID {
		panic(fmt.Sprintf("network: station id %d outside 10/8 host space", id))
	}
	return Addr(10<<24 | id)
}

// StationID inverts StationAddr: it extracts the station id from a 10/8
// simulation address, reporting false for addresses outside the
// convention. Both StationAddr and frame.AddrFromID are pure functions
// of the id, which is what lets a computed neighbor resolver
// (Stack.SetResolver) replace per-station ARP tables entirely.
func StationID(a Addr) (uint32, bool) {
	if uint32(a)>>24 != 10 {
		return 0, false
	}
	id := uint32(a) & (1<<24 - 1)
	if id == 0 || id > MaxStationID {
		return 0, false
	}
	return id, true
}

// String renders the address in dotted-quad notation.
func (a Addr) String() string {
	var buf [15]byte
	return string(a.AppendTo(buf[:0]))
}

// AppendTo appends the address in String's dotted-quad notation to b
// and returns the extended slice. Stream names are formatted with it
// into a stack buffer, without allocating.
func (a Addr) AppendTo(b []byte) []byte {
	for shift := 24; shift >= 0; shift -= 8 {
		if shift < 24 {
			b = append(b, '.')
		}
		b = strconv.AppendUint(b, uint64(byte(a>>shift)), 10)
	}
	return b
}

// Protocol identifies the payload's transport protocol, using the IANA
// numbers.
type Protocol uint8

// Transport protocols carried by this stack.
const (
	ProtoTCP Protocol = 6
	ProtoUDP Protocol = 17
	// ProtoRouting carries route control-plane traffic (DSDV
	// advertisements). 253 is an RFC 3692 experimentation number —
	// DSDV never received an IANA assignment.
	ProtoRouting Protocol = 253
)

// HeaderBytes is the network header size: the same 20 bytes as IPv4,
// which the paper's throughput model charges per packet.
const HeaderBytes = 20

// DefaultTTL is the initial hop budget of locally originated packets.
const DefaultTTL = 16

// Header is the network-layer header.
type Header struct {
	Src, Dst Addr
	Proto    Protocol
	TTL      uint8
	Length   uint16 // header + payload, bytes
}

// Common codec errors.
var (
	ErrShortPacket = errors.New("network: packet shorter than header")
	ErrBadChecksum = errors.New("network: header checksum mismatch")
	ErrBadLength   = errors.New("network: length field mismatch")
	ErrNoNeighbor  = errors.New("network: no link-layer mapping for next hop")
	ErrNoRoute     = errors.New("network: no route to destination")
	ErrTTLExceeded = errors.New("network: TTL exceeded")
)

// EncodeHeader marshals h into a 20-byte header prepended to a copy of
// payload.
func EncodeHeader(h Header, payload []byte) []byte {
	buf := make([]byte, HeaderBytes+len(payload))
	putHeader(buf, h)
	copy(buf[HeaderBytes:], payload)
	return buf
}

// putHeader marshals h into buf[:HeaderBytes], writing every header
// byte, so a reused buffer carries nothing of its previous contents.
func putHeader(buf []byte, h Header) {
	b := buf[:HeaderBytes]
	b[0] = 0x45 // version 4, IHL 5 — fixed, for the looks of a pcap
	b[1] = 0
	binary.BigEndian.PutUint16(b[2:4], h.Length)
	clear(b[4:8])
	b[8] = h.TTL
	b[9] = byte(h.Proto)
	binary.BigEndian.PutUint32(b[12:16], uint32(h.Src))
	binary.BigEndian.PutUint32(b[16:20], uint32(h.Dst))
	binary.BigEndian.PutUint16(b[10:12], checksum(b))
}

// DecodeHeader unmarshals a packet, returning the header and payload.
func DecodeHeader(pkt []byte) (Header, []byte, error) {
	if len(pkt) < HeaderBytes {
		return Header{}, nil, ErrShortPacket
	}
	want := binary.BigEndian.Uint16(pkt[10:12])
	if checksum(pkt[:HeaderBytes]) != want {
		return Header{}, nil, ErrBadChecksum
	}
	h := Header{
		Src:    Addr(binary.BigEndian.Uint32(pkt[12:16])),
		Dst:    Addr(binary.BigEndian.Uint32(pkt[16:20])),
		Proto:  Protocol(pkt[9]),
		TTL:    pkt[8],
		Length: binary.BigEndian.Uint16(pkt[2:4]),
	}
	if int(h.Length) != len(pkt) {
		return Header{}, nil, ErrBadLength
	}
	return h, pkt[HeaderBytes:], nil
}

// checksum is the RFC 1071 ones-complement sum over the header with the
// checksum field zeroed.
func checksum(b []byte) uint16 {
	var sum uint32
	for i := 0; i+1 < len(b); i += 2 {
		if i == 10 {
			continue // checksum field treated as zero
		}
		sum += uint32(binary.BigEndian.Uint16(b[i : i+2]))
	}
	for sum>>16 != 0 {
		sum = sum&0xffff + sum>>16
	}
	return ^uint16(sum)
}

// Handler receives demultiplexed transport payloads.
type Handler func(payload []byte, src, dst Addr)

// Stack is one station's network layer.
type Stack struct {
	addr Addr
	mac  *mac.MAC

	// neighbors (IP → MAC of directly reachable stations), routes
	// (destination → next hop, for multi-hop) and rxHops are made on
	// their first write: most stations of a large field never hold an
	// entry, and reading, ranging over or clearing a nil map is a no-op.
	neighbors map[Addr]frame.Addr
	routes    map[Addr]Addr
	handlers  []protoHandler // at most one per protocol, in registration order
	space     []func()       // transmit-queue space subscribers

	// handlerBuf and spaceBuf back handlers and space for a station's
	// construction-time wiring (UDP and TCP, TCP's subscription), so
	// building a stack does not grow either slice on the heap.
	handlerBuf [2]protoHandler
	spaceBuf   [1]func()

	// resolver, when set, computes IP→MAC mappings the static neighbor
	// table does not hold (SetResolver). The node builder installs one
	// closing over the station-id bijection, which keeps per-station
	// neighbor state O(1) instead of O(stations).
	resolver func(Addr) (frame.Addr, bool)

	// rxHops records, per source, how many MAC hops the most recently
	// delivered packet from that source traveled (derived from its TTL).
	rxHops map[Addr]uint8

	// frozenSpace is the length of space at FreezeSubscribers time: the
	// construction-time (transport) subscribers that survive Reset,
	// as opposed to per-run application sources registered later, which
	// touch the station (frozen is set).
	frozenSpace int
	frozen      bool

	Forwarding bool // enable packet forwarding (off by default)

	// RequireRoutes makes unicast sends fail with ErrNoRoute when the
	// destination has no entry in the route table, instead of falling
	// back to a direct link-layer transmission. Route control planes
	// (internal/routing) set it: under routing, the table — which then
	// covers direct neighbors too — is the single source of reachability
	// truth, and a destination the protocol has not (yet) resolved is
	// genuinely unreachable rather than worth an on-air shot in the
	// dark.
	RequireRoutes bool

	// Counters. Sent counts locally originated packets only (control
	// included); relayed packets count in Forwarded, never both.
	Sent, Received, Forwarded, Dropped uint64
}

// NewStack binds a network layer to a MAC. The MAC's delivery and
// queue-space callbacks are taken over by the stack; transports register
// through Stack.Handle and Stack.OnQueueSpace instead.
func NewStack(m *mac.MAC, addr Addr) *Stack {
	s := &Stack{addr: addr, mac: m}
	s.handlers, s.space = s.handlerBuf[:0], s.spaceBuf[:0]
	m.OnDeliver(s.receive)
	m.OnQueueSpace(func() {
		for _, fn := range s.space {
			fn()
		}
	})
	return s
}

// Addr returns the stack's own address.
func (s *Stack) Addr() Addr { return s.addr }

// MAC returns the underlying MAC (for counters in experiments).
func (s *Stack) MAC() *mac.MAC { return s.mac }

// AddNeighbor installs a static IP→MAC mapping (the testbed equivalent
// of a pre-populated ARP cache). Explicit entries take precedence over
// the computed resolver.
func (s *Stack) AddNeighbor(ip Addr, hw frame.Addr) {
	if s.neighbors == nil {
		s.neighbors = make(map[Addr]frame.Addr)
	}
	s.neighbors[ip] = hw
}

// SetResolver installs a computed neighbor resolver, consulted whenever
// the static neighbor table has no entry for a next hop. For networks
// whose link-layer addresses are a pure function of the IP — every
// node-built network, where both sides derive from the station id —
// this replaces n stations × n entries of warm ARP state with one
// closure, without changing a single resolution result (the node
// package's equivalence test pins that).
func (s *Stack) SetResolver(fn func(Addr) (frame.Addr, bool)) { s.resolver = fn }

// lookupNeighbor resolves an IP to its link-layer address: the static
// table first, then the computed resolver.
func (s *Stack) lookupNeighbor(ip Addr) (frame.Addr, bool) {
	if hw, ok := s.neighbors[ip]; ok {
		return hw, true
	}
	if s.resolver != nil {
		return s.resolver(ip)
	}
	return frame.Addr{}, false
}

// AddRoute installs a static route: packets for dst go via nextHop,
// which must itself be a neighbor.
func (s *Stack) AddRoute(dst, nextHop Addr) {
	if s.routes == nil {
		s.routes = make(map[Addr]Addr)
	}
	s.routes[dst] = nextHop
}

// DelRoute removes the route for dst, if any.
func (s *Stack) DelRoute(dst Addr) { delete(s.routes, dst) }

// ClearRoutes empties the route table. Route compilers call it before
// (re-)installing a topology's routes on a reused stack.
func (s *Stack) ClearRoutes() { clear(s.routes) }

// NextHop returns the installed next hop for dst, if a route exists.
func (s *Stack) NextHop(dst Addr) (Addr, bool) {
	via, ok := s.routes[dst]
	return via, ok
}

// Routes returns the number of installed routes.
func (s *Stack) Routes() int { return len(s.routes) }

// HopsFrom reports how many MAC hops the most recently delivered packet
// from src traveled to reach this stack (1 = direct link), or 0 when
// nothing from src has been delivered this run. This is a data-path
// measurement — derived from the received TTL — not a routing-table
// lookup, so it reports the hops actually taken.
func (s *Stack) HopsFrom(src Addr) int { return int(s.rxHops[src]) }

// protoHandler binds a transport protocol to its receiver.
type protoHandler struct {
	proto Protocol
	h     Handler
}

// Handle registers the receiver for a transport protocol, replacing any
// receiver registered for it before.
func (s *Stack) Handle(p Protocol, h Handler) {
	for i := range s.handlers {
		if s.handlers[i].proto == p {
			s.handlers[i].h = h
			return
		}
	}
	s.handlers = append(s.handlers, protoHandler{p, h})
}

// handler returns the receiver registered for p, or nil. A station
// registers two or three protocols, so a scan beats a map.
func (s *Stack) handler(p Protocol) Handler {
	for _, ph := range s.handlers {
		if ph.proto == p {
			return ph.h
		}
	}
	return nil
}

// OnQueueSpace subscribes to transmit-queue space notifications, used by
// transports for backpressure.
func (s *Stack) OnQueueSpace(fn func()) {
	if s.frozen {
		s.Touch()
	}
	s.space = append(s.space, fn)
}

// Touch marks the station's state changed since the last Reset
// (mac.MAC.Touch). The stack touches where it can be written from
// above — a send, a per-run subscriber; what it receives comes up
// through a radio that touched already. Transports touch through it.
func (s *Stack) Touch() { s.mac.Touch() }

// FreezeSubscribers marks the current queue-space subscriber set as the
// stack's permanent baseline. The station builder calls it once, after
// wiring the transports: subscribers registered later belong to one
// run's application sources (saturating CBR refills and the like), and
// Reset truncates back to the frozen baseline so a reused network does
// not accumulate — or wrongly re-trigger — the previous run's sources.
func (s *Stack) FreezeSubscribers() {
	s.frozenSpace = len(s.space)
	s.frozen = true
}

// Reset clears the stack's per-run state for arena reuse: counters
// zero and queue-space subscribers truncated to the FreezeSubscribers
// baseline. The neighbor table, routes and protocol handlers are
// construction-time wiring and survive.
func (s *Stack) Reset() {
	for i := s.frozenSpace; i < len(s.space); i++ {
		s.space[i] = nil
	}
	s.space = s.space[:s.frozenSpace]
	clear(s.rxHops)
	s.Sent, s.Received, s.Forwarded, s.Dropped = 0, 0, 0, 0
}

// QueueFree reports how many MSDUs the MAC queue can still take.
func (s *Stack) QueueFree() int { return s.mac.QueueCap() - s.mac.QueueLen() }

// Send transmits a transport payload to dst. Broadcast packets map to
// link-layer broadcast; unicast packets resolve dst (or its route's next
// hop) through the neighbor table. The payload is copied behind a fresh
// header; a transport that builds its packets with HeaderBytes of
// headroom calls SendPacket instead and skips the copy.
func (s *Stack) Send(p Protocol, payload []byte, dst Addr) error {
	pkt := make([]byte, HeaderBytes+len(payload))
	copy(pkt[HeaderBytes:], payload)
	return s.SendPacket(p, pkt, dst)
}

// SendPacket transmits the transport payload pkt[HeaderBytes:] to dst,
// like Send, but writes the network header in place into
// pkt[:HeaderBytes]: an originated packet is built once, in one buffer.
// The stack keeps pkt — the MAC queues it and every receiver of the
// frame shares its bytes — so the caller must not write to it again.
func (s *Stack) SendPacket(p Protocol, pkt []byte, dst Addr) error {
	if len(pkt) < HeaderBytes {
		panic(fmt.Sprintf("network: SendPacket of %d bytes, below the %d-byte header", len(pkt), HeaderBytes))
	}
	s.Touch()
	hw, err := s.linkDst(dst)
	if err != nil {
		return err
	}
	putHeader(pkt, Header{
		Src:    s.addr,
		Dst:    dst,
		Proto:  p,
		TTL:    DefaultTTL,
		Length: uint16(len(pkt)),
	})
	if err := s.queue(pkt, hw); err != nil {
		return err
	}
	s.Sent++
	return nil
}

// linkDst resolves the link-layer destination of a routed packet to
// dst: link broadcast for Broadcast, otherwise the neighbor entry of
// dst's route next hop (or of dst itself when unrouted). A failure
// counts a drop.
func (s *Stack) linkDst(dst Addr) (frame.Addr, error) {
	if dst == Broadcast {
		return frame.Broadcast, nil
	}
	next := dst
	if via, ok := s.routes[dst]; ok {
		next = via
	} else if s.RequireRoutes {
		s.Dropped++
		return frame.Addr{}, fmt.Errorf("%w: %v", ErrNoRoute, dst)
	}
	hw, ok := s.lookupNeighbor(next)
	if !ok {
		s.Dropped++
		return frame.Addr{}, fmt.Errorf("%w: %v", ErrNoNeighbor, next)
	}
	return hw, nil
}

// queue hands an encoded packet to the MAC, counting a drop on refusal.
func (s *Stack) queue(pkt []byte, hw frame.Addr) error {
	if err := s.mac.Send(pkt, hw); err != nil {
		s.Dropped++
		return fmt.Errorf("network: %w", err)
	}
	return nil
}

// SendControl transmits a control-plane payload pinned to the given PHY
// rate (see mac.SendControl). Unlike Send it never consults the route
// table: control planes address their link neighbors directly — that is
// how routes get bootstrapped in the first place — and their frames ride
// a basic rate every station can decode.
func (s *Stack) SendControl(p Protocol, payload []byte, dst Addr, rate phy.Rate) error {
	s.Touch()
	h := Header{
		Src:    s.addr,
		Dst:    dst,
		Proto:  p,
		TTL:    1, // control frames are link-local, never forwarded
		Length: uint16(HeaderBytes + len(payload)),
	}
	hw := frame.Broadcast
	if dst != Broadcast {
		var ok bool
		if hw, ok = s.lookupNeighbor(dst); !ok {
			s.Dropped++
			return fmt.Errorf("%w: %v", ErrNoNeighbor, dst)
		}
	}
	if err := s.mac.SendControl(EncodeHeader(h, payload), hw, rate); err != nil {
		s.Dropped++
		return fmt.Errorf("network: %w", err)
	}
	s.Sent++
	return nil
}

// receive handles an MSDU delivered by the MAC.
func (s *Stack) receive(msdu []byte, from frame.Addr) {
	h, payload, err := DecodeHeader(msdu)
	if err != nil {
		s.Dropped++
		return
	}
	if h.Dst == s.addr || h.Dst == Broadcast {
		s.Received++
		if h.Dst == s.addr && s.Forwarding && h.Proto != ProtoRouting {
			// TTL arithmetic over the locally-originated budget gives the
			// hop count the packet actually traveled. Gated on Forwarding
			// so single-hop scenarios (where the answer is always 1) pay
			// no per-packet map write; route control frames are excluded
			// because they originate with a link-local TTL, not
			// DefaultTTL, and would corrupt the arithmetic.
			if s.rxHops == nil {
				s.rxHops = make(map[Addr]uint8)
			}
			s.rxHops[h.Src] = DefaultTTL - h.TTL + 1
		}
		if fn := s.handler(h.Proto); fn != nil {
			fn(payload, h.Src, h.Dst)
		}
		return
	}
	if !s.Forwarding {
		s.Dropped++
		return
	}
	if h.TTL <= 1 {
		s.Dropped++
		return
	}
	h.TTL--
	hw, err := s.linkDst(h.Dst)
	if err != nil {
		return
	}
	// A forwarded packet is re-encoded into a buffer of its own: the
	// received bytes are shared by every station that heard the frame,
	// so the new TTL and checksum must not be written into them.
	if s.queue(EncodeHeader(h, payload), hw) == nil {
		s.Forwarded++
	}
}
