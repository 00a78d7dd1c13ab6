// Package frame defines IEEE 802.11 MAC frames: the control and data
// frame types the DCF exchanges (DATA, ACK, RTS, CTS, BEACON), their
// on-air sizes using the paper's Table 1 accounting, and a byte-level
// wire codec with a CRC-32 frame check sequence.
//
// The simulator passes *Frame values through the medium directly (no
// serialization on the hot path); the codec exists for traces, for
// property tests, and because a credible 802.11 implementation must be
// able to marshal its frames.
package frame

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"time"

	"adhocsim/internal/phy"
)

// Type identifies the MAC frame type.
type Type uint8

// MAC frame types used by the DCF.
const (
	TypeData Type = iota + 1
	TypeACK
	TypeRTS
	TypeCTS
	TypeBeacon
)

// String names the frame type.
func (t Type) String() string {
	switch t {
	case TypeData:
		return "DATA"
	case TypeACK:
		return "ACK"
	case TypeRTS:
		return "RTS"
	case TypeCTS:
		return "CTS"
	case TypeBeacon:
		return "BEACON"
	}
	return fmt.Sprintf("Type(%d)", uint8(t))
}

// Addr is a 48-bit MAC address.
type Addr [6]byte

// Broadcast is the all-ones broadcast address.
var Broadcast = Addr{0xff, 0xff, 0xff, 0xff, 0xff, 0xff}

// AddrFromID returns a locally-administered unicast address derived from
// a small station identifier, convenient for simulations.
func AddrFromID(id uint32) Addr {
	var a Addr
	a[0] = 0x02 // locally administered, unicast
	a[1] = 0x11
	binary.BigEndian.PutUint32(a[2:], id)
	return a
}

// IDFromAddr inverts AddrFromID, reporting false for addresses outside
// that convention (broadcast among them).
func IDFromAddr(a Addr) (uint32, bool) {
	if a[0] != 0x02 || a[1] != 0x11 {
		return 0, false
	}
	return binary.BigEndian.Uint32(a[2:]), true
}

// IsBroadcast reports whether a is the broadcast address.
func (a Addr) IsBroadcast() bool { return a == Broadcast }

// IsGroup reports whether a is a group (multicast or broadcast) address.
func (a Addr) IsGroup() bool { return a[0]&1 == 1 }

// String renders the address in colon-hex notation.
func (a Addr) String() string {
	var buf [17]byte
	return string(a.AppendTo(buf[:0]))
}

// AppendTo appends the address in String's colon-hex notation to b and
// returns the extended slice. Stream names are formatted with it into a
// stack buffer, without allocating.
func (a Addr) AppendTo(b []byte) []byte {
	const hex = "0123456789abcdef"
	for i, v := range a {
		if i > 0 {
			b = append(b, ':')
		}
		b = append(b, hex[v>>4], hex[v&0xf])
	}
	return b
}

// Frame is one MAC frame. Control frames (ACK, CTS) carry only Addr1;
// RTS carries Addr1 and Addr2; data and beacon frames carry all three
// addresses plus a sequence number and payload.
type Frame struct {
	Type     Type
	Retry    bool          // retransmission flag
	Duration time.Duration // NAV duration announced to third parties
	Addr1    Addr          // receiver address
	Addr2    Addr          // transmitter address (not in ACK/CTS)
	Addr3    Addr          // BSSID (data/beacon only)
	Seq      uint16        // sequence number (data/beacon only)
	Payload  []byte        // MSDU (data/beacon only)
}

// PSDUBits returns the number of bits of this frame as transmitted on
// air, excluding the PLCP preamble/header, using the paper's Table 1
// accounting (data header+FCS = 272 bits, ACK/CTS = 112, RTS = 160).
func (f *Frame) PSDUBits() int {
	switch f.Type {
	case TypeData, TypeBeacon:
		return phy.MACHeaderBits + 8*len(f.Payload)
	case TypeACK:
		return phy.ACKBits
	case TypeRTS:
		return phy.RTSBits
	case TypeCTS:
		return phy.CTSBits
	}
	panic(fmt.Sprintf("frame: PSDUBits on invalid type %d", f.Type))
}

// AirTime returns the full transmission time of the frame at rate r,
// including the PLCP preamble and header.
func (f *Frame) AirTime(r phy.Rate) time.Duration {
	return phy.PLCPTime + r.Airtime(f.PSDUBits())
}

// NeedsACK reports whether the frame solicits a MAC-level ACK: unicast
// data frames do; control, beacon, and group-addressed frames do not.
func (f *Frame) NeedsACK() bool {
	return f.Type == TypeData && !f.Addr1.IsGroup()
}

// Clone returns a deep copy of the frame (payload included) so that
// retransmissions can mutate flags without aliasing delivered frames.
func (f *Frame) Clone() *Frame {
	g := *f
	if f.Payload != nil {
		g.Payload = append([]byte(nil), f.Payload...)
	}
	return &g
}

// String renders the frame for traces and test failures.
func (f *Frame) String() string {
	switch f.Type {
	case TypeACK, TypeCTS:
		return fmt.Sprintf("%s ra=%s dur=%v", f.Type, f.Addr1, f.Duration)
	case TypeRTS:
		return fmt.Sprintf("%s ra=%s ta=%s dur=%v", f.Type, f.Addr1, f.Addr2, f.Duration)
	default:
		return fmt.Sprintf("%s %s->%s seq=%d len=%d dur=%v retry=%t",
			f.Type, f.Addr2, f.Addr1, f.Seq, len(f.Payload), f.Duration, f.Retry)
	}
}

// Wire format:
//
//	frameControl(2) duration(2) addr1(6) [addr2(6) [addr3(6) seq(2)]] payload FCS(4)
//
// frameControl packs the type in the low nibble and the retry bit at
// bit 4. duration is in microseconds, saturating at 2^16-1 like the real
// field.

const (
	fcRetry     = 1 << 4
	maxDuration = time.Duration(1<<16-1) * time.Microsecond
)

var (
	// ErrShortFrame is returned when decoding a buffer too small to be a
	// valid frame of its type.
	ErrShortFrame = errors.New("frame: buffer too short")
	// ErrBadFCS is returned when the frame check sequence does not match.
	ErrBadFCS = errors.New("frame: FCS mismatch")
	// ErrBadType is returned for an unknown frame type.
	ErrBadType = errors.New("frame: unknown type")
)

// Encode marshals the frame to wire format with a trailing CRC-32 FCS.
func Encode(f *Frame) []byte {
	d := f.Duration
	if d < 0 {
		d = 0
	}
	if d > maxDuration {
		d = maxDuration
	}
	fc := byte(f.Type)
	if f.Retry {
		fc |= fcRetry
	}
	buf := make([]byte, 0, 22+len(f.Payload)+4)
	buf = append(buf, fc, 0)
	buf = binary.BigEndian.AppendUint16(buf, uint16(d/time.Microsecond))
	buf = append(buf, f.Addr1[:]...)
	switch f.Type {
	case TypeRTS:
		buf = append(buf, f.Addr2[:]...)
	case TypeData, TypeBeacon:
		buf = append(buf, f.Addr2[:]...)
		buf = append(buf, f.Addr3[:]...)
		buf = binary.BigEndian.AppendUint16(buf, f.Seq)
		buf = append(buf, f.Payload...)
	}
	return binary.BigEndian.AppendUint32(buf, crc32.ChecksumIEEE(buf))
}

// Decode unmarshals a wire-format frame, verifying the FCS.
func Decode(buf []byte) (*Frame, error) {
	if len(buf) < 14 { // fc+dur+addr1+fcs
		return nil, ErrShortFrame
	}
	body, fcs := buf[:len(buf)-4], binary.BigEndian.Uint32(buf[len(buf)-4:])
	if crc32.ChecksumIEEE(body) != fcs {
		return nil, ErrBadFCS
	}
	f := &Frame{
		Type:     Type(body[0] &^ fcRetry),
		Retry:    body[0]&fcRetry != 0,
		Duration: time.Duration(binary.BigEndian.Uint16(body[2:4])) * time.Microsecond,
	}
	copy(f.Addr1[:], body[4:10])
	rest := body[10:]
	switch f.Type {
	case TypeACK, TypeCTS:
		if len(rest) != 0 {
			return nil, ErrShortFrame
		}
	case TypeRTS:
		if len(rest) != 6 {
			return nil, ErrShortFrame
		}
		copy(f.Addr2[:], rest)
	case TypeData, TypeBeacon:
		if len(rest) < 14 {
			return nil, ErrShortFrame
		}
		copy(f.Addr2[:], rest[:6])
		copy(f.Addr3[:], rest[6:12])
		f.Seq = binary.BigEndian.Uint16(rest[12:14])
		if p := rest[14:]; len(p) > 0 {
			f.Payload = append([]byte(nil), p...)
		}
	default:
		return nil, ErrBadType
	}
	return f, nil
}
