package transport

import "adhocsim/internal/network"

// Test-only exports of the unexported segment codec so external tests
// can property-test it without widening the public API.

// EncodeSegmentForTest marshals a segment from raw fields.
func EncodeSegmentForTest(srcPort, dstPort uint16, seq, ack uint32, flags uint8, wnd uint16, payload []byte) []byte {
	return encodeSegment(&segment{
		srcPort: srcPort, dstPort: dstPort,
		seq: seq, ack: ack, flags: flags, wnd: wnd, payload: payload,
	})[network.HeaderBytes:]
}

// DecodeSegmentForTest unmarshals a segment into raw fields.
func DecodeSegmentForTest(b []byte) (srcPort, dstPort uint16, seq, ack uint32, flags uint8, wnd uint16, payload []byte, err error) {
	s, err := decodeSegment(b)
	if err != nil {
		return 0, 0, 0, 0, 0, 0, nil, err
	}
	return s.srcPort, s.dstPort, s.seq, s.ack, s.flags, s.wnd, s.payload, nil
}

// SetDebugSeg installs a per-segment trace hook for tests.
func SetDebugSeg(fn func(who network.Addr, dir string, seq, ack uint32, flags uint8, plen int)) {
	if fn == nil {
		debugSeg = nil
		return
	}
	debugSeg = func(who network.Addr, dir string, s *segment, _ string) {
		fn(who, dir, s.seq, s.ack, s.flags, len(s.payload))
	}
}
