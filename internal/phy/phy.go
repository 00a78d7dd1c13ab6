// Package phy models the IEEE 802.11b DSSS physical layer: transmission
// rates, PLCP framing overhead, frame airtime, and the radio channel
// (path loss, time-varying shadowing, receiver sensitivity).
//
// All timing constants come from Table 1 of Anastasi et al., "IEEE 802.11
// Ad Hoc Networks: Performance Measurements" (ICDCSW'03); the default
// radio profile is calibrated so that the median transmission ranges per
// rate match Table 3 of the paper.
package phy

import (
	"fmt"
	"time"
)

// Rate is an 802.11b transmission rate in units of 100 kbit/s. The unit
// is chosen so that 5.5 Mbit/s is exactly representable.
type Rate int

// The four 802.11b DSSS rates.
const (
	Rate1   Rate = 10  // 1 Mbit/s (DBPSK)
	Rate2   Rate = 20  // 2 Mbit/s (DQPSK)
	Rate5_5 Rate = 55  // 5.5 Mbit/s (CCK)
	Rate11  Rate = 110 // 11 Mbit/s (CCK)
)

// Rates lists all 802.11b rates in increasing order.
var Rates = []Rate{Rate1, Rate2, Rate5_5, Rate11}

// BasicRates is the default basic rate set of an 802.11b IBSS: the rates
// every station must be able to receive. Control frames (RTS, CTS, ACK)
// and broadcast frames must be transmitted at one of these rates (§2 of
// the paper).
var BasicRates = []Rate{Rate1, Rate2}

// Valid reports whether r is one of the four 802.11b rates.
func (r Rate) Valid() bool {
	switch r {
	case Rate1, Rate2, Rate5_5, Rate11:
		return true
	}
	return false
}

// Mbps returns the rate in Mbit/s.
func (r Rate) Mbps() float64 { return float64(r) / 10 }

// RateFromMbps returns the 802.11b rate of mbps Mbit/s; ok is false
// when mbps is none of 1, 2, 5.5 and 11.
func RateFromMbps(mbps float64) (r Rate, ok bool) {
	switch mbps {
	case 1:
		return Rate1, true
	case 2:
		return Rate2, true
	case 5.5:
		return Rate5_5, true
	case 11:
		return Rate11, true
	}
	return 0, false
}

// BitsPerSecond returns the rate in bit/s.
func (r Rate) BitsPerSecond() int64 { return int64(r) * 100_000 }

// Index returns a dense index 0..3 for array-backed per-rate tables.
func (r Rate) Index() int {
	switch r {
	case Rate1:
		return 0
	case Rate2:
		return 1
	case Rate5_5:
		return 2
	case Rate11:
		return 3
	}
	panic(fmt.Sprintf("phy: invalid rate %d", int(r)))
}

// String names the rate ("11Mbps", ...).
func (r Rate) String() string {
	switch r {
	case Rate1:
		return "1Mbps"
	case Rate2:
		return "2Mbps"
	case Rate5_5:
		return "5.5Mbps"
	case Rate11:
		return "11Mbps"
	}
	return fmt.Sprintf("Rate(%d)", int(r))
}

// Airtime returns the time to transmit bits payload bits at rate r,
// rounded to the nearest nanosecond. It does not include PLCP overhead.
func (r Rate) Airtime(bits int) time.Duration {
	if bits < 0 {
		panic("phy: negative bit count")
	}
	// ns = bits * 1e9 / (r * 1e5) = bits * 1e4 / r, rounded.
	return time.Duration((int64(bits)*10_000 + int64(r)/2) / int64(r))
}

// ControlRate returns the rate used for control responses (CTS, ACK) to a
// frame received at rate r: the highest basic rate not exceeding r.
func ControlRate(r Rate) Rate {
	best := BasicRates[0]
	for _, b := range BasicRates {
		if b <= r && b > best {
			best = b
		}
	}
	return best
}

// IEEE 802.11b MAC/PHY timing parameters (Table 1 of the paper).
const (
	SlotTime  = 20 * time.Microsecond // aSlotTime
	SIFS      = 10 * time.Microsecond // aSIFSTime
	DIFS      = 50 * time.Microsecond // SIFS + 2*SlotTime
	PropDelay = 1 * time.Microsecond  // τ, one-way propagation bound

	// Long PLCP: 144-bit preamble + 48-bit header, both at 1 Mbit/s.
	PLCPPreambleBits = 144
	PLCPHeaderBits   = 48
	PLCPBits         = PLCPPreambleBits + PLCPHeaderBits // 192 bits = 9.6 slots

	// MAC overheads in bits (paper's Table 1; the 272-bit data header
	// counts the 4-address format plus the 32-bit FCS).
	MACHeaderBits = 272 // data frame MAC header + FCS
	ACKBits       = 112 // ACK frame including FCS
	RTSBits       = 160 // RTS frame including FCS
	CTSBits       = 112 // CTS frame including FCS

	// Contention window bounds, in slots (paper's Table 1).
	CWMin = 32
	CWMax = 1024
)

// PLCPTime is the duration of the long PLCP preamble + header (always
// transmitted at 1 Mbit/s): 192 µs.
const PLCPTime = 192 * time.Microsecond

// ACKTime returns the airtime of a MAC ACK at rate r, including PLCP.
func ACKTime(r Rate) time.Duration { return PLCPTime + r.Airtime(ACKBits) }

// RTSTime returns the airtime of an RTS at rate r, including PLCP.
func RTSTime(r Rate) time.Duration { return PLCPTime + r.Airtime(RTSBits) }

// CTSTime returns the airtime of a CTS at rate r, including PLCP.
func CTSTime(r Rate) time.Duration { return PLCPTime + r.Airtime(CTSBits) }

// DataTime returns the airtime of a MAC data frame carrying payloadBytes
// of MSDU payload at rate r, including PLCP and the 272-bit MAC
// header+FCS.
func DataTime(r Rate, payloadBytes int) time.Duration {
	return PLCPTime + r.Airtime(MACHeaderBits+8*payloadBytes)
}

// EIFS returns the extended interframe space: the deferral used after the
// PHY reports a reception error. Per the standard it spans SIFS + the
// time to transmit an ACK at the lowest basic rate + DIFS, so that the
// (unheard) ACK of the corrupted exchange is protected. The MAC asks
// for it on every idle edge after an error, so it is computed once.
func EIFS() time.Duration { return eifs }

var eifs = SIFS + ACKTime(BasicRates[0]) + DIFS
