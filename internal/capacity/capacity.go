// Package capacity implements the paper's analytical throughput model:
// Equations (1) and (2) of §3.1, which bound the application-level
// throughput of a single DCF session with and without RTS/CTS, using the
// protocol parameters of Table 1. The Table2 function regenerates the
// paper's Table 2.
package capacity

import (
	"time"

	"adhocsim/internal/phy"
)

// Transport-layer overhead presets added to each application packet
// before it reaches the MAC (Figure 1's encapsulation stack).
const (
	OverheadUDP = 8 + 20  // UDP + IP headers
	OverheadTCP = 20 + 20 // TCP + IP headers
)

// Model parameterizes Equations (1)/(2). The zero value is not useful;
// start from New.
type Model struct {
	// Rate is the NIC data rate for the data frame.
	Rate phy.Rate
	// PayloadBytes is m: application bytes per packet.
	PayloadBytes int
	// OverheadBytes is the transport+network header overhead carried in
	// the MAC payload (default OverheadUDP).
	OverheadBytes int
	// RTSCTS enables Equation (2)'s RTS/CTS exchange.
	RTSCTS bool
	// ControlRate is the basic rate for RTS/CTS/ACK; zero selects
	// phy.ControlRate(Rate), the highest basic rate ≤ the data rate.
	ControlRate phy.Rate
	// MeanBackoffSlots is the expected backoff per frame. The paper uses
	// CWmin/2 = 16; the DCF draws uniformly from [0, CWmin-1], whose mean
	// is 15.5. New defaults to 15.5 so the model matches the simulator;
	// PaperAssumptions switches to 16.
	MeanBackoffSlots float64
	// PropagationDelays is the number of τ terms charged per exchange
	// (default 2: data + ACK).
	PropagationDelays int
}

// New returns a model for one (rate, payload) point with the defaults
// used throughout this repository.
func New(rate phy.Rate, payloadBytes int, rtscts bool) Model {
	return Model{
		Rate:              rate,
		PayloadBytes:      payloadBytes,
		OverheadBytes:     OverheadUDP,
		RTSCTS:            rtscts,
		MeanBackoffSlots:  float64(phy.CWMin-1) / 2,
		PropagationDelays: 2,
	}
}

// PaperAssumptions returns the model with the paper's CWmin/2 backoff
// accounting, for side-by-side comparison with Table 2.
func (m Model) PaperAssumptions() Model {
	m.MeanBackoffSlots = phy.CWMin / 2
	return m
}

// WithOverhead returns the model with a different transport overhead.
func (m Model) WithOverhead(bytes int) Model {
	m.OverheadBytes = bytes
	return m
}

func (m Model) controlRate() phy.Rate {
	if m.ControlRate != 0 {
		return m.ControlRate
	}
	return phy.ControlRate(m.Rate)
}

// DataTime returns T_DATA: PLCP + MAC header/FCS + encapsulated payload
// at the data rate.
func (m Model) DataTime() time.Duration {
	return phy.DataTime(m.Rate, m.PayloadBytes+m.OverheadBytes)
}

// CycleTime returns the denominator of Equation (1) or (2): the total
// channel time consumed per delivered packet.
func (m Model) CycleTime() time.Duration {
	ctrl := m.controlRate()
	cycle := phy.DIFS + m.DataTime() + phy.SIFS + phy.ACKTime(ctrl)
	cycle += time.Duration(m.MeanBackoffSlots * float64(phy.SlotTime))
	cycle += time.Duration(m.PropagationDelays) * phy.PropDelay
	if m.RTSCTS {
		cycle += phy.RTSTime(ctrl) + phy.CTSTime(ctrl) + 2*phy.SIFS + 2*phy.PropDelay
	}
	return cycle
}

// ThroughputMbps returns the maximum expected application-level
// throughput in Mbit/s: Equation (1) without RTS/CTS, Equation (2)
// with it.
func (m Model) ThroughputMbps() float64 {
	payloadBits := float64(8 * m.PayloadBytes)
	return payloadBits / (float64(m.CycleTime()) / float64(time.Microsecond)) // bits/µs == Mbit/s
}

// Utilization returns throughput as a fraction of the nominal rate —
// the paper's "only a fraction of the 11 Mbps nominal bandwidth"
// observation (< 44 % even at m=1024).
func (m Model) Utilization() float64 {
	return m.ThroughputMbps() / m.Rate.Mbps()
}

// Table2Row is one cell group of the paper's Table 2: a (rate, payload)
// point with and without RTS/CTS.
type Table2Row struct {
	Rate         phy.Rate
	PayloadBytes int
	NoRTS        float64 // Mbit/s, Equation (1)
	RTS          float64 // Mbit/s, Equation (2)
}

// Table2 regenerates the paper's Table 2: maximum throughput at each
// data rate for 512- and 1024-byte application packets. Rows are ordered
// as in the paper (rate descending, both payload sizes).
func Table2(payloads ...int) []Table2Row {
	if len(payloads) == 0 {
		payloads = []int{512, 1024}
	}
	var rows []Table2Row
	for i := len(phy.Rates) - 1; i >= 0; i-- {
		for _, m := range payloads {
			rows = append(rows, Table2Row{
				Rate:         phy.Rates[i],
				PayloadBytes: m,
				NoRTS:        New(phy.Rates[i], m, false).ThroughputMbps(),
				RTS:          New(phy.Rates[i], m, true).ThroughputMbps(),
			})
		}
	}
	return rows
}

// PaperTable2 returns the values printed in the paper's Table 2, for
// comparison in tests, benches, and DESIGN.md ("Table 2 against the
// model").
func PaperTable2() map[phy.Rate]map[int][2]float64 {
	return map[phy.Rate]map[int][2]float64{
		phy.Rate11:  {512: {3.06, 2.549}, 1024: {4.788, 4.139}},
		phy.Rate5_5: {512: {2.366, 2.049}, 1024: {3.308, 2.985}},
		phy.Rate2:   {512: {1.319, 1.214}, 1024: {1.589, 1.511}},
		phy.Rate1:   {512: {0.758, 0.738}, 1024: {0.862, 0.839}},
	}
}
