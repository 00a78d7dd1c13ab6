// Package experiments contains one runner per table and figure of the
// paper's evaluation, built on the full simulated stack. Each runner is
// deterministic given its seed; the cmd/adhocsim tool and the root-level
// benchmarks print their outputs in the paper's layout.
//
// Since the scenario-engine refactor the TwoNode and FourNode runners
// are thin presets: each compiles to a scenario.Spec (see the Spec
// methods) and runs through scenario.Run. Golden tests pin their outputs
// bit-for-bit to the pre-refactor hand-rolled implementations.
package experiments

import (
	"time"

	"adhocsim/internal/capacity"
	"adhocsim/internal/phy"
	"adhocsim/internal/scenario"
)

// Transport selects the workload of a session: CBR/UDP or ftp/TCP, the
// paper's two traffic types.
type Transport int

// Workload transports.
const (
	UDP Transport = iota
	TCP
)

// String names the transport.
func (t Transport) String() string {
	if t == TCP {
		return "TCP"
	}
	return "UDP"
}

// scenarioTransport maps the experiment transport onto the scenario
// layer's name.
func (t Transport) scenarioTransport() scenario.Transport {
	if t == TCP {
		return scenario.TransportTCP
	}
	return scenario.TransportUDP
}

// TwoNode parameterizes the single-session experiments of §3.1
// (Figure 2) and the range sweeps of §3.2.
type TwoNode struct {
	Rate       phy.Rate
	Distance   float64 // meters
	Transport  Transport
	RTSCTS     bool
	PacketSize int           // application bytes (the paper uses 512)
	Duration   time.Duration // measurement horizon
	Seed       uint64
	Profile    *phy.Profile // nil selects phy.DefaultProfile
	// ARF enables dynamic rate switching (Automatic Rate Fallback) at
	// the sender; Rate is then only where the fallback starts.
	ARF bool
}

func (c TwoNode) withDefaults() TwoNode {
	if c.Rate == 0 {
		c.Rate = phy.Rate11
	}
	if c.Distance == 0 {
		c.Distance = 10
	}
	if c.PacketSize == 0 {
		c.PacketSize = 512
	}
	if c.Duration == 0 {
		c.Duration = 10 * time.Second
	}
	return c
}

// TwoNodeResult reports one single-session run next to its analytic
// bound.
type TwoNodeResult struct {
	MeasuredMbps float64 // application-level goodput
	IdealMbps    float64 // Equation (1)/(2) with matching parameters
	SentPackets  uint64
	RcvdPackets  uint64
	Retries      uint64
	Drops        uint64
}

// Spec compiles the experiment into the declarative scenario it always
// was: two stations on a line, one saturating flow. ARF is a per-station
// MAC override on the sender alone.
func (c TwoNode) Spec() scenario.Spec {
	c = c.withDefaults()
	spec := scenario.Spec{
		Name:          "paper-two-node",
		Description:   "§3.1 single saturating session between two stations",
		Seed:          c.Seed,
		Duration:      scenario.Duration(c.Duration),
		MSS:           c.PacketSize,
		CustomProfile: c.Profile,
		Topology:      scenario.Topology{Kind: scenario.KindLine, Spacings: []float64{c.Distance}},
		MAC:           scenario.MACParams{RateMbps: c.Rate.Mbps(), RTSCTS: c.RTSCTS},
		Flows: []scenario.Flow{{
			Src: 0, Dst: 1,
			Transport:  c.Transport.scenarioTransport(),
			PacketSize: c.PacketSize,
			Port:       9000,
		}},
	}
	if c.ARF {
		sender := spec.MAC
		sender.ARF = true
		spec.Stations = []scenario.StationOverride{{Station: 0, MAC: &sender}}
	}
	return spec
}

// RunTwoNode runs one saturating session between two stations
// cfg.Distance apart and reports goodput against the analytic maximum.
func RunTwoNode(cfg TwoNode) TwoNodeResult {
	cfg = cfg.withDefaults()
	flow := scenario.MustRun(cfg.Spec()).Flows[0]
	return TwoNodeResult{
		IdealMbps:    idealFor(cfg),
		MeasuredMbps: flow.GoodputMbps,
		SentPackets:  flow.AppSent,
		RcvdPackets:  flow.Received,
		Retries:      flow.Retries,
		Drops:        flow.TxDrops,
	}
}

// idealFor evaluates the analytic model with the run's parameters. TCP
// runs are still compared against Equation (1)/(2) — exactly what the
// paper's Figure 2 does ("ideal" vs "real TCP") — so the TCP bars sit
// visibly below their bound.
func idealFor(cfg TwoNode) float64 {
	m := capacity.New(cfg.Rate, cfg.PacketSize, cfg.RTSCTS)
	if cfg.Transport == TCP {
		m = m.WithOverhead(capacity.OverheadTCP)
	}
	return m.ThroughputMbps()
}

// FourNode parameterizes the two-session experiments of §3.3
// (Figures 5–12): S1 S2 S3 S4 on a line, session 1 = S1→S2, session 2 =
// S3→S4, or S4→S3 when Session2Reversed (the symmetric scenario of
// Figure 10).
type FourNode struct {
	Rate             phy.Rate
	D12, D23, D34    float64
	Transport        Transport
	RTSCTS           bool
	Session2Reversed bool
	PacketSize       int
	Duration         time.Duration
	Seed             uint64
	Profile          *phy.Profile
}

func (c FourNode) withDefaults() FourNode {
	if c.Rate == 0 {
		c.Rate = phy.Rate11
	}
	if c.PacketSize == 0 {
		c.PacketSize = 512
	}
	if c.Duration == 0 {
		c.Duration = 10 * time.Second
	}
	return c
}

// FourNodeResult reports both sessions' goodputs.
type FourNodeResult struct {
	Session1Kbps float64
	Session2Kbps float64
	// Fairness is Jain's index over the two sessions (1 = perfectly
	// balanced, 0.5 = one session starved).
	Fairness float64
	// EIFS deferrals at the two senders: the mechanism behind the
	// asymmetry (see DESIGN.md).
	EIFS1, EIFS2       uint64
	Retries1, Retries2 uint64
}

// RunFourNode runs the two concurrent sessions and reports per-session
// goodput in kbit/s, as the paper's Figures 7, 9, 11 and 12 do.
func RunFourNode(cfg FourNode) FourNodeResult {
	run := scenario.MustRun(cfg.Spec())
	f1, f2 := run.Flows[0], run.Flows[1]
	return FourNodeResult{
		Session1Kbps: f1.GoodputKbps,
		Session2Kbps: f2.GoodputKbps,
		Fairness:     run.Fairness,
		EIFS1:        f1.EIFSDeferrals,
		EIFS2:        f2.EIFSDeferrals,
		Retries1:     f1.Retries,
		Retries2:     f2.Retries,
	}
}

// Spec compiles the experiment into its declarative form: four stations
// on a line with the paper's hop distances, two concurrent flows.
func (c FourNode) Spec() scenario.Spec {
	c = c.withDefaults()
	session2 := scenario.Flow{
		Src: 2, Dst: 3,
		Transport:  c.Transport.scenarioTransport(),
		PacketSize: c.PacketSize,
		Port:       9000,
	}
	if c.Session2Reversed {
		session2.Src, session2.Dst = 3, 2
	}
	return scenario.Spec{
		Name:          "paper-four-node",
		Description:   "§3.3 two concurrent sessions on a four-station line",
		Seed:          c.Seed,
		Duration:      scenario.Duration(c.Duration),
		MSS:           c.PacketSize,
		CustomProfile: c.Profile,
		Topology: scenario.Topology{
			Kind:     scenario.KindLine,
			Spacings: []float64{c.D12, c.D23, c.D34},
		},
		MAC: scenario.MACParams{RateMbps: c.Rate.Mbps(), RTSCTS: c.RTSCTS},
		Flows: []scenario.Flow{
			{
				Src: 0, Dst: 1,
				Transport:  c.Transport.scenarioTransport(),
				PacketSize: c.PacketSize,
				Port:       9000,
			},
			session2,
		},
	}
}
