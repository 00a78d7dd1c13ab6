// Package adhocsim is a discrete-event simulator of IEEE 802.11b ad hoc
// (IBSS) networks, built to reproduce the measurement study of Anastasi,
// Borgia, Conti and Gregori, "IEEE 802.11 Ad Hoc Networks: Performance
// Measurements" (ICDCS Workshops 2003).
//
// The library implements the full stack the paper's testbed exercised:
// an 802.11b PHY with calibrated outdoor propagation and time-varying
// shadowing, the DCF MAC (CSMA/CA, NAV, RTS/CTS, EIFS, retransmissions),
// an IPv4-like network layer, UDP and TCP Reno transports, and the
// paper's CBR and ftp workloads — plus the paper's analytic capacity
// model (Equations (1) and (2)) and one experiment runner per table and
// figure of its evaluation.
//
// # Quick start
//
//	net := adhocsim.NewNetwork(1)
//	a := net.AddStation(adhocsim.Pos(0, 0), adhocsim.MACConfig{DataRate: adhocsim.Rate11})
//	b := net.AddStation(adhocsim.Pos(20, 0), adhocsim.MACConfig{DataRate: adhocsim.Rate11})
//
//	var sink adhocsim.UDPSink
//	sink.ListenUDP(b, 9000)
//	adhocsim.NewCBR(net, a, b.Addr(), 9000, 512, 0).Start()
//	net.Run(10 * time.Second)
//	fmt.Printf("%.2f Mbit/s\n", sink.ThroughputMbps(10*time.Second))
//
// See the examples directory for runnable versions of the paper's
// scenarios, cmd/adhocsim for the experiment CLI, and bench_test.go for
// the per-table/figure reproduction benches.
package adhocsim

import (
	"time"

	"adhocsim/internal/app"
	"adhocsim/internal/capacity"
	"adhocsim/internal/experiments"
	"adhocsim/internal/mac"
	"adhocsim/internal/network"
	"adhocsim/internal/node"
	"adhocsim/internal/phy"
	"adhocsim/internal/runner"
	"adhocsim/internal/scenario"
)

// PHY layer: rates, positions, radio profiles, weather.
type (
	// Rate is an 802.11b transmission rate.
	Rate = phy.Rate
	// Position is a station location in meters.
	Position = phy.Position
	// Profile is a radio + environment model.
	Profile = phy.Profile
	// Weather derives per-day channel variants (Figure 4).
	Weather = phy.Weather
)

// The four 802.11b rates.
const (
	Rate1   = phy.Rate1
	Rate2   = phy.Rate2
	Rate5_5 = phy.Rate5_5
	Rate11  = phy.Rate11
)

// Pos constructs a Position.
func Pos(x, y float64) Position { return phy.Pos(x, y) }

// DefaultProfile returns the radio profile calibrated to the paper's
// Table 3 transmission ranges.
func DefaultProfile() *Profile { return phy.DefaultProfile() }

// TestbedProfile returns DefaultProfile plus static per-link channel
// asymmetry, the model of the paper's four-station testbed conditions.
func TestbedProfile() *Profile { return phy.TestbedProfile() }

// Weather presets for the Figure 4 day-to-day comparison.
var (
	WeatherClear = phy.WeatherClear
	WeatherDamp  = phy.WeatherDamp
)

// MAC layer.
type (
	// MACConfig parameterizes a station's DCF MAC. Set ARF for the
	// dynamic rate switching of the paper's §2.
	MACConfig = mac.Config
)

// RTS threshold sentinels for MACConfig.RTSThreshold.
const (
	// RTSNever disables RTS/CTS (the paper's basic access mode).
	RTSNever = mac.RTSNever
	// RTSAlways protects every unicast data frame. Note the MACConfig
	// zero value means RTSNever; set RTSThreshold to 1 (or RTSAlways+1)
	// to protect all non-empty frames.
	RTSAlways = mac.RTSAlways
)

// Network composition.
type (
	// Network owns one simulation: scheduler, medium, stations.
	Network = node.Network
	// Station is one ad hoc node with its full protocol stack.
	Station = node.Station
	// NetworkOption configures NewNetwork.
	NetworkOption = node.Option
	// NetAddr is an IPv4-style network address.
	NetAddr = network.Addr
	// RandomWaypoint is the mobility model extension.
	RandomWaypoint = node.RandomWaypoint
	// LinkMonitor counts link breaks under mobility (§3.2's route
	// re-calculation discussion).
	LinkMonitor = node.LinkMonitor
)

// NewNetwork creates an empty, seeded network.
func NewNetwork(seed uint64, opts ...NetworkOption) *Network {
	return node.NewNetwork(seed, opts...)
}

// WithProfile overrides the radio profile of a network.
func WithProfile(p *Profile) NetworkOption { return node.WithProfile(p) }

// WithMSS sets the TCP maximum segment size.
func WithMSS(mss int) NetworkOption { return node.WithMSS(mss) }

// DefaultWaypoint returns a pedestrian random-waypoint mobility model.
func DefaultWaypoint() RandomWaypoint { return node.DefaultWaypoint() }

// Workloads and sinks.
type (
	// CBR is the paper's constant-bit-rate UDP source.
	CBR = app.CBR
	// UDPSink measures CBR delivery.
	UDPSink = app.UDPSink
	// Bulk is the paper's saturating ftp-like TCP source.
	Bulk = app.Bulk
	// TCPSink measures bulk TCP delivery.
	TCPSink = app.TCPSink
)

// NewCBR creates a CBR source; interval 0 selects the saturating regime.
func NewCBR(net *Network, from *Station, dst NetAddr, port uint16, size int, interval time.Duration) *CBR {
	return app.NewCBR(net, from, dst, port, size, interval)
}

// StartBulk starts a saturating TCP transfer.
func StartBulk(net *Network, from *Station, dst NetAddr, port uint16, size int) *Bulk {
	return app.StartBulk(net, from, dst, port, size)
}

// Analytic capacity model (Equations (1) and (2)).
type (
	// CapacityModel evaluates the paper's throughput bound.
	CapacityModel = capacity.Model
	// Table2Row is one row of the regenerated Table 2.
	Table2Row = capacity.Table2Row
)

// NewCapacityModel returns the analytic model for one configuration.
func NewCapacityModel(rate Rate, payloadBytes int, rtscts bool) CapacityModel {
	return capacity.New(rate, payloadBytes, rtscts)
}

// Table2 regenerates the paper's Table 2.
func Table2(payloads ...int) []Table2Row { return capacity.Table2(payloads...) }

// Experiment runners: one per table/figure of the paper.
type (
	// Transport selects UDP (CBR) or TCP (ftp) workloads.
	Transport = experiments.Transport
	// TwoNode configures a §3.1 single-session experiment.
	TwoNode = experiments.TwoNode
	// TwoNodeResult is its outcome.
	TwoNodeResult = experiments.TwoNodeResult
	// FourNode configures a §3.3 two-session experiment.
	FourNode = experiments.FourNode
	// FourNodeResult is its outcome.
	FourNodeResult = experiments.FourNodeResult
	// LossSweep configures a §3.2 loss-vs-distance measurement.
	LossSweep = experiments.LossSweep
	// LossPoint is one sample of a loss curve.
	LossPoint = experiments.LossPoint
	// RangeEstimate is one Table 3 row.
	RangeEstimate = experiments.RangeEstimate
	// ChainConfig configures the multi-hop goodput-vs-hop-count sweep.
	ChainConfig = experiments.ChainConfig
	// ChainPoint is one cell of that sweep.
	ChainPoint = experiments.ChainPoint
)

// Workload transports.
const (
	UDP = experiments.UDP
	TCP = experiments.TCP
)

// Experiment entry points (see internal/experiments for documentation).
var (
	RunTwoNode   = experiments.RunTwoNode
	RunFourNode  = experiments.RunFourNode
	RunLossSweep = experiments.RunLossSweep
	Figure2      = experiments.Figure2
	Figure3      = experiments.Figure3
	Figure4      = experiments.Figure4
	Figure7      = experiments.Figure7
	Figure9      = experiments.Figure9
	Figure11     = experiments.Figure11
	Figure12     = experiments.Figure12
	Table3       = experiments.Table3
	// RunChainThroughput measures end-to-end goodput vs hop count over
	// a relay string (UDP and TCP), the canonical multi-hop result the
	// routing subsystem opens up.
	RunChainThroughput = experiments.RunChainThroughput
)

// Parallel replication harness (internal/runner): every experiment can
// be averaged over N independently seeded replications fanned out
// across worker goroutines. Aggregates are bit-identical for any
// worker count.
type (
	// Rep configures a replicated experiment: replication count, worker
	// bound, optional progress callback.
	Rep = experiments.Rep
	// Summary is the aggregate of one metric over replications
	// (mean, 95% CI, std, min, max).
	Summary = runner.Summary
	// TwoNodeSummary aggregates TwoNodeResult metrics over replications.
	TwoNodeSummary = experiments.TwoNodeSummary
	// FourNodeSummary aggregates FourNodeResult metrics over replications.
	FourNodeSummary = experiments.FourNodeSummary
)

// Replicated experiment entry points: the classic runners averaged over
// Rep.Replications independently seeded runs, with 95% confidence
// intervals. Replication 0 reuses the root seed, so Rep{Replications: 1}
// reproduces the classic output exactly.
var (
	ReplicateTwoNode  = experiments.ReplicateTwoNode
	ReplicateFourNode = experiments.ReplicateFourNode
	Figure2Reps       = experiments.Figure2Reps
	Figure3Reps       = experiments.Figure3Reps
	Figure4Reps       = experiments.Figure4Reps
	Figure7Reps       = experiments.Figure7Reps
	Figure9Reps       = experiments.Figure9Reps
	Figure11Reps      = experiments.Figure11Reps
	Figure12Reps      = experiments.Figure12Reps
	Table3Reps        = experiments.Table3Reps
)

// Declarative scenario layer (internal/scenario): one JSON-able Spec
// describes topology, traffic matrix, per-station configuration and
// mobility; one engine compiles and runs it. The classic TwoNode and
// FourNode experiments are presets that compile to Specs.
type (
	// Scenario is a declarative experiment specification.
	Scenario = scenario.Spec
	// ScenarioTopology places the stations (explicit positions or the
	// line/grid/ring/random-uniform generators).
	ScenarioTopology = scenario.Topology
	// ScenarioFlow is one src→dst session of the traffic matrix.
	ScenarioFlow = scenario.Flow
	// ScenarioResult is one scenario run's per-flow and per-station
	// outcome.
	ScenarioResult = scenario.Result
	// ScenarioSummary aggregates a replicated scenario.
	ScenarioSummary = scenario.Summary
	// ScenarioInstance is a compiled, not-yet-run scenario for callers
	// that drive the simulation themselves.
	ScenarioInstance = scenario.Instance
	// ScenarioMAC is the JSON-able MAC parameter block of a Spec.
	ScenarioMAC = scenario.MACParams
	// ScenarioStationOverride replaces the network-wide MAC/profile for
	// one station.
	ScenarioStationOverride = scenario.StationOverride
	// ScenarioMobility attaches a movement model to stations.
	ScenarioMobility = scenario.Mobility
	// ScenarioRouting enables a route control plane ("static" min-hop
	// compilation or on-air "dsdv"), which is what lets flows span
	// more than one hop.
	ScenarioRouting = scenario.RoutingParams
)

// ScenarioDuration converts a time.Duration to the Spec's JSON-friendly
// duration type (marshals as "10s"-style strings).
func ScenarioDuration(d time.Duration) scenario.Duration { return scenario.Duration(d) }

// Scenario entry points (see internal/scenario for documentation).
var (
	// RunScenario compiles and runs a Spec over its horizon.
	RunScenario = scenario.Run
	// BuildScenario compiles a Spec without running it.
	BuildScenario = scenario.Build
	// ReplicateScenario averages a Spec over N independent seeds.
	ReplicateScenario = scenario.Replicate
	// ParseScenario decodes and validates a JSON scenario spec.
	ParseScenario = scenario.ParseSpec
	// ScenarioPresets lists the built-in scenario library.
	ScenarioPresets = scenario.Presets
	// ScenarioPreset returns one built-in scenario by name.
	ScenarioPreset = scenario.Preset
)
