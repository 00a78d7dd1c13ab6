// Package scenario is the declarative experiment layer: one Spec
// describes an entire 802.11 ad hoc experiment — topology, traffic
// matrix, per-station MAC/PHY configuration, optional mobility, horizon
// and seed — and one engine (Build/Run) compiles it into a live
// node.Network and measures per-flow goodput, loss and MAC-level
// counters.
//
// Specs marshal to and from JSON, so scenarios can live in files and be
// run by cmd/adhocsim -scenario without recompiling. The paper's
// hand-built experiments (internal/experiments RunTwoNode/RunFourNode)
// are thin presets that compile to Specs; golden tests pin their outputs
// bit-for-bit to the pre-refactor implementations.
package scenario

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"time"

	"adhocsim/internal/mac"
	"adhocsim/internal/obs"
	"adhocsim/internal/phy"
	"adhocsim/internal/routing"
	"adhocsim/internal/trace"
	"adhocsim/internal/transport"
)

// Duration is a time.Duration that marshals to JSON as a human-readable
// string ("10s", "250ms") and unmarshals from either that form or a
// plain number of nanoseconds.
type Duration time.Duration

// D returns the value as a time.Duration.
func (d Duration) D() time.Duration { return time.Duration(d) }

// MarshalJSON renders the duration as a string.
func (d Duration) MarshalJSON() ([]byte, error) {
	return json.Marshal(time.Duration(d).String())
}

// UnmarshalJSON accepts "10s"-style strings or integer nanoseconds.
func (d *Duration) UnmarshalJSON(b []byte) error {
	var s string
	if err := json.Unmarshal(b, &s); err == nil {
		v, err := time.ParseDuration(s)
		if err != nil {
			return fmt.Errorf("scenario: bad duration %q: %w", s, err)
		}
		*d = Duration(v)
		return nil
	}
	var ns int64
	if err := json.Unmarshal(b, &ns); err != nil {
		return fmt.Errorf("scenario: duration must be a string or nanoseconds: %s", b)
	}
	*d = Duration(ns)
	return nil
}

// Transport names a flow's transport protocol.
type Transport string

// The two transports of the paper's workloads.
const (
	TransportUDP Transport = "udp"
	TransportTCP Transport = "tcp"
)

// MACParams is the JSON-able subset of mac.Config a Spec can set, both
// network-wide (Spec.MAC) and per station (Spec.Stations). The zero
// value means "MAC defaults": 11 Mbit/s, basic access, standard retry
// limits.
type MACParams struct {
	// RateMbps is the unicast data rate: 1, 2, 5.5 or 11. 0 selects the
	// MAC default (11 Mbit/s).
	RateMbps float64 `json:"rate_mbps,omitempty"`
	// RTSCTS protects every unicast data frame with RTS/CTS.
	RTSCTS bool `json:"rtscts,omitempty"`
	// RTSThresholdBytes, when positive, overrides RTSCTS with a byte
	// threshold: MSDUs at least this large are RTS-protected.
	RTSThresholdBytes int `json:"rts_threshold_bytes,omitempty"`
	// ShortRetryLimit / LongRetryLimit / QueueCap follow mac.Config's
	// conventions (0 = default, negative retry limits disable retries).
	ShortRetryLimit int `json:"short_retry_limit,omitempty"`
	LongRetryLimit  int `json:"long_retry_limit,omitempty"`
	QueueCap        int `json:"queue_cap,omitempty"`
	// DisableEIFS and DeferResponses are the ablation switches of
	// mac.Config (see DESIGN.md).
	DisableEIFS    bool `json:"disable_eifs,omitempty"`
	DeferResponses bool `json:"defer_responses,omitempty"`
	// ARF switches on Automatic Rate Fallback, starting from RateMbps
	// (mac.Config.ARF).
	ARF bool `json:"arf,omitempty"`
	// BeaconInterval enables IBSS beaconing when positive.
	BeaconInterval Duration `json:"beacon_interval,omitempty"`
}

// rate returns the phy.Rate for RateMbps (0 = MAC default).
func (p MACParams) rate() (phy.Rate, error) {
	if p.RateMbps == 0 {
		return 0, nil
	}
	if r, ok := phy.RateFromMbps(p.RateMbps); ok {
		return r, nil
	}
	return 0, fmt.Errorf("scenario: rate %g Mbit/s is not an 802.11b rate", p.RateMbps)
}

// Config compiles the params into a mac.Config (Address and BSSID are
// assigned by the network builder).
func (p MACParams) Config() (mac.Config, error) {
	rate, err := p.rate()
	if err != nil {
		return mac.Config{}, err
	}
	rts := mac.RTSNever
	switch {
	case p.RTSThresholdBytes > 0:
		rts = p.RTSThresholdBytes
	case p.RTSCTS:
		rts = mac.RTSAlways + 1 // any MSDU ≥ 1 byte is protected
	}
	return mac.Config{
		DataRate:        rate,
		RTSThreshold:    rts,
		ShortRetryLimit: p.ShortRetryLimit,
		LongRetryLimit:  p.LongRetryLimit,
		QueueCap:        p.QueueCap,
		DisableEIFS:     p.DisableEIFS,
		DeferResponses:  p.DeferResponses,
		ARF:             p.ARF,
		BeaconInterval:  p.BeaconInterval.D(),
	}, nil
}

// StationOverride replaces the network-wide MAC parameters and/or radio
// profile for one station (0-based topology index).
type StationOverride struct {
	Station int `json:"station"`
	// MAC, when non-nil, replaces Spec.MAC wholesale for this station.
	MAC *MACParams `json:"mac,omitempty"`
	// Profile, when non-empty, selects a named radio profile for this
	// station's radio alone (see Spec.Profile for the names).
	Profile string `json:"profile,omitempty"`
}

// Flow is one src→dst traffic session of the scenario's traffic matrix.
type Flow struct {
	// Src and Dst are 0-based station indices into the topology.
	Src int `json:"src"`
	Dst int `json:"dst"`
	// NearestDst, when true, ignores Dst (which must be zero) and
	// resolves the destination at build time to the station nearest Src
	// in the expanded topology. On random topologies this is the only
	// way to declare a flow that is guaranteed a viable link whatever
	// the seed draws — re-seeding a spec re-pairs its flows.
	NearestDst bool `json:"nearest_dst,omitempty"`
	// Transport selects the workload: "udp" is a CBR source (saturating
	// when Interval is zero, paced otherwise), "tcp" a saturating bulk
	// transfer. Defaults to "udp".
	Transport Transport `json:"transport,omitempty"`
	// PacketSize is the application payload in bytes (default 512, the
	// paper's size).
	PacketSize int `json:"packet_size,omitempty"`
	// Interval paces a UDP CBR source (one packet per interval); zero
	// keeps the MAC queue saturated, the paper's asymptotic regime.
	// A positive interval must be at least phy.PLCPTime (192 µs).
	// Ignored for TCP.
	Interval Duration `json:"interval,omitempty"`
	// Port is the destination port (default 9000). Two flows may share a
	// port only if they terminate at different stations.
	Port uint16 `json:"port,omitempty"`
}

// checkPacketSize bounds flow i's payload by what one MSDU
// (mac.MaxMSDU) carries with its headers: the MAC refuses a larger
// frame, so the flow would deliver nothing. A UDP payload rides with
// 28 B of UDP/IP headers. A TCP flow's payload rides in segments of the
// MSS with 40 B of TCP/IP headers; setsMSS reports that the flow's
// packet size is that MSS (no Spec.MSS, and the first TCP flow). Any
// other TCP flow's packets are segmented, and keep the MSDU bound.
func checkPacketSize(i int, f Flow, setsMSS bool) error {
	limit, proto := mac.MaxMSDU, ""
	switch {
	case f.Transport == TransportUDP:
		limit, proto = transport.MaxUDPPayload, "UDP"
	case setsMSS:
		limit, proto = transport.MaxTCPPayload, "TCP"
	}
	if f.PacketSize >= 0 && f.PacketSize <= limit {
		return nil
	}
	var why string
	if proto != "" {
		why = fmt.Sprintf(": a %s payload rides in one %d B MSDU with %d B of %s/IP headers", proto, mac.MaxMSDU, mac.MaxMSDU-limit, proto)
	}
	return fmt.Errorf("scenario: flow %d packet size %d outside (0, %d]%s", i, f.PacketSize, limit, why)
}

func (f Flow) withDefaults() Flow {
	if f.Transport == "" {
		f.Transport = TransportUDP
	}
	if f.PacketSize == 0 {
		f.PacketSize = 512
	}
	if f.Port == 0 {
		f.Port = 9000
	}
	return f
}

// RoutingParams configures the scenario's route control plane
// (internal/routing). Without it the network layer keeps its classic
// single-hop behaviour: every station transmits straight to the
// destination's link-layer address and multi-hop flows starve.
type RoutingParams struct {
	// Protocol selects the control plane: "static" compiles min-hop
	// routes from the topology at build time; "dsdv" runs the
	// destination-sequenced distance-vector protocol over the air.
	Protocol string `json:"protocol"`
	// LinkRangeM overrides the static compiler's connectivity radius in
	// meters. 0 derives it from the network-wide radio profile and data
	// rate (the rate's median transmission range — the paper's
	// TX_range). Ignored by dsdv, which discovers links by hearing
	// advertisements.
	LinkRangeM float64 `json:"link_range_m,omitempty"`
	// AdvertInterval is dsdv's periodic advertisement period (default
	// 1s); SettleDelay bounds its triggered-update delay and broadcast
	// jitter (default 50ms).
	AdvertInterval Duration `json:"advert_interval,omitempty"`
	SettleDelay    Duration `json:"settle_delay,omitempty"`
	// NeighborMarginDB shifts dsdv's gray-zone filter: advertisements
	// arriving weaker than the station's data-rate decode sensitivity
	// plus this margin do not establish the sender as a neighbor
	// (default 0: the sensitivity itself).
	NeighborMarginDB float64 `json:"neighbor_margin_db,omitempty"`
}

// linkRange resolves the static compiler's connectivity radius:
// LinkRangeM when pinned, else the profile's median transmission range
// at the network-wide data rate. Validation and the build both use it,
// so the graph Validate checks is the graph Build installs.
func (r *RoutingParams) linkRange(p *phy.Profile, mac MACParams) float64 {
	if r.LinkRangeM > 0 {
		return r.LinkRangeM
	}
	rate := phy.Rate11
	if rr, err := mac.rate(); err == nil && rr != 0 {
		rate = rr
	}
	return routing.DefaultLinkRange(p, rate)
}

// ParallelParams opts a scenario into the space-partitioned parallel
// event kernel (sim.Exec): the field is split into a grid of regions,
// each region's events run on its own scheduler, and regions advance
// concurrently under a conservative propagation-delay lookahead.
//
// Any grid shape is sound — the lookahead between two regions scales
// with their separation (see internal/phy/lookahead.go) — so explicit
// Cols/Rows are honored exactly, up to 256 regions in all (counting an
// auto-sized dimension at its cap). Auto-sized dimensions (0) instead
// target load balance: one region per carrier-sense range the field
// spans, capped at 8 per dimension and shrunk until regions average at
// least 64 stations, so a small field ends up as a single region and
// runs exactly like the sequential kernel. The grid's cut lines sit at
// activity-weighted station quantiles per axis
// (phy.FitWeightedRegionGrid with flow endpoints weighted — see
// activityWeights), so regions share the expected event load; they are
// a deterministic function of the topology draw and the resolved
// flows. Mobility scenarios ignore
// the block entirely and fall back to the sequential kernel (regions
// would have to re-home moving stations), as do degenerate radio
// models with no finite relevance radius.
type ParallelParams struct {
	// Cols and Rows request the region grid; 0 auto-sizes that
	// dimension from the field extent (see above).
	Cols int `json:"cols,omitempty"`
	Rows int `json:"rows,omitempty"`
	// Workers is the goroutine count driving the regions; 0 means one
	// per CPU (clamped to the region count). Results never depend on it.
	Workers int `json:"workers,omitempty"`
}

// Mobility attaches a movement model to some or all stations.
type Mobility struct {
	// Model names the mover; "random-waypoint" is the only model today.
	Model string `json:"model"`
	// Width/Height bound the movement field in meters (default 300×300).
	Width  float64 `json:"width,omitempty"`
	Height float64 `json:"height,omitempty"`
	// MinSpeed/MaxSpeed bound the uniform speed draw in m/s (default
	// pedestrian 0.5–2.0).
	MinSpeed float64 `json:"min_speed,omitempty"`
	MaxSpeed float64 `json:"max_speed,omitempty"`
	// Pause is the dwell time at each waypoint (default 2s); Tick the
	// position-update granularity (default 100ms).
	Pause Duration `json:"pause,omitempty"`
	Tick  Duration `json:"tick,omitempty"`
	// Stations lists the stations that move (0-based indices); empty
	// means all of them.
	Stations []int `json:"stations,omitempty"`
}

// ModelRandomWaypoint is the Mobility.Model name of the random-waypoint
// mover (node.RandomWaypoint).
const ModelRandomWaypoint = "random-waypoint"

// Named radio profiles selectable from JSON.
const (
	// ProfileDefault is phy.DefaultProfile: the calibrated outdoor model.
	ProfileDefault = "default"
	// ProfileTestbed is phy.TestbedProfile: default plus static per-link
	// asymmetry, the §3.3 four-station conditions.
	ProfileTestbed = "testbed"
	// ProfileClear / ProfileDamp are the Figure 4 weather variants.
	ProfileClear = "weather-clear"
	ProfileDamp  = "weather-damp"
	// ProfileCity is phy.CityProfile: urban propagation (exponent 3.5,
	// σ = 2 dB) with a ~1.5 km relevance radius — the model the
	// city-scale presets run under.
	ProfileCity = "city"
)

// profileByName resolves a named profile; "" means ProfileDefault.
func profileByName(name string) (*phy.Profile, error) {
	switch name {
	case "", ProfileDefault:
		return nil, nil // nil lets node.NewNetwork pick phy.DefaultProfile
	case ProfileTestbed:
		return phy.TestbedProfile(), nil
	case ProfileClear:
		return phy.WeatherClear.Apply(phy.DefaultProfile()), nil
	case ProfileDamp:
		return phy.WeatherDamp.Apply(phy.DefaultProfile()), nil
	case ProfileCity:
		return phy.CityProfile(), nil
	}
	return nil, fmt.Errorf("scenario: unknown profile %q", name)
}

// ProfileNames lists the named radio profiles a Spec can reference.
func ProfileNames() []string {
	return []string{ProfileDefault, ProfileTestbed, ProfileClear, ProfileDamp, ProfileCity}
}

// Spec is one complete declarative scenario.
type Spec struct {
	// Name and Description identify the scenario in listings and output.
	Name        string `json:"name"`
	Description string `json:"description,omitempty"`

	// Seed roots every random draw of the run; equal Specs with equal
	// seeds produce bit-identical results.
	Seed uint64 `json:"seed"`
	// Duration is the measurement horizon (default 10s).
	Duration Duration `json:"duration,omitempty"`
	// MSS overrides the TCP maximum segment size. 0 follows the paper's
	// convention: the packet size of the first TCP flow (so one
	// application packet rides in one segment), or the transport default
	// when no TCP flow exists.
	MSS int `json:"mss,omitempty"`

	// Profile names the network-wide radio profile (see ProfileNames).
	Profile string `json:"profile,omitempty"`
	// CustomProfile, when non-nil, overrides Profile with an arbitrary
	// in-process radio model. Not serialized: JSON scenarios use named
	// profiles.
	CustomProfile *phy.Profile `json:"-"`

	// Topology places the stations.
	Topology Topology `json:"topology"`
	// MAC is the network-wide MAC configuration; Stations overrides it
	// per station.
	MAC      MACParams         `json:"mac,omitempty"`
	Stations []StationOverride `json:"stations,omitempty"`

	// Flows is the traffic matrix. Flows start at time zero and run for
	// the whole horizon, as the paper's sessions do.
	Flows []Flow `json:"flows"`

	// Routing optionally enables a route control plane, which is what
	// lets flows span more than one hop. Packet forwarding is switched
	// on at every station as part of it.
	Routing *RoutingParams `json:"routing,omitempty"`

	// Mobility optionally moves stations during the run.
	Mobility *Mobility `json:"mobility,omitempty"`

	// Faults optionally injects deterministic faults — station crashes,
	// link degradation, regional partitions, flow outages, random churn
	// — compiled per replication against the replication's seed (see
	// internal/faults and FaultSpec).
	Faults *FaultSpec `json:"faults,omitempty"`

	// Parallel opts the run into the space-partitioned parallel kernel.
	// Ignored (sequential fallback) when Mobility is set, and stripped
	// by Replicate (sweeps parallelize across seeds instead).
	Parallel *ParallelParams `json:"parallel,omitempty"`

	// Obs opts the run into the out-of-band observability layer
	// (internal/obs): kernel, medium, runner and fault metrics collected
	// into a registry the run report and the live /metrics endpoint
	// read. Strictly out-of-band — results are byte-identical with it
	// on, off, or scraped mid-run.
	Obs *ObsParams `json:"obs,omitempty"`

	// ObsRegistry, when non-nil, is the registry the run publishes into,
	// shared across replications (counters accumulate via atomic adds).
	// Not serialized; nil with Obs.Enabled makes Build create one
	// (retrieve it with Instance.Obs). Implies Obs when set.
	ObsRegistry *obs.Registry `json:"-"`

	// Tracer, when non-nil, is the execution tracer wired into the MAC
	// retry/backoff and routing route-change paths (adhocsim -trace).
	// Each station gets a WithClock handle on its own scheduler. Not
	// serialized, purely observational.
	Tracer *trace.Tracer `json:"-"`
}

// ObsParams is the Spec's observability block.
type ObsParams struct {
	// Enabled turns metric collection on for this run.
	Enabled bool `json:"enabled"`
}

func (s Spec) withDefaults() Spec {
	if s.Duration == 0 {
		s.Duration = Duration(10 * time.Second)
	}
	// Copy the flow slice: withDefaults must not mutate the caller's spec.
	flows := make([]Flow, len(s.Flows))
	for i, f := range s.Flows {
		flows[i] = f.withDefaults()
	}
	s.Flows = flows
	return s
}

// Validate checks the spec for structural errors: unknown topology
// kinds, out-of-range flow endpoints, port clashes, bad rates,
// statically unroutable flows. Build validates automatically; Validate
// exists for early feedback when authoring specs.
func (s Spec) Validate() error {
	d := s.withDefaults()
	positions, flows, err := d.check()
	if err != nil {
		return err
	}
	_, err = d.staticReachability(positions, flows)
	return err
}

// maxCoordinate bounds, in meters, every coordinate a spec can place a
// station at: the expanded topology and the random-waypoint field every
// waypoint is drawn from. No two points of the ±1e15 m square are more
// than about 2.8e15 m apart, so every distance the medium, routing and
// the mover compute is finite; a mover stepping between two finite
// points an infinite distance apart would land at (NaN, NaN). The bound
// is about 27 times the widest field a test places (x ≈ 3.7e13 m).
const maxCoordinate = 1e15

// check validates an already-defaulted spec and returns the expanded
// topology plus the flow matrix with every NearestDst destination
// resolved against it, so Build validates, expands and resolves exactly
// once.
func (s Spec) check() ([]phy.Position, []Flow, error) {
	positions, err := s.Topology.Expand(s.Seed)
	if err != nil {
		return nil, nil, err
	}
	for i, p := range positions {
		// A sum or product of finite parameters (a line's spacings, a
		// ring's radius) can overflow, and finite stations far enough
		// apart are an infinite distance apart.
		if !(math.Abs(p.X) <= maxCoordinate && math.Abs(p.Y) <= maxCoordinate) {
			return nil, nil, fmt.Errorf("scenario: %s topology places station %d at (%g, %g) m, outside the ±%g m field", s.Topology.Kind, i, p.X, p.Y, maxCoordinate)
		}
	}
	flows, err := resolveFlows(s.Flows, positions)
	if err != nil {
		return nil, nil, err
	}
	s.Flows = flows
	n := len(positions)
	if _, err := profileByName(s.Profile); err != nil && s.CustomProfile == nil {
		return nil, nil, err
	}
	if _, err := s.MAC.Config(); err != nil {
		return nil, nil, err
	}
	overridden := make(map[int]bool, len(s.Stations))
	for _, ov := range s.Stations {
		if ov.Station < 0 || ov.Station >= n {
			return nil, nil, fmt.Errorf("scenario: station override %d outside topology of %d stations", ov.Station, n)
		}
		if overridden[ov.Station] {
			return nil, nil, fmt.Errorf("scenario: station %d overridden twice", ov.Station)
		}
		overridden[ov.Station] = true
		if ov.MAC != nil {
			if _, err := ov.MAC.Config(); err != nil {
				return nil, nil, err
			}
		}
		if _, err := profileByName(ov.Profile); err != nil {
			return nil, nil, err
		}
	}
	if len(s.Flows) == 0 {
		return nil, nil, fmt.Errorf("scenario: no flows")
	}
	type sinkKey struct {
		dst  int
		port uint16
	}
	sinks := map[sinkKey]int{}
	tcpSeen := false
	for i, f := range s.Flows {
		if f.Src < 0 || f.Src >= n || f.Dst < 0 || f.Dst >= n {
			return nil, nil, fmt.Errorf("scenario: flow %d endpoints %d→%d outside topology of %d stations", i, f.Src, f.Dst, n)
		}
		if f.Src == f.Dst {
			return nil, nil, fmt.Errorf("scenario: flow %d sends to itself (station %d)", i, f.Src)
		}
		if f.Transport != TransportUDP && f.Transport != TransportTCP {
			return nil, nil, fmt.Errorf("scenario: flow %d has unknown transport %q", i, f.Transport)
		}
		if f.Transport == TransportTCP && s.MSS > transport.MaxTCPPayload {
			return nil, nil, fmt.Errorf("scenario: flow %d runs TCP under mss %d, over %d: a TCP segment rides in one %d B MSDU with %d B of TCP/IP headers",
				i, s.MSS, transport.MaxTCPPayload, mac.MaxMSDU, mac.MaxMSDU-transport.MaxTCPPayload)
		}
		setsMSS := f.Transport == TransportTCP && s.MSS == 0 && !tcpSeen
		tcpSeen = tcpSeen || f.Transport == TransportTCP
		if err := checkPacketSize(i, f, setsMSS); err != nil {
			return nil, nil, err
		}
		if f.Interval < 0 {
			return nil, nil, fmt.Errorf("scenario: flow %d has negative interval", i)
		}
		if f.Interval > 0 && f.Interval.D() < phy.PLCPTime {
			// No frame is shorter on the air than its PLCP preamble and
			// header, so a faster source only fails against a full queue:
			// one event per interval, a hang in practice.
			return nil, nil, fmt.Errorf("scenario: flow %d interval %v is under the %v floor (the PLCP time, the shortest frame on the air)", i, f.Interval.D(), phy.PLCPTime)
		}
		k := sinkKey{f.Dst, f.Port}
		if prev, clash := sinks[k]; clash {
			return nil, nil, fmt.Errorf("scenario: flows %d and %d both terminate at station %d port %d", prev, i, f.Dst, f.Port)
		}
		sinks[k] = i
	}
	if r := s.Routing; r != nil {
		if r.Protocol != routing.ProtocolStatic && r.Protocol != routing.ProtocolDSDV {
			return nil, nil, fmt.Errorf("scenario: unknown routing protocol %q (want one of %v)", r.Protocol, routing.Protocols())
		}
		if r.Protocol == routing.ProtocolDSDV && n > routing.MaxNetworkSize {
			return nil, nil, fmt.Errorf("scenario: dsdv supports at most %d stations (a full route dump must fit one MSDU), topology has %d — use static routing", routing.MaxNetworkSize, n)
		}
		if r.LinkRangeM < 0 {
			return nil, nil, fmt.Errorf("scenario: negative routing link range %g m", r.LinkRangeM)
		}
		if r.AdvertInterval < 0 || r.SettleDelay < 0 {
			return nil, nil, fmt.Errorf("scenario: negative routing interval")
		}
		if r.AdvertInterval > 0 && r.AdvertInterval.D() < phy.PLCPTime {
			// As for a flow's interval: each advertisement is a frame.
			return nil, nil, fmt.Errorf("scenario: routing advert interval %v is under the %v floor (the PLCP time, the shortest frame on the air)", r.AdvertInterval.D(), phy.PLCPTime)
		}
	}
	if m := s.Mobility; m != nil {
		if m.Model != ModelRandomWaypoint {
			return nil, nil, fmt.Errorf("scenario: unknown mobility model %q", m.Model)
		}
		if m.Width > maxCoordinate || m.Height > maxCoordinate {
			return nil, nil, fmt.Errorf("scenario: mobility field %g×%g m exceeds %g m a side", m.Width, m.Height, maxCoordinate)
		}
		if m.Tick > 0 && m.Tick.D() < phy.PLCPTime {
			// Every tick is an event per mover, and no frame is shorter
			// on the air: a finer tick moves nothing a frame could see.
			return nil, nil, fmt.Errorf("scenario: mobility tick %v is under the %v floor (the PLCP time, the shortest frame on the air)", m.Tick.D(), phy.PLCPTime)
		}
		seen := make(map[int]bool, len(m.Stations))
		for _, st := range m.Stations {
			if st < 0 || st >= n {
				return nil, nil, fmt.Errorf("scenario: mobility station %d outside topology of %d stations", st, n)
			}
			if seen[st] {
				return nil, nil, fmt.Errorf("scenario: mobility station %d listed twice", st)
			}
			seen[st] = true
		}
	}
	if p := s.Parallel; p != nil {
		if p.Cols < 0 || p.Rows < 0 {
			return nil, nil, fmt.Errorf("scenario: negative parallel region grid %dx%d", p.Cols, p.Rows)
		}
		// An auto-sized dimension (0) counts at its cap.
		c, r := p.Cols, p.Rows
		if c == 0 {
			c = autoMaxRegionsPerDim
		}
		if r == 0 {
			r = autoMaxRegionsPerDim
		}
		if c > maxParallelRegions || r > maxParallelRegions || c*r > maxParallelRegions {
			return nil, nil, fmt.Errorf("scenario: parallel region grid %dx%d exceeds %d regions", p.Cols, p.Rows, maxParallelRegions)
		}
		if p.Workers < 0 {
			return nil, nil, fmt.Errorf("scenario: negative parallel worker count %d", p.Workers)
		}
	}
	if s.Duration <= 0 {
		return nil, nil, fmt.Errorf("scenario: non-positive duration %v", s.Duration.D())
	}
	if err := s.checkFaults(n, s.Flows); err != nil {
		return nil, nil, err
	}
	return positions, s.Flows, nil
}

// staticReachability rejects flows the static compiler cannot route,
// returning the solved graph (nil when static routing does not apply)
// so that within one Build the validated graph is also the installed
// one. (A Validate-then-Build sequence still solves twice — the
// standalone Validate has nowhere to stash the graph; per sweep that
// is one extra solve per worker, amortized over its replications.) With static routing on a deterministic topology an
// unreachable flow is a spec bug; catching it at Validate/Build time
// (not per Reset — the answer is seed-independent, and re-deriving the
// all-pairs graph per replication would undercut arena reuse) means a
// sweep fails before it fans out. On a random topology reachability is
// a property of the seed's draw, so a disconnected flow is legal — it
// starves (ErrNoRoute, counted as drops) for that replication rather
// than crashing the sweep.
func (s Spec) staticReachability(positions []phy.Position, flows []Flow) (*routing.Graph, error) {
	r := s.Routing
	if r == nil || r.Protocol != routing.ProtocolStatic || s.Topology.Kind == KindRandomUniform {
		return nil, nil
	}
	p := s.CustomProfile
	if p == nil {
		p, _ = profileByName(s.Profile) // error already rejected by check
	}
	if p == nil {
		p = phy.DefaultProfile()
	}
	g := routing.NewGraph(positions, r.linkRange(p, s.MAC))
	for i, f := range flows {
		if g.Hops(f.Src, f.Dst) < 0 {
			return nil, fmt.Errorf("scenario: flow %d (%d→%d) is unreachable over the static %v", i, f.Src, f.Dst, g)
		}
	}
	return g, nil
}

// nearest returns the station nearest positions[src], ties toward the
// lowest index, by a growing-radius probe of ix (built over positions):
// each round visits every cell within r of the source, so once the
// best candidate's distance is within r nothing closer can hide outside
// it. The radius doubles up to infinity, which reaches every station,
// so the probe ends for any finite field of at least two stations.
func nearest(ix *phy.CellIndex, positions []phy.Position, src int, buf []uint32) (int, []uint32) {
	center := positions[src]
	for r := ix.CellSize(); ; r *= 2 {
		buf = ix.AppendWithin(buf[:0], center, r)
		dst, best := -1, math.Inf(1)
		for _, v := range buf {
			j := int(v)
			if j == src {
				continue
			}
			if d := phy.Dist(center, positions[j]); dst < 0 || d < best || (d == best && j < dst) {
				dst, best = j, d
			}
		}
		if dst >= 0 && best <= r {
			return dst, buf
		}
	}
}

// resolveFlows returns the flow matrix with every NearestDst
// destination replaced by the index of the station nearest that flow's
// source in positions. The input slice is not mutated (check runs on a
// defaulted copy, but Build keeps the resolved result).
func resolveFlows(flows []Flow, positions []phy.Position) ([]Flow, error) {
	resolved := flows
	copied := false
	var ix *phy.CellIndex
	var buf []uint32
	for i, f := range flows {
		if !f.NearestDst {
			continue
		}
		if f.Dst != 0 {
			return nil, fmt.Errorf("scenario: flow %d sets both nearest_dst and dst %d", i, f.Dst)
		}
		// A nearest_dst destination depends on the seed, so the usual
		// sink-uniqueness check (same station, same port) could pass at
		// one seed and clash at another — a replication sweep would then
		// crash mid-run. Require the port to be unique across all flows,
		// which is seed-independent and keeps every replication valid.
		for j, other := range flows {
			if j != i && other.Port == f.Port {
				return nil, fmt.Errorf("scenario: nearest_dst flow %d must use a port unique across all flows: port %d is shared with flow %d, and the nearest destination varies with the seed", i, f.Port, j)
			}
		}
		if f.Src < 0 || f.Src >= len(positions) {
			return nil, fmt.Errorf("scenario: flow %d source %d outside topology of %d stations", i, f.Src, len(positions))
		}
		if len(positions) < 2 {
			return nil, fmt.Errorf("scenario: flow %d needs a second station to pair with", i)
		}
		if !copied {
			resolved = append([]Flow(nil), flows...)
			copied = true
		}
		if ix == nil {
			// Cell size 0: the finest grid within the index's
			// four-cells-per-station budget.
			ix = phy.NewCellIndex(positions, 0)
		}
		resolved[i].Dst, buf = nearest(ix, positions, f.Src, buf)
		resolved[i].NearestDst = false
	}
	return resolved, nil
}

// ParseSpec decodes and validates a JSON scenario. Unknown fields are
// rejected so typos in hand-written specs fail loudly.
func ParseSpec(data []byte) (Spec, error) {
	var s Spec
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&s); err != nil {
		return Spec{}, fmt.Errorf("scenario: %w", err)
	}
	if err := s.Validate(); err != nil {
		return Spec{}, err
	}
	return s, nil
}

// MarshalSpec encodes a spec as indented JSON.
func MarshalSpec(s Spec) ([]byte, error) {
	buf, err := json.MarshalIndent(s, "", "  ")
	if err != nil {
		return nil, fmt.Errorf("scenario: %w", err)
	}
	return append(buf, '\n'), nil
}
