package scenario

import (
	"fmt"
	"math"
	"runtime"
	"time"

	"adhocsim/internal/app"
	"adhocsim/internal/faults"
	"adhocsim/internal/mac"
	"adhocsim/internal/medium"
	"adhocsim/internal/node"
	"adhocsim/internal/obs"
	"adhocsim/internal/phy"
	"adhocsim/internal/routing"
	"adhocsim/internal/stats"
	"adhocsim/internal/transport"
)

// Auto-sized parallel region grids are capped at 8 per dimension (64
// regions) — beyond that, regions far outnumber cores and each extra
// boundary adds cross-region traffic — and then shrunk until regions
// average at least 64 stations, so modest fields (a thousand stations)
// keep the compact grids that buy real parallelism while city-scale
// fields get the full 8x8.
const (
	autoMaxRegionsPerDim     = 8
	autoMinStationsPerRegion = 64
)

// maxParallelRegions bounds an explicit region grid. The executor keeps
// a lookahead matrix quadratic in the region count and closes it in
// cubic time, so an unbounded request (1000x1000) would exhaust memory
// instead of failing; 16x16 is four times the auto-sizer's cap.
const maxParallelRegions = 16 * 16

// Instance is a compiled scenario: a live network plus the workload
// endpoints, ready to run. Callers that need more than Run's metrics —
// extra monitors, mid-run inspection, custom horizons — Build the
// instance and drive it themselves. A finished instance can be
// re-seeded in place with Reset, which is how replication sweeps avoid
// rebuilding the network per replication.
type Instance struct {
	Spec Spec
	Net  *node.Network

	// orig is the defaulted spec before seed-dependent resolution
	// (NearestDst flows unresolved): the template Reset re-resolves
	// against a new seed.
	orig Spec

	// udpSinks/tcpSinks/cbrs/bulks are indexed by flow.
	udpSinks []*app.UDPSink
	tcpSinks []*app.TCPSink
	cbrs     []*app.CBR
	bulks    []*app.Bulk

	// Route control plane (nil/empty without Spec.Routing). routers and
	// nbrThreshDBm are construction-time state that survives Reset;
	// graph is recompiled per seed (random topologies re-draw).
	routers      []*routing.DSDV
	graph        *routing.Graph
	nbrThreshDBm []float64

	// faultSched is the replication's compiled fault schedule; nil
	// without a faults block. Recompiled per seed (churn re-draws).
	faultSched *faults.Schedule

	// pub mirrors the kernel's out-of-band counters into the obs
	// registry; nil (all methods no-ops) unless the spec enables
	// observability. See obs.go for the publishing discipline.
	pub *obsPub
}

// Build validates the spec and compiles it into a live network with all
// sinks attached and all sources started at time zero.
//
// The construction order is part of the determinism contract (and of
// the golden equivalence with the classic experiment runners): stations
// in topology order, then every flow's sink in flow order, then every
// flow's source in flow order.
func Build(spec Spec) (*Instance, error) {
	spec = spec.withDefaults()
	orig := spec
	positions, flows, err := spec.check()
	if err != nil {
		return nil, err
	}
	// graph is nil unless the spec uses static routing on a
	// deterministic topology; wireRouting installs it (and solves its
	// own for the random-topology case the validation skips).
	graph, err := spec.staticReachability(positions, flows)
	if err != nil {
		return nil, err
	}
	// The instance carries the resolved flow matrix (NearestDst pairs
	// bound to this topology draw), so results report real endpoints.
	spec.Flows = flows

	netProfile := spec.CustomProfile
	if netProfile == nil {
		if netProfile, err = profileByName(spec.Profile); err != nil {
			return nil, err
		}
	}

	mss := spec.MSS
	if mss == 0 {
		mss = transport.DefaultMSS
		for _, f := range spec.Flows {
			if f.Transport == TransportTCP {
				mss = f.PacketSize
				break
			}
		}
	}

	opts := []node.Option{node.WithMSS(mss)}
	if netProfile != nil {
		opts = append(opts, node.WithProfile(netProfile))
	}
	grid, reach, parOK, err := spec.parallelGrid(positions, netProfile)
	if err != nil {
		return nil, err
	}
	if parOK {
		workers := spec.Parallel.Workers
		if workers == 0 {
			workers = runtime.GOMAXPROCS(0)
		}
		opts = append(opts, node.WithParallel(grid, reach, workers))
	}
	net := node.NewNetwork(spec.Seed, opts...)

	overrides := make(map[int]StationOverride, len(spec.Stations))
	for _, ov := range spec.Stations {
		overrides[ov.Station] = ov
	}
	inst := &Instance{Spec: spec, Net: net, orig: orig, graph: graph}
	reg := spec.ObsRegistry
	if reg == nil && spec.Obs != nil && spec.Obs.Enabled {
		reg = obs.NewRegistry()
	}
	inst.pub = newObsPub(reg)
	inst.pub.attach(inst)
	for i, pos := range positions {
		params := spec.MAC
		var stProfile *phy.Profile
		if ov, ok := overrides[i]; ok {
			if ov.MAC != nil {
				params = *ov.MAC
			}
			if ov.Profile != "" {
				if stProfile, err = profileByName(ov.Profile); err != nil {
					return nil, err
				}
				// profileByName returns nil for "default" (meaning "let the
				// network choose"), but a per-station override of "default"
				// must actually pin DefaultProfile — otherwise it would
				// silently inherit the network-wide profile instead.
				if stProfile == nil {
					stProfile = phy.DefaultProfile()
				}
			}
		}
		cfg, err := params.Config()
		if err != nil {
			return nil, err
		}
		net.AddStationProfile(pos, cfg, stProfile)
		if spec.Routing != nil {
			inst.nbrThreshDBm = append(inst.nbrThreshDBm, neighborThreshold(spec.Routing, cfg, stProfile, net.Profile))
		}
	}

	if err := inst.wireRouting(positions, false); err != nil {
		return nil, err
	}
	inst.wireTracer()
	inst.attachWorkload()
	if err := inst.installFaults(positions); err != nil {
		return nil, err
	}
	return inst, nil
}

// parallelGrid resolves the spec's parallel block against a concrete
// topology draw into the region grid and the field's relevance radius.
// ok is false when the parallel kernel does not apply and the build
// falls back to the sequential kernel: no parallel block, a mobility
// model (a moving station would change regions), or a degenerate radio
// model with no finite relevance radius (the lookahead would have no
// distance bound).
//
// Explicit Cols/Rows are honored exactly as requested (any grid is
// sound — the lookahead adapts; see internal/phy/lookahead.go).
// Auto-sized dimensions target load balance: regions no smaller than
// the carrier-sense range (below it stations mostly contend with
// neighbors in other regions and the partition buys nothing), capped
// per dimension and held to the station-density floor documented at
// autoMaxRegionsPerDim. Small fields thus fit a single region, which
// runs the identical window protocol on one scheduler. The cut lines
// then sit at activity-weighted occupancy quantiles.
func (s Spec) parallelGrid(positions []phy.Position, netProfile *phy.Profile) (grid phy.RegionGrid, reach float64, ok bool, err error) {
	p := s.Parallel
	if p == nil || s.Mobility != nil {
		return phy.RegionGrid{}, 0, false, nil
	}
	profiles := []*phy.Profile{netProfile}
	if netProfile == nil {
		profiles[0] = phy.DefaultProfile()
	}
	for _, ov := range s.Stations {
		if ov.Profile == "" {
			continue
		}
		sp, err := profileByName(ov.Profile)
		if err != nil {
			return phy.RegionGrid{}, 0, false, err
		}
		if sp == nil {
			sp = phy.DefaultProfile()
		}
		profiles = append(profiles, sp)
	}
	reach = medium.FieldReach(profiles)
	if math.IsInf(reach, 1) {
		return phy.RegionGrid{}, 0, false, nil
	}
	cols, rows := p.Cols, p.Rows
	if cols == 0 || rows == 0 {
		minEdge := 0.0
		for _, pr := range profiles {
			if d := pr.CarrierSenseRange(); d > minEdge {
				minEdge = d
			}
		}
		spanX, spanY := fieldSpans(positions)
		autoC, autoR := cols == 0, rows == 0
		if autoC {
			cols = autoRegions(spanX, minEdge)
		}
		if autoR {
			rows = autoRegions(spanY, minEdge)
		}
		// Density floor: shrink auto-sized dimensions (never explicit
		// ones) until regions average autoMinStationsPerRegion stations,
		// taking from the larger dimension first.
		maxRegions := len(positions) / autoMinStationsPerRegion
		if maxRegions < 1 {
			maxRegions = 1
		}
		for cols*rows > maxRegions {
			if autoC && cols > 1 && (cols >= rows || !(autoR && rows > 1)) {
				cols--
			} else if autoR && rows > 1 {
				rows--
			} else {
				break
			}
		}
	}
	grid = phy.FitWeightedRegionGrid(positions, activityWeights(s.Flows, len(positions)), cols, rows)
	return grid, reach, true, nil
}

// activityWeights is the partitioner's station weighting. Raw
// station count is a poor predictor of event load when traffic is
// concentrated — on clustered-blocks-100k every flow terminates on the
// field's left edge, and count-quantile cuts are indistinguishable from
// uniform cells there — so each station weighs 1 plus an equal share of
// one station-mass per flow endpoint it hosts. Half the total weight
// then follows the workload: cut lines crowd around the flow endpoints
// (where the transmissions, deferrals and arrival edges concentrate)
// and idle expanses merge into wide regions. Weights derive from the
// resolved flow matrix, a pure function of the spec and its seed. Nil
// (unit weights) when the spec has no flows.
func activityWeights(flows []Flow, n int) []float64 {
	ends := 0
	for _, f := range flows {
		if f.Src >= 0 && f.Src < n {
			ends++
		}
		if f.Dst >= 0 && f.Dst < n {
			ends++
		}
	}
	if ends == 0 {
		return nil
	}
	w := make([]float64, n)
	for i := range w {
		w[i] = 1
	}
	share := float64(n) / float64(ends)
	for _, f := range flows {
		if f.Src >= 0 && f.Src < n {
			w[f.Src] += share
		}
		if f.Dst >= 0 && f.Dst < n {
			w[f.Dst] += share
		}
	}
	return w
}

// fieldSpans returns the bounding-box extents of the station field.
func fieldSpans(positions []phy.Position) (spanX, spanY float64) {
	if len(positions) == 0 {
		return 0, 0
	}
	minX, maxX := positions[0].X, positions[0].X
	minY, maxY := positions[0].Y, positions[0].Y
	for _, p := range positions[1:] {
		minX = math.Min(minX, p.X)
		maxX = math.Max(maxX, p.X)
		minY = math.Min(minY, p.Y)
		maxY = math.Max(maxY, p.Y)
	}
	return maxX - minX, maxY - minY
}

// autoRegions sizes one auto-fitted grid dimension: as many regions as
// carrier-sense ranges fit in the span, at least one, at most the cap.
func autoRegions(span, minEdge float64) int {
	if !(minEdge > 0) || !(span > 0) {
		return 1
	}
	n := int(math.Floor(span / minEdge))
	if n < 1 {
		n = 1
	}
	if n > autoMaxRegionsPerDim {
		n = autoMaxRegionsPerDim
	}
	return n
}

// neighborThreshold derives one station's dsdv gray-zone filter: the
// received power below which an advertisement does not establish its
// sender as a neighbor. It is the decode sensitivity of the station's
// unicast data rate plus a fade margin — a neighbor admitted under it
// can, at median fade, actually carry the data frames that will be
// routed through it, not just the 1 Mbit/s broadcast that advertised
// it.
func neighborThreshold(rp *RoutingParams, cfg mac.Config, stProfile, netProfile *phy.Profile) float64 {
	p := stProfile
	if p == nil {
		p = netProfile
	}
	rate := cfg.DataRate
	if rate == 0 {
		rate = phy.Rate11
	}
	return p.SensitivityDBm[rate.Index()] + rp.NeighborMarginDB
}

// wireRouting installs the spec's route control plane over the built
// stations: compiling and installing static routes, or creating
// (build) / re-seeding (reset) the per-station DSDV instances. Called
// from Build and Reset between network construction and workload
// attachment, so control-plane t=0 events schedule in the same order
// on both paths — part of the Reset determinism contract.
func (inst *Instance) wireRouting(positions []phy.Position, reset bool) error {
	rp := inst.Spec.Routing
	if rp == nil {
		return nil
	}
	if reset {
		switch rp.Protocol {
		case routing.ProtocolDSDV:
			// The routers were created at Build (their stack/MAC
			// subscriptions are permanent); a new run just re-seeds them.
			for _, r := range inst.routers {
				r.Reset()
			}
			return nil
		case routing.ProtocolStatic:
			// Only random topologies re-draw positions under a new seed;
			// everywhere else the graph — and the routes already sitting
			// in the stacks, which survive Stack.Reset — are exactly what
			// a recompile would produce, so a Reset reuses them.
			if inst.graph != nil && inst.Spec.Topology.Kind != KindRandomUniform {
				return nil
			}
		}
	}
	net := inst.Net
	nodes := make([]routing.Node, len(net.Stations))
	for i, st := range net.Stations {
		nodes[i] = routing.Node{
			Addr: st.Addr(), Pos: positions[i], Stack: st.Net, MAC: st.MAC,
		}
	}
	switch rp.Protocol {
	case routing.ProtocolStatic:
		// Random topologies (exempt from reachability validation, so no
		// pre-solved graph) and random-topology Resets solve here; the
		// deterministic case installs the graph validation already built.
		if inst.graph == nil || (reset && inst.Spec.Topology.Kind == KindRandomUniform) {
			inst.graph = routing.NewGraph(positions, rp.linkRange(net.Profile, inst.Spec.MAC))
		}
		inst.graph.Install(nodes)
	case routing.ProtocolDSDV:
		inst.routers = make([]*routing.DSDV, len(nodes))
		for i := range nodes {
			// Each router's timers belong to its own station's scheduler
			// (the region scheduler in parallel mode).
			inst.routers[i] = routing.New(net.Stations[i].Sched, net.Source, nodes[i], routing.DSDVConfig{
				AdvertInterval: rp.AdvertInterval.D(),
				SettleDelay:    rp.SettleDelay.D(),
				MinNeighborDBm: inst.nbrThreshDBm[i],
			})
		}
		for _, r := range inst.routers {
			r.Start()
		}
	}
	return nil
}

// Routers exposes the per-station DSDV instances (indexed like
// Net.Stations) for tests and instrumentation; nil unless the spec
// selected dsdv routing.
func (inst *Instance) Routers() []*routing.DSDV { return inst.routers }

// Graph exposes the compiled static connectivity graph; nil unless the
// spec selected static routing.
func (inst *Instance) Graph() *routing.Graph { return inst.graph }

// attachWorkload wires one run's measurement endpoints and traffic
// sources into the (fresh or just-Reset) network, in the order that is
// part of the determinism contract: every flow's sink in flow order,
// then every flow's source in flow order, then mobility. Build and
// Reset share it, which is what makes a Reset-then-run schedule the
// same t=0 event sequence as a build-then-run.
func (inst *Instance) attachWorkload() {
	spec, net := inst.Spec, inst.Net
	inst.udpSinks = make([]*app.UDPSink, len(spec.Flows))
	inst.tcpSinks = make([]*app.TCPSink, len(spec.Flows))
	inst.cbrs = make([]*app.CBR, len(spec.Flows))
	inst.bulks = make([]*app.Bulk, len(spec.Flows))
	for i, f := range spec.Flows {
		dst := net.Stations[f.Dst]
		switch f.Transport {
		case TransportUDP:
			sink := &app.UDPSink{}
			sink.ListenUDP(dst, f.Port)
			inst.udpSinks[i] = sink
		case TransportTCP:
			sink := &app.TCPSink{}
			sink.ListenTCP(dst, f.Port)
			inst.tcpSinks[i] = sink
		}
	}
	for i, f := range spec.Flows {
		src, dst := net.Stations[f.Src], net.Stations[f.Dst]
		switch f.Transport {
		case TransportUDP:
			cbr := app.NewCBR(net, src, dst.Addr(), f.Port, f.PacketSize, f.Interval.D())
			cbr.Start()
			inst.cbrs[i] = cbr
		case TransportTCP:
			inst.bulks[i] = app.StartBulk(net, src, dst.Addr(), f.Port, f.PacketSize)
		}
	}

	if m := spec.Mobility; m != nil {
		inst.startMobility(m)
	}
}

// Reset re-seeds the instance in place for a new replication, reusing
// the built network instead of compiling the spec from scratch: the
// topology is re-drawn (and any NearestDst flows re-paired) under the
// new seed, every protocol layer returns to its just-built state via
// node.Network.Reset, and fresh sinks and sources attach at time zero.
// The result of Reset(s) followed by Run is bit-identical to
// Build-with-seed-s followed by Run; TestReplicateReuseMatchesRebuild
// pins this for the preset library.
//
// Station count, MAC configuration and radio profiles come from the
// spec and do not depend on the seed, so they survive — that reuse is
// the point.
func (inst *Instance) Reset(seed uint64) error {
	s := inst.orig
	s.Seed = seed
	positions, flows, err := s.check()
	if err != nil {
		return err
	}
	s.Flows = flows
	inst.Net.Reset(seed, positions)
	// The kernels' counters just rewound to zero; rebase the publisher
	// so the next publish reports only this replication's growth.
	inst.pub.rebase(inst)
	inst.Spec = s
	if err := inst.wireRouting(positions, true); err != nil {
		return err
	}
	inst.wireTracer()
	inst.attachWorkload()
	return inst.installFaults(positions)
}

// startMobility wires the movement model into the scheduler.
func (inst *Instance) startMobility(m *Mobility) {
	w := node.DefaultWaypoint()
	if m.Width > 0 {
		w.Width = m.Width
	}
	if m.Height > 0 {
		w.Height = m.Height
	}
	if m.MinSpeed > 0 {
		w.MinSpeed = m.MinSpeed
	}
	if m.MaxSpeed > 0 {
		w.MaxSpeed = m.MaxSpeed
	}
	if m.Pause > 0 {
		w.Pause = m.Pause.D()
	}
	if m.Tick > 0 {
		w.Tick = m.Tick.D()
	}
	movers := m.Stations
	if len(movers) == 0 {
		movers = make([]int, len(inst.Net.Stations))
		for i := range movers {
			movers[i] = i
		}
	}
	for _, i := range movers {
		w.Drive(inst.Net, inst.Net.Stations[i])
	}
}

// FlowResult reports one flow's end-to-end outcome.
type FlowResult struct {
	Flow      int       `json:"flow"`
	Src       int       `json:"src"`
	Dst       int       `json:"dst"`
	Transport Transport `json:"transport"`

	// AppSent counts UDP datagrams handed to the transport, or TCP
	// segments transmitted (including retransmissions).
	AppSent uint64 `json:"app_sent"`
	// Received counts UDP datagrams delivered to the sink; for TCP it is
	// delivered bytes divided by the flow packet size.
	Received uint64 `json:"received"`
	// Bytes is the application payload delivered end to end.
	Bytes uint64 `json:"bytes"`
	// Gaps and Reorders come from the UDP sink's sequence accounting
	// (zero for TCP, which repairs loss internally).
	Gaps     uint64 `json:"gaps"`
	Reorders uint64 `json:"reorders"`

	// GoodputMbps and GoodputKbps are the delivered application rate
	// over the horizon.
	GoodputMbps float64 `json:"goodput_mbps"`
	GoodputKbps float64 `json:"goodput_kbps"`

	// Sender MAC counters: the mechanism-level story behind the goodput.
	// The MAC keeps them per station, not per flow, so flows sharing a
	// source station report the same (combined) values.
	Retries       uint64 `json:"retries"`
	TxDrops       uint64 `json:"tx_drops"`
	EIFSDeferrals uint64 `json:"eifs_deferrals"`

	// Hops is the MAC hop count the flow's most recently delivered
	// packet actually traveled (TTL accounting at the destination): 1
	// for a direct link, 0 when nothing was delivered end to end.
	Hops int `json:"hops"`

	// Graceful-degradation metrics, populated only for UDP flows of
	// faulted runs (a "faults" block in the spec). Attempts counts every
	// datagram the source offered, delivered or not; DeliveryRatio is
	// Received/Attempts. DowntimeLoss is the share of the loss
	// attributable to a crashed endpoint: sends the source's own dead
	// MAC refused, plus offered instants while the destination was down.
	// RecoveredFaults/RecoveryMeanMs/RecoveryMaxMs summarize route
	// recovery: each crash or partition onset starts a clock that the
	// flow's next delivery stops; UnrecoveredFaults counts clocks still
	// running at the end of the run.
	Attempts          uint64  `json:"attempts,omitempty"`
	DeliveryRatio     float64 `json:"delivery_ratio,omitempty"`
	DowntimeLoss      uint64  `json:"downtime_loss,omitempty"`
	RecoveredFaults   uint64  `json:"recovered_faults,omitempty"`
	UnrecoveredFaults int     `json:"unrecovered_faults,omitempty"`
	RecoveryMeanMs    float64 `json:"recovery_mean_ms,omitempty"`
	RecoveryMaxMs     float64 `json:"recovery_max_ms,omitempty"`
}

// StationResult reports one station's MAC and network-layer counters
// after the run.
type StationResult struct {
	Station       int    `json:"station"`
	FramesSent    uint64 `json:"frames_sent"`
	FramesDecoded uint64 `json:"frames_decoded"`
	Retries       uint64 `json:"retries"`
	TxDrops       uint64 `json:"tx_drops"`
	EIFSDeferrals uint64 `json:"eifs_deferrals"`
	PHYErrors     uint64 `json:"phy_errors"`

	// Network-layer counters (network.Stack): locally originated
	// packets, locally delivered packets, packets relayed for others,
	// and packets dropped (no route, TTL expiry, queue-full, decode).
	// Forwarding drops were invisible to every experiment before these.
	NetSent      uint64 `json:"net_sent"`
	NetReceived  uint64 `json:"net_received"`
	NetForwarded uint64 `json:"net_forwarded"`
	NetDropped   uint64 `json:"net_dropped"`

	// Control-plane overhead (dsdv): advertisement broadcasts sent and
	// their network-layer bytes. Zero for static routing, which spends
	// no airtime.
	CtlAdverts uint64 `json:"ctl_adverts,omitempty"`
	CtlBytes   uint64 `json:"ctl_bytes,omitempty"`

	// Up/down accounting under faults (populated only for faulted
	// runs): time spent up and crashed over the horizon, and the number
	// of crash windows that hit the station.
	UpTime   Duration `json:"up_time,omitempty"`
	DownTime Duration `json:"down_time,omitempty"`
	Crashes  int      `json:"crashes,omitempty"`
}

// Result is one scenario run's complete outcome.
type Result struct {
	Name     string   `json:"name"`
	Seed     uint64   `json:"seed"`
	Duration Duration `json:"duration"`
	// Routing names the route control plane ("static", "dsdv"), empty
	// for classic single-hop scenarios.
	Routing string `json:"routing,omitempty"`

	Flows    []FlowResult    `json:"flows"`
	Stations []StationResult `json:"stations"`

	// Fairness is Jain's index over the per-flow goodputs: the scalar
	// the paper's four-station figures are really about.
	Fairness float64 `json:"fairness"`
}

// LogicalEvents counts the run so far in logical events, the unit
// ns/logical-event figures divide by: every fired scheduler event,
// minus the two pooled batch actions the medium schedules per
// transmission, plus the two per-receiver arrival edges (start and end)
// that batching folded into them. Each arrival edge settles into
// exactly one radio verdict (decoded, errored or missed), so the
// verdict counters count the edges. It is the event stream the kernel
// ran before arrivals were batched, so the unit stays comparable
// across kernel changes; random-1024 at seed 42 runs 3 695 653 of them.
func (inst *Instance) LogicalEvents() uint64 {
	var edges uint64
	for _, st := range inst.Net.Stations {
		edges += st.Radio.FramesDecoded + st.Radio.FramesErrored + st.Radio.FramesMissed
	}
	return inst.Net.Fired() - 2*inst.Net.Medium.Transmissions + 2*edges
}

// Collect gathers the instance's metrics over the given horizon. It
// does not advance the simulation; call it after driving Net yourself.
func (inst *Instance) Collect(horizon time.Duration) Result {
	// Flush the kernel counters into the obs registry (no-op with obs
	// off). Strictly read-only with respect to the Result below: a run
	// reports byte-identical metrics whether or not anyone is watching.
	inst.pub.publish(inst)
	res := Result{
		Name:     inst.Spec.Name,
		Seed:     inst.Spec.Seed,
		Duration: Duration(horizon),
	}
	if inst.Spec.Routing != nil {
		res.Routing = inst.Spec.Routing.Protocol
	}
	res.Flows = make([]FlowResult, 0, len(inst.Spec.Flows))
	res.Stations = make([]StationResult, 0, len(inst.Net.Stations))
	kbps := make([]float64, 0, len(inst.Spec.Flows))
	for i, f := range inst.Spec.Flows {
		src := inst.Net.Stations[f.Src]
		fr := FlowResult{
			Flow: i, Src: f.Src, Dst: f.Dst, Transport: f.Transport,
			Retries:       src.MAC.Counters.Retries(),
			TxDrops:       src.MAC.Counters.TxDrops,
			EIFSDeferrals: src.MAC.Counters.EIFSDeferrals,
		}
		switch f.Transport {
		case TransportUDP:
			sink := inst.udpSinks[i]
			fr.AppSent = inst.cbrs[i].Sent
			fr.Received = sink.Received
			fr.Bytes = sink.Bytes
			fr.Gaps = sink.Gaps
			fr.Reorders = sink.Reorders
			fr.GoodputMbps = sink.ThroughputMbps(horizon)
		case TransportTCP:
			sink := inst.tcpSinks[i]
			fr.AppSent = inst.bulks[i].Conn().Stats.SegsSent
			fr.Bytes = sink.Bytes
			fr.Received = sink.Bytes / uint64(f.PacketSize)
			fr.GoodputMbps = sink.ThroughputMbps(horizon)
		}
		fr.GoodputKbps = stats.Kbps(fr.Bytes, horizon)
		// The stack only tracks TTL-derived hop counts under a routing
		// control plane (see network.Stack.HopsFrom); without one every
		// delivery is by definition direct.
		if inst.Spec.Routing != nil {
			fr.Hops = inst.Net.Stations[f.Dst].Net.HopsFrom(src.Addr())
		} else if fr.Received > 0 {
			fr.Hops = 1
		}
		inst.collectFaultFlow(&fr, i)
		res.Flows = append(res.Flows, fr)
		kbps = append(kbps, fr.GoodputKbps)
	}
	var upDown []faults.UpDown
	if inst.faultSched != nil {
		upDown = inst.faultSched.StationUpDown()
	}
	for i, st := range inst.Net.Stations {
		sr := StationResult{
			Station:       i,
			FramesSent:    st.Radio.FramesSent,
			FramesDecoded: st.Radio.FramesDecoded,
			Retries:       st.MAC.Counters.Retries(),
			TxDrops:       st.MAC.Counters.TxDrops,
			EIFSDeferrals: st.MAC.Counters.EIFSDeferrals,
			PHYErrors:     st.MAC.Counters.PHYErrors,
			NetSent:       st.Net.Sent,
			NetReceived:   st.Net.Received,
			NetForwarded:  st.Net.Forwarded,
			NetDropped:    st.Net.Dropped,
		}
		if inst.routers != nil {
			sr.CtlAdverts = inst.routers[i].Counters.AdvertsSent
			sr.CtlBytes = inst.routers[i].Counters.ControlBytes
		}
		if upDown != nil {
			sr.DownTime = Duration(upDown[i].Down)
			sr.UpTime = Duration(horizon - upDown[i].Down)
			sr.Crashes = upDown[i].Crashes
		}
		res.Stations = append(res.Stations, sr)
	}
	res.Fairness = stats.JainFairness(kbps...)
	return res
}

// Run compiles the spec, drives the simulation for the spec's horizon,
// and returns the per-flow and per-station metrics.
func Run(spec Spec) (Result, error) {
	inst, err := Build(spec)
	if err != nil {
		return Result{}, err
	}
	horizon := inst.Spec.Duration.D()
	inst.Net.Run(horizon)
	return inst.Collect(horizon), nil
}

// MustRun is Run for presets that are valid by construction; it panics
// on error.
func MustRun(spec Spec) Result {
	res, err := Run(spec)
	if err != nil {
		panic(fmt.Sprintf("scenario: %v", err))
	}
	return res
}
