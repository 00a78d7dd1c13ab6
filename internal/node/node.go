// Package node composes the full per-station protocol stack — radio, DCF
// MAC, network layer, UDP and TCP — and provides the Network builder the
// experiments and examples use to lay out ad hoc topologies.
package node

import (
	"fmt"
	"time"

	"adhocsim/internal/frame"
	"adhocsim/internal/mac"
	"adhocsim/internal/medium"
	"adhocsim/internal/network"
	"adhocsim/internal/phy"
	"adhocsim/internal/sim"
	"adhocsim/internal/transport"
)

// Station is one ad hoc node: a laptop of the paper's testbed.
type Station struct {
	ID    uint32
	MAC   *mac.MAC
	Radio *medium.Radio
	Net   *network.Stack
	UDP   *transport.UDP
	TCP   *transport.TCP

	// Sched is the scheduler owning this station's events: the network's
	// global scheduler normally, the station's region scheduler when the
	// network runs in parallel mode. Timers and traffic sources acting on
	// behalf of this station must schedule here and nowhere else.
	Sched *sim.Scheduler
}

// Addr returns the station's network address inside 10.0.0.0/8
// (10.0.0.<id> for ids below 256; higher ids use the upper host octets).
func (s *Station) Addr() network.Addr { return network.StationAddr(s.ID) }

// HWAddr returns the station's MAC address.
func (s *Station) HWAddr() frame.Addr { return frame.AddrFromID(s.ID) }

// Network owns the shared simulation state of one experiment: scheduler,
// random source, radio profile, medium, and stations.
type Network struct {
	Sched    *sim.Scheduler
	Source   *sim.Source
	Medium   *medium.Medium
	Profile  *phy.Profile
	MSS      int
	Stations []*Station

	// Exec and Grid are set by WithParallel: the region executor and the
	// field partition of the space-partitioned parallel mode. When Exec
	// is non-nil every station binds to its region's scheduler at add
	// time and Run drives the executor instead of Sched.
	Exec *sim.Exec
	Grid phy.RegionGrid

	partitioned bool // Medium.SetPartition installed (first Run)

	// resolver is neighborHW as a func value, made once and shared by
	// every station's stack.
	resolver func(network.Addr) (frame.Addr, bool)
}

// Option configures a Network.
type Option func(*Network)

// WithProfile overrides the default radio profile.
func WithProfile(p *phy.Profile) Option { return func(n *Network) { n.Profile = p } }

// WithMSS sets the TCP maximum segment size (the paper uses 512-byte
// application packets).
func WithMSS(mss int) Option { return func(n *Network) { n.MSS = mss } }

// WithParallel switches the network to the space-partitioned parallel
// execution mode: the field is partitioned by grid, every station's
// events run on its region's scheduler, and Run drives a conservative
// region executor with the given worker count (1 services every region
// from the calling goroutine under the same window protocol).
//
// reach is the field's relevance radius (medium.FieldReach over every
// profile in play): the farthest one transmission can influence
// anything, which prices the lookahead between each pair of regions.
// It must be finite — a degenerate radio model has no relevance radius
// and must stay on the sequential kernel. Mobility and Reset are not
// supported in parallel mode.
func WithParallel(grid phy.RegionGrid, reach float64, workers int) Option {
	return func(n *Network) {
		ex := sim.NewExec(grid.Regions(), func(a, b int) time.Duration {
			return phy.MinPropagationDelay(grid.MinRegionDist(a, b), reach)
		})
		ex.SetWorkers(workers)
		n.Exec = ex
		n.Grid = grid
	}
}

// NewNetwork creates an empty network seeded for reproducibility.
func NewNetwork(seed uint64, opts ...Option) *Network {
	n := &Network{
		Sched:   sim.NewScheduler(),
		Source:  sim.NewSource(seed),
		Profile: phy.DefaultProfile(),
		MSS:     transport.DefaultMSS,
	}
	n.Medium = medium.New(n.Sched, n.Source)
	n.resolver = n.neighborHW
	for _, opt := range opts {
		opt(n)
	}
	return n
}

// AddStation creates a station at pos with the given MAC configuration
// (Address is assigned automatically) and wires it into the network:
// every station can resolve every other station's link-layer address —
// the testbed equivalent of a warm ARP cache, served by a computed
// resolver rather than O(stations²) table entries.
func (n *Network) AddStation(pos phy.Position, cfg mac.Config) *Station {
	return n.AddStationProfile(pos, cfg, nil)
}

// AddStationProfile is AddStation with a per-station radio profile
// (heterogeneous NICs, per-station weather). A nil profile selects the
// network's shared profile, making it exactly AddStation.
func (n *Network) AddStationProfile(pos phy.Position, cfg mac.Config, profile *phy.Profile) *Station {
	if profile == nil {
		profile = n.Profile
	}
	id := uint32(len(n.Stations) + 1)
	if id > network.MaxStationID {
		panic(fmt.Sprintf("node: too many stations (%d)", id))
	}
	cfg.Address = frame.AddrFromID(id)
	sched := n.Sched
	if n.Exec != nil {
		sched = n.Exec.Sched(n.Grid.RegionOf(pos))
	}
	m := mac.New(sched, n.Source, cfg)
	st := &Station{ID: id, MAC: m, Sched: sched}
	st.Radio = n.Medium.AddRadio(id, pos, profile, m)
	m.Attach(st.Radio)
	st.Net = network.NewStack(m, network.StationAddr(id))
	st.UDP = transport.NewUDP(st.Net)
	st.TCP = transport.NewTCP(sched, n.Source, st.Net, n.MSS)
	// The transports' queue-space subscriptions are permanent wiring;
	// anything registered later (per-run traffic sources) is truncated
	// by Network.Reset.
	st.Net.FreezeSubscribers()

	st.Net.SetResolver(n.resolver)
	n.Stations = append(n.Stations, st)
	return st
}

// neighborHW computes the link-layer address of any station this
// network has built: the station's network address and MAC address are
// both pure functions of its id (network.StationAddr, frame.AddrFromID),
// so the per-stack warm ARP table collapses to arithmetic plus a bound
// check. Addresses beyond the built station set fail resolution exactly
// as a missing table entry would. The closure reads only the station
// count, which is frozen before any event runs, so it is safe from
// every region goroutine in parallel mode.
func (n *Network) neighborHW(ip network.Addr) (frame.Addr, bool) {
	id, ok := network.StationID(ip)
	if !ok || id > uint32(len(n.Stations)) {
		return frame.Addr{}, false
	}
	return frame.AddrFromID(id), true
}

// Run advances the simulation by d.
func (n *Network) Run(d time.Duration) {
	if n.Exec != nil {
		if !n.partitioned {
			n.Medium.SetPartition(n.Exec, n.Grid)
			n.partitioned = true
		}
		n.Exec.Run(n.Exec.Now() + d)
		n.Medium.FoldCounters()
		return
	}
	n.Sched.RunUntil(n.Sched.Now() + d)
}

// Fired returns the number of events executed so far, across all region
// schedulers in parallel mode.
func (n *Network) Fired() uint64 {
	if n.Exec != nil {
		return n.Exec.Fired()
	}
	return n.Sched.Fired()
}

// KernelStats sums the scheduler observability counters over every
// scheduler the network drives — the global one, or all region
// schedulers in parallel mode. Call it only between Runs (the counters
// are plain fields owned by the driving goroutines); it feeds the obs
// layer and never influences the simulation.
func (n *Network) KernelStats() sim.Stats {
	if n.Exec == nil {
		return n.Sched.Stats()
	}
	var agg sim.Stats
	for i := 0; i < n.Exec.Regions(); i++ {
		s := n.Exec.Sched(i).Stats()
		agg.Fired += s.Fired
		agg.Pushes += s.Pushes
		agg.FIFOAppends += s.FIFOAppends
		agg.CountdownSlots += s.CountdownSlots
		agg.Marks += s.Marks
	}
	return agg
}

// Reset re-seeds a built network for a fresh run without rebuilding it:
// the scheduler arena empties back to time zero, the random source
// re-roots at seed, and every layer of every station (radio, MAC,
// stack, UDP, TCP) returns to its just-built state, with station i
// re-placed at positions[i]. Station count, per-station MAC
// configuration and radio profiles are construction-time decisions and
// survive — which is exactly what makes Reset so much cheaper than
// rebuilding: the per-station stacks, the map allocations and the rng
// stream states are all reused.
//
// The per-station reset order mirrors AddStationProfile's construction
// order, so the t=0 events a reset network schedules (IBSS beacons) get
// the same sequence numbers as on a fresh build — a Reset-then-run is
// bit-identical to a build-then-run at the same seed (the scenario
// package's reuse tests pin this).
func (n *Network) Reset(seed uint64, positions []phy.Position) {
	if n.Exec != nil {
		// Region schedulers have no arena-reuse path yet, and replication
		// sweeps already parallelize across seeds (internal/runner) — the
		// scenario layer strips parallel specs before replicating.
		panic("node: Reset is not supported in parallel mode; rebuild the network instead")
	}
	if len(positions) != len(n.Stations) {
		panic(fmt.Sprintf("node: Reset with %d positions for %d stations", len(positions), len(n.Stations)))
	}
	n.Sched.Reset()
	n.Source.Reseed(seed)
	n.Medium.Reset()
	for i, st := range n.Stations {
		st.Radio.Reset(positions[i])
		st.MAC.Reset(n.Source)
		st.Net.Reset()
		st.UDP.Reset()
		st.TCP.Reset(n.Source)
	}
}

// Now returns the current simulated time.
func (n *Network) Now() time.Duration {
	if n.Exec != nil {
		return n.Exec.Now()
	}
	return n.Sched.Now()
}
