package adhocsim

// One benchmark per table and figure of the paper's evaluation, plus
// ablation benches for the design choices called out in DESIGN.md.
//
// Each bench regenerates its artifact per iteration and reports the
// headline quantities through b.ReportMetric, so
//
//	go test -bench=. -benchmem
//
// prints the same rows/series the paper reports (in metric form). The
// simulated horizons are chosen so one iteration is meaningful yet
// cheap; cmd/adhocsim runs the long-form versions.

import (
	"testing"
	"time"

	"adhocsim/internal/experiments"
	"adhocsim/internal/phy"
	"adhocsim/internal/scenario"
)

const benchHorizon = 2 * time.Second

// BenchmarkTable1Constants regenerates the protocol-parameter table
// (pure formatting; it exists so every paper artifact has a bench).
func BenchmarkTable1Constants(b *testing.B) {
	var n int
	for i := 0; i < b.N; i++ {
		n = len(experiments.RenderTable1())
	}
	b.ReportMetric(float64(n), "table_bytes")
	b.ReportMetric(phy.EIFS().Seconds()*1e6, "eifs_us")
}

// BenchmarkTable2MaxThroughput evaluates Equations (1)/(2) across the
// full rate × payload × access-mode grid of the paper's Table 2.
func BenchmarkTable2MaxThroughput(b *testing.B) {
	var rows []Table2Row
	for i := 0; i < b.N; i++ {
		rows = Table2()
	}
	b.ReportMetric(rows[0].NoRTS, "Mbps_11_512_basic")
	b.ReportMetric(rows[0].RTS, "Mbps_11_512_rts")
	b.ReportMetric(rows[1].NoRTS, "Mbps_11_1024_basic")
	b.ReportMetric(rows[7].NoRTS, "Mbps_1_1024_basic")
}

// BenchmarkFigure2TwoNodeThroughput runs the §3.1 single-session
// experiments at 11 Mbit/s: UDP and TCP, basic access and RTS/CTS,
// reporting measured vs analytic throughput.
func BenchmarkFigure2TwoNodeThroughput(b *testing.B) {
	var cells []experiments.Figure2Cell
	for i := 0; i < b.N; i++ {
		cells = Figure2(Rate11, uint64(i), benchHorizon)
	}
	b.ReportMetric(cells[0].Measured, "Mbps_udp_basic")
	b.ReportMetric(cells[0].Ideal, "Mbps_udp_basic_ideal")
	b.ReportMetric(cells[1].Measured, "Mbps_udp_rts")
	b.ReportMetric(cells[2].Measured, "Mbps_tcp_basic")
	b.ReportMetric(cells[3].Measured, "Mbps_tcp_rts")
}

// BenchmarkFigure3LossVsDistance sweeps packet loss against distance for
// all four rates and reports each rate's 50 %-loss crossing (the
// transmission range the curve implies).
func BenchmarkFigure3LossVsDistance(b *testing.B) {
	var curves map[Rate][]LossPoint
	for i := 0; i < b.N; i++ {
		curves = Figure3(uint64(i), 60)
	}
	for _, r := range []Rate{Rate1, Rate2, Rate5_5, Rate11} {
		b.ReportMetric(experiments.CrossingDistance(curves[r], 0.5), "m_range_"+r.String())
	}
}

// BenchmarkFigure4Weather compares the 1 Mbit/s loss curve on the two
// weather profiles and reports the day-to-day range spread.
func BenchmarkFigure4Weather(b *testing.B) {
	var curves []experiments.Figure4Curve
	for i := 0; i < b.N; i++ {
		curves = Figure4(uint64(i), 60)
	}
	clear := experiments.CrossingDistance(curves[0].Points, 0.5)
	damp := experiments.CrossingDistance(curves[1].Points, 0.5)
	b.ReportMetric(clear, "m_range_clear")
	b.ReportMetric(damp, "m_range_damp")
	b.ReportMetric(clear-damp, "m_day_spread")
}

// BenchmarkTable3Ranges derives the per-rate transmission-range
// estimates from measured loss curves, as the paper derives Table 3
// from Figure 3.
func BenchmarkTable3Ranges(b *testing.B) {
	var rows []RangeEstimate
	for i := 0; i < b.N; i++ {
		rows = Table3(uint64(i), 60)
	}
	for _, r := range rows {
		name := "m_data_" + r.Rate.String()
		if r.Control {
			name = "m_ctrl_" + r.Rate.String()
		}
		b.ReportMetric(r.Measured, name)
	}
}

// reportFourNode emits the per-session goodputs of one figure panel.
func reportFourNode(b *testing.B, cells []experiments.FourNodeCell) {
	b.Helper()
	for _, c := range cells {
		tag := "udp"
		if c.Transport == TCP {
			tag = "tcp"
		}
		if c.RTSCTS {
			tag += "_rts"
		} else {
			tag += "_basic"
		}
		b.ReportMetric(c.Result.Session1Kbps, "kbps_s1_"+tag)
		b.ReportMetric(c.Result.Session2Kbps, "kbps_s2_"+tag)
	}
}

// BenchmarkFigure7FourNode11Mbps runs the asymmetric §3.3 scenario at
// 11 Mbit/s (Figures 6–7): sessions S1→S2 and S3→S4 at 25/82.5/25 m.
func BenchmarkFigure7FourNode11Mbps(b *testing.B) {
	var cells []experiments.FourNodeCell
	for i := 0; i < b.N; i++ {
		cells = Figure7(uint64(i), benchHorizon)
	}
	reportFourNode(b, cells)
}

// BenchmarkFigure9FourNode2Mbps runs the same scenario at 2 Mbit/s
// (Figures 8–9), where the paper finds the system more balanced.
func BenchmarkFigure9FourNode2Mbps(b *testing.B) {
	var cells []experiments.FourNodeCell
	for i := 0; i < b.N; i++ {
		cells = Figure9(uint64(i), benchHorizon)
	}
	reportFourNode(b, cells)
}

// BenchmarkFigure11Symmetric11Mbps runs the symmetric scenario
// (Figures 10–11): sessions S1→S2 and S4→S3 at 25/62.5/25 m, 11 Mbit/s.
func BenchmarkFigure11Symmetric11Mbps(b *testing.B) {
	var cells []experiments.FourNodeCell
	for i := 0; i < b.N; i++ {
		cells = Figure11(uint64(i), benchHorizon)
	}
	reportFourNode(b, cells)
}

// BenchmarkFigure12Symmetric2Mbps runs the symmetric scenario at
// 2 Mbit/s (Figure 12).
func BenchmarkFigure12Symmetric2Mbps(b *testing.B) {
	var cells []experiments.FourNodeCell
	for i := 0; i < b.N; i++ {
		cells = Figure12(uint64(i), benchHorizon)
	}
	reportFourNode(b, cells)
}

// --- Macro benchmarks ----------------------------------------------------

// BenchmarkScenarioSteadyState measures the marginal cost of one more
// replication of the full random-1024 preset — 1024 stations scattered
// over a 3.4×3.4 km field, eight paced nearest-neighbor UDP flows, 5 s
// horizon — on a reused arena: the network is built once outside the
// timer and each iteration re-seeds it (Instance.Reset) and runs the
// whole horizon with traffic, which is exactly the per-replication work
// of a sweep. It is the macro counterpart of
// BenchmarkMedium1024Stations: it exercises the whole stack (CBR → UDP
// → network → MAC → medium → PHY) instead of the medium alone, so it
// is the benchmark the PHY-arithmetic caches and the batch event
// kernel are judged against (BENCH_PR4.json records before/after; the
// before state had no Reset, so its per-replication cost necessarily
// included a rebuild).
func BenchmarkScenarioSteadyState(b *testing.B) {
	spec, err := scenario.Preset("random-1024")
	if err != nil {
		b.Fatal(err)
	}
	inst, err := scenario.Build(spec)
	if err != nil {
		b.Fatal(err)
	}
	horizon := inst.Spec.Duration.D()
	var events, delivered uint64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := inst.Reset(spec.Seed); err != nil {
			b.Fatal(err)
		}
		inst.Net.Run(horizon)
		res := inst.Collect(horizon)
		events += inst.Net.Sched.Fired()
		delivered = 0
		for _, f := range res.Flows {
			delivered += f.Received
		}
		if delivered == 0 {
			b.Fatal("scenario delivered nothing: the bench is not exercising traffic")
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(events), "ns/event")
	b.ReportMetric(float64(events)/float64(b.N), "events/op")
	b.ReportMetric(float64(delivered), "pkts_delivered")
}

// BenchmarkScenarioReplicate measures a serial replication sweep of a
// small saturating preset through the public Replicate entry point,
// where per-replication network construction is a visible fraction of
// the work — the case the arena-reuse path (build once per worker,
// Reset per replication) is for.
func BenchmarkScenarioReplicate(b *testing.B) {
	spec, err := scenario.Preset("grid-3x3")
	if err != nil {
		b.Fatal(err)
	}
	spec.Duration = scenario.Duration(time.Second)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := scenario.Replicate(spec, 8, 1, nil); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkChain8Multihop measures the chain-8 preset end to end: DSDV
// discovering an 8-station string on the air and relaying a paced UDP
// flow over 7 hops. It is the routing subsystem's macro benchmark — the
// control plane (advertisement broadcasts, triggered updates, neighbor
// admission) and the forwarding path (per-hop route lookup, TTL
// accounting) both sit on the measured path, so regressions in either
// show up here. The arena is built once and re-seeded per iteration,
// exercising the routing Reset path the replication sweeps rely on.
func BenchmarkChain8Multihop(b *testing.B) {
	spec, err := scenario.Preset("chain-8")
	if err != nil {
		b.Fatal(err)
	}
	spec.Duration = scenario.Duration(4 * time.Second)
	inst, err := scenario.Build(spec)
	if err != nil {
		b.Fatal(err)
	}
	horizon := inst.Spec.Duration.D()
	var res scenario.Result
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := inst.Reset(spec.Seed); err != nil {
			b.Fatal(err)
		}
		inst.Net.Run(horizon)
		res = inst.Collect(horizon)
		if res.Flows[0].Received == 0 {
			b.Fatal("chain delivered nothing: the bench is not exercising forwarding")
		}
	}
	var forwarded, ctlBytes uint64
	for _, st := range res.Stations {
		forwarded += st.NetForwarded
		ctlBytes += st.CtlBytes
	}
	b.ReportMetric(res.Flows[0].GoodputKbps, "kbps_goodput")
	b.ReportMetric(float64(res.Flows[0].Hops), "hops")
	b.ReportMetric(float64(forwarded), "pkts_forwarded")
	b.ReportMetric(float64(ctlBytes), "ctl_bytes")
}

// --- Ablations -----------------------------------------------------------

// fig7 is the Figure 7 UDP/basic scenario the four-node ablations vary.
func fig7(seed uint64, profile *Profile) scenario.Spec {
	return experiments.FourNode{
		Rate: Rate11, D12: 25, D23: 82.5, D34: 25,
		Transport: UDP, Duration: benchHorizon, Seed: seed,
		Profile: profile,
	}.Spec()
}

// sessions runs spec and returns its two sessions' goodputs in kbit/s.
func sessions(spec scenario.Spec) (s1, s2 float64) {
	f := scenario.MustRun(spec).Flows
	return f[0].GoodputKbps, f[1].GoodputKbps
}

// BenchmarkAblationEIFS quantifies how much of the four-node unfairness
// the EIFS rule contributes: session ratios with EIFS on vs off.
func BenchmarkAblationEIFS(b *testing.B) {
	var on1, on2, off1, off2 float64
	for i := 0; i < b.N; i++ {
		spec := fig7(uint64(i), nil)
		on1, on2 = sessions(spec)
		spec.MAC.DisableEIFS = true
		off1, off2 = sessions(spec)
	}
	b.ReportMetric(on2/on1, "s2s1_ratio_eifs_on")
	b.ReportMetric(off2/off1, "s2s1_ratio_eifs_off")
}

// BenchmarkAblationCapture disables message-in-message capture to show
// its effect on the four-node scenario.
func BenchmarkAblationCapture(b *testing.B) {
	noCapture := DefaultProfile()
	noCapture.CaptureMarginDB = 1e9
	var on1, on2, off1, off2 float64
	for i := 0; i < b.N; i++ {
		on1, on2 = sessions(fig7(uint64(i), nil))
		off1, off2 = sessions(fig7(uint64(i), noCapture))
	}
	b.ReportMetric(on1+on2, "kbps_total_capture_on")
	b.ReportMetric(off1+off2, "kbps_total_capture_off")
}

// BenchmarkAblationDeferResponses measures the testbed firmware quirk
// (carrier sense before SIFS responses) the paper's §3.3 describes.
func BenchmarkAblationDeferResponses(b *testing.B) {
	var std, quirk float64
	for i := 0; i < b.N; i++ {
		spec := fig7(uint64(i), nil)
		std, _ = sessions(spec)
		spec.MAC.DeferResponses = true
		quirk, _ = sessions(spec)
	}
	b.ReportMetric(std, "kbps_s1_standard")
	b.ReportMetric(quirk, "kbps_s1_quirk")
}

// BenchmarkAblationShadowingSigma sweeps the shadowing σ to show how
// channel variability drives the loss-curve width (Figure 3's spread).
func BenchmarkAblationShadowingSigma(b *testing.B) {
	for _, sigma := range []float64{0, 2, 4, 6} {
		prof := DefaultProfile()
		prof.Fading.SigmaDB = sigma
		var pts []LossPoint
		for i := 0; i < b.N; i++ {
			pts = RunLossSweep(LossSweep{
				Rate: Rate11, Packets: 150, Seed: uint64(i), Profile: prof,
				Distances: []float64{15, 20, 25, 30, 35, 40, 45, 50, 55, 60},
			})
		}
		// Width of the transition region on the monotone envelope of the
		// measured curve (sample noise can locally dip).
		env := monotoneEnvelope(pts)
		width := experiments.CrossingDistance(env, 0.9) - experiments.CrossingDistance(env, 0.1)
		b.ReportMetric(width, "m_width_sigma"+fmtSigma(sigma))
	}
}

// monotoneEnvelope returns the running-maximum loss curve.
func monotoneEnvelope(pts []LossPoint) []LossPoint {
	out := append([]LossPoint(nil), pts...)
	for i := 1; i < len(out); i++ {
		if out[i].Loss < out[i-1].Loss {
			out[i].Loss = out[i-1].Loss
		}
	}
	return out
}

func fmtSigma(s float64) string {
	switch s {
	case 0:
		return "0"
	case 2:
		return "2"
	case 4:
		return "4"
	default:
		return "6"
	}
}

// BenchmarkAblationARF compares ARF dynamic rate switching against the
// best and worst fixed rates on a 60 m link (where 5.5 Mbit/s is the
// right choice and 11 Mbit/s barely works).
func BenchmarkAblationARF(b *testing.B) {
	run := func(seed uint64, arf bool, rate Rate) float64 {
		spec := TwoNode{
			Rate: rate, Distance: 60, Transport: UDP,
			Duration: benchHorizon, Seed: seed, ARF: arf,
		}.Spec()
		return scenario.MustRun(spec).Flows[0].GoodputMbps
	}
	var arf, fixed11, fixed55 float64
	for i := 0; i < b.N; i++ {
		arf = run(uint64(i), true, Rate11)
		fixed11 = run(uint64(i), false, Rate11)
		fixed55 = run(uint64(i), false, Rate5_5)
	}
	b.ReportMetric(arf, "Mbps_arf")
	b.ReportMetric(fixed11, "Mbps_fixed11")
	b.ReportMetric(fixed55, "Mbps_fixed55")
}

// BenchmarkAblationMobilityRangeVsBreaks quantifies §3.2's closing
// remark: shorter transmission ranges break links (and thus routes) more
// often under mobility.
func BenchmarkAblationMobilityRangeVsBreaks(b *testing.B) {
	run := func(seed uint64, rangeM float64) int {
		net := NewNetwork(seed)
		a := net.AddStation(Pos(60, 60), MACConfig{})
		c := net.AddStation(Pos(80, 60), MACConfig{})
		w := DefaultWaypoint()
		// A 120 m field: courtyard-scale, where a 250 m (ns-2) range never
		// breaks but the measured ranges break constantly.
		w.Width, w.Height = 120, 120
		w.MinSpeed, w.MaxSpeed = 5, 10 // vehicular, to accumulate breaks fast
		w.Pause = 0
		w.Drive(net, a)
		w.Drive(net, c)
		var lm LinkMonitor
		lm.Watch(net, a, c, rangeM, 100*time.Millisecond)
		net.Run(10 * time.Minute)
		return lm.Breaks + lm.Repairs // link-state transitions = route events
	}
	var at30, at95, at250 int
	for i := 0; i < b.N; i++ {
		at30 = run(uint64(i), 30)   // measured 11 Mbit/s range
		at95 = run(uint64(i), 95)   // measured 2 Mbit/s range
		at250 = run(uint64(i), 250) // the range ns-2 assumes
	}
	b.ReportMetric(float64(at30), "transitions_range30m")
	b.ReportMetric(float64(at95), "transitions_range95m")
	b.ReportMetric(float64(at250), "transitions_range250m")
}
