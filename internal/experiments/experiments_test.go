package experiments

import (
	"math"
	"strings"
	"testing"
	"time"

	"adhocsim/internal/phy"
)

// Shape assertions for every reproduced table/figure. Horizons are kept
// short (seconds of simulated time) so the suite stays fast; the benches
// run the full-length versions.

const testHorizon = 4 * time.Second

func TestFigure2UDPTracksIdeal(t *testing.T) {
	cells := Figure2(phy.Rate11, 11, testHorizon)
	if len(cells) != 4 {
		t.Fatalf("cells = %d, want 4", len(cells))
	}
	for _, c := range cells {
		switch c.Transport {
		case UDP:
			// The paper: "experimental results related to the UDP traffic
			// are very close to the maximum throughput computed
			// analytically."
			if dev := math.Abs(c.Measured-c.Ideal) / c.Ideal; dev > 0.05 {
				t.Errorf("UDP rts=%v: measured %.3f vs ideal %.3f (dev %.1f%%)",
					c.RTSCTS, c.Measured, c.Ideal, dev*100)
			}
		case TCP:
			// "in the presence of TCP traffic the measured throughput is
			// much lower than the theoretical maximum."
			if c.Measured >= 0.92*c.Ideal {
				t.Errorf("TCP rts=%v: measured %.3f not clearly below ideal %.3f",
					c.RTSCTS, c.Measured, c.Ideal)
			}
			if c.Measured < 0.4*c.Ideal {
				t.Errorf("TCP rts=%v: measured %.3f implausibly far below ideal %.3f",
					c.RTSCTS, c.Measured, c.Ideal)
			}
		}
	}
}

func TestFigure2OtherRates(t *testing.T) {
	// "Similar results have been also obtained ... when the NIC data
	// rate is set to 1, 2 or 5.5 Mbps."
	for _, rate := range []phy.Rate{phy.Rate2, phy.Rate5_5} {
		res := RunTwoNode(TwoNode{Rate: rate, Transport: UDP, Duration: testHorizon, Seed: 3})
		if dev := math.Abs(res.MeasuredMbps-res.IdealMbps) / res.IdealMbps; dev > 0.05 {
			t.Errorf("%v UDP: measured %.3f vs ideal %.3f", rate, res.MeasuredMbps, res.IdealMbps)
		}
	}
}

func TestFigure3CurveShapes(t *testing.T) {
	curves := Figure3(7, 120)
	prof := phy.DefaultProfile()
	for _, rate := range phy.Rates {
		pts := curves[rate]
		if len(pts) != len(Figure3Distances()) {
			t.Fatalf("%v: %d points", rate, len(pts))
		}
		// Loss near zero well inside the range, near one well outside.
		median := prof.MedianRange(rate)
		for _, p := range pts {
			if p.Distance < 0.6*median && p.Loss > 0.25 {
				t.Errorf("%v at %.0f m (inside range): loss %.2f", rate, p.Distance, p.Loss)
			}
			if p.Distance > 1.6*median && p.Loss < 0.75 {
				t.Errorf("%v at %.0f m (outside range): loss %.2f", rate, p.Distance, p.Loss)
			}
		}
	}
	// At any distance, faster rates lose at least as much (within noise).
	for i := range Figure3Distances() {
		for j := 1; j < len(phy.Rates); j++ {
			lo := curves[phy.Rates[j-1]][i].Loss
			hi := curves[phy.Rates[j]][i].Loss
			if hi < lo-0.15 {
				t.Errorf("at %.0f m: %v loss %.2f < %v loss %.2f",
					curves[phy.Rates[j]][i].Distance, phy.Rates[j], hi, phy.Rates[j-1], lo)
			}
		}
	}
}

func TestFigure4WeatherSpread(t *testing.T) {
	curves := Figure4(9, 120)
	if len(curves) != 2 {
		t.Fatalf("curves = %d", len(curves))
	}
	clear, damp := curves[0], curves[1]
	// The damp day's range must be visibly shorter: its 50% crossing
	// comes earlier.
	cClear := CrossingDistance(clear.Points, 0.5)
	cDamp := CrossingDistance(damp.Points, 0.5)
	if cDamp >= cClear {
		t.Fatalf("damp crossing %.1f m ≥ clear crossing %.1f m", cDamp, cClear)
	}
	if cClear-cDamp < 5 || cClear-cDamp > 60 {
		t.Fatalf("day-to-day spread = %.1f m, want 5–60 m (paper shows ≈20)", cClear-cDamp)
	}
}

func TestTable3RangesMatchPaper(t *testing.T) {
	rows := Table3(13, 150)
	if len(rows) != 6 {
		t.Fatalf("rows = %d, want 4 data + 2 control", len(rows))
	}
	for _, r := range rows {
		// Measured crossing within 20% of the paper's estimate.
		if dev := math.Abs(r.Measured-r.Paper) / r.Paper; dev > 0.20 {
			t.Errorf("%v (control=%v): measured %.1f m vs paper %.1f m",
				r.Rate, r.Control, r.Measured, r.Paper)
		}
	}
	// Control rows must be the basic rates only.
	if !rows[4].Control || !rows[5].Control {
		t.Fatal("last two rows must be control ranges")
	}
}

func TestFigure7AsymmetryAt11Mbps(t *testing.T) {
	cells := Figure7(42, testHorizon)
	for _, c := range cells {
		r := c.Result
		if c.Transport == UDP {
			// The paper's central §3.3 finding: the two sessions share
			// the channel unequally, and the starved sender is the one
			// deferring for EIFS. Which session wins is a property of
			// the seed (DESIGN.md, "The EIFS-asymmetry mechanism",
			// point 3); seed 42 is one where S1 loses.
			if r.Session2Kbps <= 1.2*r.Session1Kbps {
				t.Errorf("UDP rts=%v: s2 %.0f kbps not clearly above s1 %.0f kbps",
					c.RTSCTS, r.Session2Kbps, r.Session1Kbps)
			}
			if r.EIFS1 <= r.EIFS2 {
				t.Errorf("UDP rts=%v: EIFS1 %d ≤ EIFS2 %d; the EIFS mechanism should disfavor S1",
					c.RTSCTS, r.EIFS1, r.EIFS2)
			}
		} else {
			// "when the TCP protocol is used the differences between the
			// throughputs achieved by the two connections still exist but
			// are reduced." TCP's congestion control is very sensitive to
			// the seed over short horizons, so assert only that both
			// sessions stay alive and the combined goodput is plausible.
			if r.Session1Kbps+r.Session2Kbps < 200 {
				t.Errorf("TCP rts=%v: total %.0f kbps implausibly low",
					c.RTSCTS, r.Session1Kbps+r.Session2Kbps)
			}
		}
	}
}

func TestFigure9MoreBalancedAt2Mbps(t *testing.T) {
	f7 := Figure7(42, testHorizon)
	f9 := Figure9(42, testHorizon)
	// "in this case the system is more balanced from the throughput
	// standpoint": Jain fairness at 2 Mbit/s ≥ fairness at 11 Mbit/s for
	// the UDP panels.
	for i := range f9 {
		if f9[i].Transport != UDP {
			continue
		}
		if f9[i].Result.Fairness < f7[i].Result.Fairness-0.02 {
			t.Errorf("panel %d: 2 Mbit/s fairness %.3f < 11 Mbit/s fairness %.3f",
				i, f9[i].Result.Fairness, f7[i].Result.Fairness)
		}
		if f9[i].Result.Fairness < 0.9 {
			t.Errorf("panel %d: 2 Mbit/s fairness %.3f, want ≥ 0.9", i, f9[i].Result.Fairness)
		}
	}
}

func TestFigure11SymmetricScenario(t *testing.T) {
	cells := Figure11(42, testHorizon)
	for _, c := range cells {
		r := c.Result
		if r.Session1Kbps+r.Session2Kbps < 100 {
			t.Errorf("%v rts=%v: total %.0f kbps implausibly low",
				c.Transport, c.RTSCTS, r.Session1Kbps+r.Session2Kbps)
		}
		// The paper's Figure 11 shows session 1 persistently ahead — a
		// static channel asymmetry of that particular field and set of
		// cards. Our zero-mean fading model is symmetric by construction,
		// so the scenario is balanced in the long run and either session
		// may lead per seed (see DESIGN.md, "The EIFS-asymmetry mechanism"; Fading.StaticSigmaDB
		// reintroduces persistent asymmetry). Assert the scenario's
		// invariant instead: both sessions coexist.
		if c.Transport == UDP {
			lo := math.Min(r.Session1Kbps, r.Session2Kbps)
			hi := math.Max(r.Session1Kbps, r.Session2Kbps)
			if lo < 0.1*hi {
				t.Errorf("UDP rts=%v: sessions %.0f/%.0f kbps; symmetric scenario should not starve either",
					c.RTSCTS, r.Session1Kbps, r.Session2Kbps)
			}
		}
	}
}

func TestFigure12BalancedSymmetric2Mbps(t *testing.T) {
	cells := Figure12(42, testHorizon)
	for _, c := range cells {
		if c.Result.Fairness < 0.9 {
			t.Errorf("%v rts=%v: fairness %.2f, want ≥ 0.9 at 2 Mbit/s",
				c.Transport, c.RTSCTS, c.Result.Fairness)
		}
	}
}

func TestRTSCTSCostsThroughputEverywhere(t *testing.T) {
	for _, tr := range []Transport{UDP, TCP} {
		basic := RunTwoNode(TwoNode{Transport: tr, RTSCTS: false, Duration: testHorizon, Seed: 5})
		rts := RunTwoNode(TwoNode{Transport: tr, RTSCTS: true, Duration: testHorizon, Seed: 5})
		if rts.MeasuredMbps >= basic.MeasuredMbps {
			t.Errorf("%v: RTS %.3f ≥ basic %.3f", tr, rts.MeasuredMbps, basic.MeasuredMbps)
		}
	}
}

func TestDeterministicResults(t *testing.T) {
	a := RunTwoNode(TwoNode{Transport: UDP, Duration: time.Second, Seed: 99})
	b := RunTwoNode(TwoNode{Transport: UDP, Duration: time.Second, Seed: 99})
	if a != b {
		t.Fatalf("identical configs diverged: %+v vs %+v", a, b)
	}
	c := RunTwoNode(TwoNode{Transport: UDP, Duration: time.Second, Seed: 100})
	if a.SentPackets == c.SentPackets && a.MeasuredMbps == c.MeasuredMbps && a.Retries == c.Retries {
		t.Log("different seeds produced identical results (possible on a clean channel)")
	}
}

func TestCrossingDistance(t *testing.T) {
	pts := []LossPoint{{Distance: 10, Loss: 0}, {Distance: 20, Loss: 0.4}, {Distance: 30, Loss: 0.8}}
	got := CrossingDistance(pts, 0.5)
	if math.Abs(got-22.5) > 1e-9 {
		t.Fatalf("crossing = %.2f, want 22.5", got)
	}
	// Never crosses → last distance.
	flat := []LossPoint{{Distance: 10, Loss: 0.1}, {Distance: 20, Loss: 0.2}}
	if got := CrossingDistance(flat, 0.9); got != 20 {
		t.Fatalf("flat crossing = %v, want 20", got)
	}
	if got := CrossingDistance(nil, 0.5); got != 0 {
		t.Fatalf("empty crossing = %v", got)
	}
}

func TestRenderers(t *testing.T) {
	if s := RenderTable1(); !strings.Contains(s, "CW_min") || !strings.Contains(s, "20µs") {
		t.Errorf("Table 1 render missing content:\n%s", s)
	}
	if s := RenderTable2(); !strings.Contains(s, "11Mbps") || !strings.Contains(s, "paper") {
		t.Errorf("Table 2 render missing content:\n%s", s)
	}
	cells := []Figure2Cell{{Transport: UDP, Ideal: 3.3, Measured: 3.2}}
	if s := RenderFigure2(phy.Rate11, cells); !strings.Contains(s, "3.300") {
		t.Errorf("Figure 2 render missing content:\n%s", s)
	}
	rows := []RangeEstimate{{Rate: phy.Rate11, Measured: 30, Analytic: 30, Paper: 30}}
	if s := RenderTable3(rows); !strings.Contains(s, "30.0") {
		t.Errorf("Table 3 render missing content:\n%s", s)
	}
	fn := []FourNodeCell{{Transport: UDP, Result: FourNodeResult{Session1Kbps: 500, Session2Kbps: 2000, Fairness: 0.73}}}
	if s := RenderFourNode("Figure 7", "3->4", fn); !strings.Contains(s, "2000") {
		t.Errorf("four-node render missing content:\n%s", s)
	}
	pts := []LossPoint{{Distance: 20, Loss: 0.5, Analytic: 0.45}}
	if s := CSV(pts); !strings.Contains(s, "20.0,0.5000,0.4500") {
		t.Errorf("CSV render wrong:\n%s", s)
	}
}
