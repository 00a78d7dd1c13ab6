package experiments

import (
	"time"

	"adhocsim/internal/phy"
	"adhocsim/internal/runner"
)

// This file is the replication layer over the classic single-run
// entry points: every experiment gains a counterpart that fans N
// independently seeded replications out across workers
// (internal/runner) and aggregates each metric with a mean and 95%
// confidence interval — the averaging the paper's tables and figures
// report. Replication 0 always reuses the root seed, so a
// single-replication run reproduces the classic serial output exactly.

// Rep configures a replicated experiment: how many independent
// replications to run and across how many worker goroutines.
// The zero value means one replication on all available CPUs.
type Rep struct {
	// Replications is the number of independently seeded runs to
	// aggregate; 0 and 1 both mean a single run.
	Replications int
	// Workers bounds the worker goroutines; 0 selects GOMAXPROCS.
	// Results never depend on it.
	Workers int
	// Progress, when non-nil, is called as runs complete (see
	// runner.Config.Progress).
	Progress func(done, total int)
}

func (r Rep) reps() int {
	if r.Replications < 1 {
		return 1
	}
	return r.Replications
}

func (r Rep) config() runner.Config {
	return runner.Config{Workers: r.Workers, Progress: r.Progress}
}

// TwoNodeSummary aggregates TwoNodeResult metrics over replications.
type TwoNodeSummary struct {
	Replications int            `json:"replications"`
	IdealMbps    float64        `json:"ideal_mbps"`
	Mbps         runner.Summary `json:"mbps"`
	Retries      runner.Summary `json:"retries"`
	Drops        runner.Summary `json:"drops"`
	// Runs holds the per-replication results in replication order.
	Runs []TwoNodeResult `json:"runs"`
}

// ReplicateTwoNode runs rep.Replications independently seeded copies of
// the cfg experiment in parallel and aggregates their metrics. The
// aggregate is bit-identical for any worker count.
func ReplicateTwoNode(cfg TwoNode, rep Rep) TwoNodeSummary {
	runs := runner.Map(rep.config(), rep.reps(), func(i int) TwoNodeResult {
		c := cfg
		c.Seed = runner.SeedFor(cfg.Seed, i)
		return RunTwoNode(c)
	})
	return TwoNodeSummary{
		Replications: len(runs),
		IdealMbps:    runs[0].IdealMbps,
		Mbps:         runner.SummarizeBy(runs, func(r TwoNodeResult) float64 { return r.MeasuredMbps }),
		Retries:      runner.SummarizeBy(runs, func(r TwoNodeResult) float64 { return float64(r.Retries) }),
		Drops:        runner.SummarizeBy(runs, func(r TwoNodeResult) float64 { return float64(r.Drops) }),
		Runs:         runs,
	}
}

// FourNodeSummary aggregates FourNodeResult metrics over replications.
type FourNodeSummary struct {
	Replications int            `json:"replications"`
	Session1Kbps runner.Summary `json:"session1_kbps"`
	Session2Kbps runner.Summary `json:"session2_kbps"`
	Fairness     runner.Summary `json:"fairness"`
	// Runs holds the per-replication results in replication order.
	Runs []FourNodeResult `json:"runs"`
}

// ReplicateFourNode runs rep.Replications independently seeded copies of
// the cfg experiment in parallel and aggregates their metrics.
func ReplicateFourNode(cfg FourNode, rep Rep) FourNodeSummary {
	runs := runner.Map(rep.config(), rep.reps(), func(i int) FourNodeResult {
		c := cfg
		c.Seed = runner.SeedFor(cfg.Seed, i)
		return RunFourNode(c)
	})
	return FourNodeSummary{
		Replications: len(runs),
		Session1Kbps: runner.SummarizeBy(runs, func(r FourNodeResult) float64 { return r.Session1Kbps }),
		Session2Kbps: runner.SummarizeBy(runs, func(r FourNodeResult) float64 { return r.Session2Kbps }),
		Fairness:     runner.SummarizeBy(runs, func(r FourNodeResult) float64 { return r.Fairness }),
		Runs:         runs,
	}
}

// Figure2Reps is Figure2 with replication: every (transport, access)
// cell is averaged over rep.Replications runs, and the cell's
// MeasuredCI reports the 95% confidence half-width. All
// cell-replication pairs share one worker pool.
func Figure2Reps(rate phy.Rate, seed uint64, duration time.Duration, rep Rep) []Figure2Cell {
	type panel struct {
		tr  Transport
		rts bool
	}
	panels := []panel{{UDP, false}, {UDP, true}, {TCP, false}, {TCP, true}}
	reps := rep.reps()
	runs := runner.Map(rep.config(), len(panels)*reps, func(k int) TwoNodeResult {
		p, r := panels[k/reps], k%reps
		return RunTwoNode(TwoNode{
			Rate:      rate,
			Distance:  10,
			Transport: p.tr,
			RTSCTS:    p.rts,
			Duration:  duration,
			Seed:      runner.SeedFor(seed, r),
		})
	})
	cells := make([]Figure2Cell, len(panels))
	for i, p := range panels {
		sum := runner.SummarizeBy(runs[i*reps:(i+1)*reps],
			func(r TwoNodeResult) float64 { return r.MeasuredMbps })
		cells[i] = Figure2Cell{
			Transport:  p.tr,
			RTSCTS:     p.rts,
			Ideal:      runs[i*reps].IdealMbps,
			Measured:   sum.Mean,
			MeasuredCI: sum.CI95,
		}
	}
	return cells
}

// runFourNodeFigureReps fans the four (transport × access) panels of a
// four-station figure, each replicated rep.Replications times, across
// one worker pool. Panels keep the classic convention of sharing the
// same per-replication seed sequence.
func runFourNodeFigureReps(base FourNode, seed uint64, duration time.Duration, rep Rep) []FourNodeCell {
	type panel struct {
		tr  Transport
		rts bool
	}
	panels := []panel{{UDP, false}, {UDP, true}, {TCP, false}, {TCP, true}}
	reps := rep.reps()
	runs := runner.Map(rep.config(), len(panels)*reps, func(k int) FourNodeResult {
		p, r := panels[k/reps], k%reps
		cfg := base
		cfg.Transport = p.tr
		cfg.RTSCTS = p.rts
		cfg.Seed = runner.SeedFor(seed, r)
		cfg.Duration = duration
		if cfg.Profile == nil {
			cfg.Profile = phy.TestbedProfile()
		}
		return RunFourNode(cfg)
	})
	cells := make([]FourNodeCell, len(panels))
	for i, p := range panels {
		panelRuns := runs[i*reps : (i+1)*reps]
		s1 := runner.SummarizeBy(panelRuns, func(r FourNodeResult) float64 { return r.Session1Kbps })
		s2 := runner.SummarizeBy(panelRuns, func(r FourNodeResult) float64 { return r.Session2Kbps })
		fair := runner.SummarizeBy(panelRuns, func(r FourNodeResult) float64 { return r.Fairness })
		res := panelRuns[0] // replication 0 carries the classic counters
		res.Session1Kbps = s1.Mean
		res.Session2Kbps = s2.Mean
		res.Fairness = fair.Mean
		cells[i] = FourNodeCell{
			Transport: p.tr,
			RTSCTS:    p.rts,
			Result:    res,
			S1CI:      s1.CI95,
			S2CI:      s2.CI95,
		}
	}
	return cells
}

// Figure7Reps is Figure7 with replication and parallel fan-out.
func Figure7Reps(seed uint64, duration time.Duration, rep Rep) []FourNodeCell {
	return runFourNodeFigureReps(FourNode{
		Rate: phy.Rate11, D12: 25, D23: 82.5, D34: 25,
	}, seed, duration, rep)
}

// Figure9Reps is Figure9 with replication and parallel fan-out.
func Figure9Reps(seed uint64, duration time.Duration, rep Rep) []FourNodeCell {
	return runFourNodeFigureReps(FourNode{
		Rate: phy.Rate2, D12: 25, D23: 92.5, D34: 25,
	}, seed, duration, rep)
}

// Figure11Reps is Figure11 with replication and parallel fan-out.
func Figure11Reps(seed uint64, duration time.Duration, rep Rep) []FourNodeCell {
	return runFourNodeFigureReps(FourNode{
		Rate: phy.Rate11, D12: 25, D23: 62.5, D34: 25,
		Session2Reversed: true,
	}, seed, duration, rep)
}

// Figure12Reps is Figure12 with replication and parallel fan-out.
func Figure12Reps(seed uint64, duration time.Duration, rep Rep) []FourNodeCell {
	return runFourNodeFigureReps(FourNode{
		Rate: phy.Rate2, D12: 25, D23: 62.5, D34: 25,
		Session2Reversed: true,
	}, seed, duration, rep)
}

// Figure3Reps is Figure3 with per-point replication. All four rate
// curves share one worker pool, so every (rate, distance, replication)
// job fans out at once.
func Figure3Reps(seed uint64, packets int, rep Rep) map[phy.Rate][]LossPoint {
	cfgs := make([]LossSweep, len(phy.Rates))
	for i, r := range phy.Rates {
		cfgs[i] = LossSweep{
			Rate:         r,
			Packets:      packets,
			Seed:         seed + uint64(i)*7919,
			Replications: rep.Replications,
		}
	}
	curves := runLossSweeps(cfgs, rep.Workers, rep.Progress)
	out := make(map[phy.Rate][]LossPoint, len(phy.Rates))
	for i, r := range phy.Rates {
		out[r] = curves[i]
	}
	return out
}

// Figure4Reps is Figure4 with per-point replication. Both days share
// one worker pool.
func Figure4Reps(seed uint64, packets int, rep Rep) []Figure4Curve {
	base := phy.DefaultProfile()
	days := []phy.Weather{phy.WeatherClear, phy.WeatherDamp}
	cfgs := make([]LossSweep, len(days))
	for i, w := range days {
		cfgs[i] = LossSweep{
			Rate:         phy.Rate1,
			Distances:    Figure4Distances(),
			Packets:      packets,
			Seed:         seed + uint64(i)*104729,
			Profile:      w.Apply(base),
			Replications: rep.Replications,
		}
	}
	curves := runLossSweeps(cfgs, rep.Workers, rep.Progress)
	out := make([]Figure4Curve, len(days))
	for i, w := range days {
		out[i] = Figure4Curve{Day: w.Name, Points: curves[i]}
	}
	return out
}

// Table3Reps is Table3 with replicated loss curves: range estimates are
// read off the replication-averaged curves.
func Table3Reps(seed uint64, packets int, rep Rep) []RangeEstimate {
	prof := phy.DefaultProfile()
	curves := Figure3Reps(seed, packets, rep)
	var rows []RangeEstimate
	for i := len(phy.Rates) - 1; i >= 0; i-- {
		r := phy.Rates[i]
		rows = append(rows, RangeEstimate{
			Rate:     r,
			Measured: CrossingDistance(curves[r], 0.5),
			Analytic: prof.MedianRange(r),
			Paper:    paperTable3[r],
		})
	}
	for _, r := range []phy.Rate{phy.Rate2, phy.Rate1} {
		rows = append(rows, RangeEstimate{
			Rate:     r,
			Control:  true,
			Measured: CrossingDistance(curves[r], 0.5),
			Analytic: prof.MedianRange(r),
			Paper:    paperTable3[r],
		})
	}
	return rows
}
