package main

// The metric names BENCHMARK.json declares, in the order it lists them.
// An invocation with -trace 0 reports endToEndNames, one with -trace 1
// perLayerNames; the full report carries both plus a few extras.
var endToEndNames = []string{"setup_s", "first_run_s", "rep_ms.p50", "ns_per_event", "live_heap_mb"}

var perLayerNames = func() []string {
	names := []string{
		"scenario.build_ms", "scenario.reset_ms", "scenario.collect_ms", "node.run_ms",
		"runner.sweep_reps_per_s", "runner.utilization",
	}
	for _, l := range layers {
		names = append(names, l+".share")
	}
	for _, l := range selfTimed {
		names = append(names, l+".self_ms")
	}
	return append(names,
		"sim.events", "sim.logical_events", "sim.pushes", "sim.cal_resizes",
		"medium.transmissions", "medium.fanout_per_tx", "medium.gain_cache_hit_ratio",
		"medium.fanout_memo_hit_ratio", "medium.candidate_memo_hit_ratio", "medium.soa_rescans",
		"mac.frames_sent", "mac.retry_ratio", "mac.eifs_deferrals", "mac.tx_drops",
		"network.forwarded", "network.dropped", "routing.ctl_bytes", "app.delivery_ratio",
		"faults.applied",
		"exec.windows", "exec.xregion_msgs", "exec.load_balance",
		"alloc.per_event", "alloc.bytes_per_event", "gc.cycles_per_rep",
		"trace_overhead_pct", "trace.coverage",
	)
}()

// selfTimed are the layers whose self time is also reported in
// milliseconds: those that do work on every workload. The rest report
// only their share, which is zero where a workload bypasses the layer.
var selfTimed = []string{"sim", "medium", "phy", "mac", "gc", "bench", "other"}

// endToEnd is what a user of the simulator sees, from an untraced pass.
func (p *pass) endToEnd() map[string]metric {
	s := p.reps.scale()
	m := map[string]metric{
		"setup_s":      medianMetric(p.builds.samples, p.builds.scale(), "s"),
		"first_run_s":  medianMetric(p.firsts.samples, p.firsts.scale(), "s"),
		"rep_ms.p50":   medianMetric(p.reps.samples, 1e3*s, "ms"),
		"ns_per_event": medianMetric(p.nsPerEvent, s, "ns"),
		"live_heap_mb": medianMetric(p.heapMB, 1, "MB"),
		// As measured, before rescaling by the anchor.
		"rep_ms.p50.raw": medianMetric(p.reps.samples, 1e3, "ms"),
		"anchor_ms":      exact(1e3*anchorNominal.Seconds()/s, "ms"),
	}
	// A tail percentile is reported only with at least ten samples
	// beyond it.
	if n := len(p.reps.samples); n >= 100 {
		m["rep_ms.p90"] = metric{Value: percentile(p.reps.samples, 90) * 1e3 * s, Unit: "ms", N: n}
	}
	return m
}

// perLayer splits a traced pass by layer: spans timed around the public
// calls, the CPU profile's self time per layer, and per-replication
// counts from the obs registry, the Results and the runtime.
// untracedRepP50 is the untraced pass's median replication, in seconds
// at nominal anchor speed.
func (p *pass) perLayer(untracedRepP50 float64) map[string]metric {
	snap := p.reg.Snapshot()
	t := p.totals
	s := p.reps.scale()
	ran := float64(p.ran)
	mean := func(total uint64, unit string) metric { return exact(float64(total)/ran, unit) }
	c := func(name string) float64 { return float64(counterValue(snap, name)) }
	perRep := func(name string) metric { return exact(c(name)/ran, "count") }
	hitRatio := func(hits, misses string) metric {
		return exact(ratio(c(hits), c(hits)+c(misses)), "ratio")
	}
	var applied float64
	for _, k := range faultKinds {
		applied += c("faults_" + k + "_applied_total")
	}

	m := map[string]metric{
		"scenario.build_ms":   medianMetric(p.builds.samples, 1e3*p.builds.scale(), "ms"),
		"scenario.reset_ms":   medianMetric(p.resets, 1e3*s, "ms"),
		"scenario.collect_ms": medianMetric(p.collects, 1e3*s, "ms"),
		"node.run_ms":         medianMetric(p.runs, 1e3*s, "ms"),

		"runner.sweep_reps_per_s": medianMetric(p.sweepRates, 1, "1/s"),
		"runner.utilization":      medianMetric(p.sweepUtil, 1, "ratio"),

		"sim.events":         perRep("sim_events_fired_total"),
		"sim.logical_events": mean(t.logical, "count"),
		"sim.pushes":         perRep("sim_queue_pushes_total"),
		"sim.cal_resizes":    perRep("sim_calendar_resizes_total"),

		"medium.transmissions":            perRep("medium_transmissions_total"),
		"medium.gain_cache_hit_ratio":     hitRatio("medium_gain_cache_hits_total", "medium_gain_cache_misses_total"),
		"medium.fanout_memo_hit_ratio":    hitRatio("medium_fanout_replays_total", "medium_fanout_builds_total"),
		"medium.candidate_memo_hit_ratio": hitRatio("medium_candidate_reuses_total", "medium_candidate_rebuilds_total"),
		"medium.soa_rescans":              perRep("medium_soa_rescans_total"),
		"medium.fanout_per_tx":            exact(ratio(float64(t.edges), c("medium_transmissions_total")), "count"),

		"mac.frames_sent":    mean(t.framesSent, "count"),
		"mac.retry_ratio":    exact(ratio(float64(t.retries), float64(t.framesSent)), "ratio"),
		"mac.eifs_deferrals": mean(t.eifs, "count"),
		"mac.tx_drops":       mean(t.drops, "count"),
		"network.forwarded":  mean(t.forwarded, "count"),
		"network.dropped":    mean(t.netDropped, "count"),
		"routing.ctl_bytes":  mean(t.ctlBytes, "B"),
		"app.delivery_ratio": exact(ratio(float64(t.received), float64(t.offered)), "ratio"),
		"faults.applied":     exact(applied/ran, "count"),

		"exec.windows":      perRep("exec_windows_total"),
		"exec.xregion_msgs": perRep("exec_messages_total"),
		"exec.load_balance": exact(p.loadBalance, "ratio"),

		"alloc.per_event":       exact(ratio(float64(p.mallocs), float64(p.memLogical)), "count"),
		"alloc.bytes_per_event": exact(ratio(float64(p.allocBytes), float64(p.memLogical)), "B"),
		"gc.cycles_per_rep":     exact(ratio(float64(p.gcs), float64(p.memReps)), "count"),

		"trace_overhead_pct": exact((ratio(median(p.reps.samples)*s, untracedRepP50)-1)*100, "%"),
		"trace.coverage":     exact(ratio(float64(p.profileNs), float64(p.cpuNs)), "ratio"),
	}
	// Self time per replication run while the profiler was on, setup
	// included.
	profiled := float64(p.ran + p.sweepRan)
	for _, l := range layers {
		m[l+".share"] = exact(ratio(float64(p.layerNs[l]), float64(p.profileNs)), "ratio")
	}
	for _, l := range selfTimed {
		m[l+".self_ms"] = exact(float64(p.layerNs[l])/1e6/profiled, "ms")
	}
	return m
}

// pick keeps the named metrics of m.
func pick(m map[string]metric, names []string) map[string]metric {
	out := make(map[string]metric, len(names))
	for _, n := range names {
		if v, ok := m[n]; ok {
			out[n] = v
		}
	}
	return out
}
