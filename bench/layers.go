package bench

import (
	"maps"
	"time"

	"rfpsim/internal/stats"
)

// perLayer lists the per-layer metrics every traced run reports. Host
// times come from the layer replay on the workload's own stream, requests
// and results; simulated ratios from the results of the traced rounds, so
// they repeat exactly for a seed; counts from the traced rounds too.
// bench/README.md maps each to the end-to-end metric it should move.
var perLayer = []metricDef{
	{"core.run_ns_per_cycle", "ns", "lower"},
	{"core.run_ns_per_uop", "ns", "lower"},
	{"core.residual_ns_per_uop", "ns", "lower"},
	{"core.new_warm_ms", "ms", "lower"},
	{"core.fastforward_ns_per_uop", "ns", "lower"},
	{"core.ipc", "uops/cycle", "higher"},
	{"core.slots_stall_load_frac", "frac", "lower"},
	{"core.slots_stall_empty_frac", "frac", "lower"},
	{"core.run_ns_per_uop.pf-none.clp-off", "ns", "lower"},
	{"core.run_ns_per_uop.pf-none.clp-on", "ns", "lower"},
	{"core.run_ns_per_uop.pf-stream.clp-off", "ns", "lower"},
	{"core.run_ns_per_uop.pf-stream.clp-on", "ns", "lower"},
	{"core.run_ns_per_uop.pf-spp.clp-off", "ns", "lower"},
	{"core.run_ns_per_uop.pf-spp.clp-on", "ns", "lower"},
	{"core.run_ns_per_uop.pf-sisb.clp-off", "ns", "lower"},
	{"core.run_ns_per_uop.pf-sisb.clp-on", "ns", "lower"},
	{"core.run_ns_per_uop.pf-managed.clp-off", "ns", "lower"},
	{"core.run_ns_per_uop.pf-managed.clp-on", "ns", "lower"},
	{"mem.access_ns.none", "ns", "lower"},
	{"mem.access_ns.stream", "ns", "lower"},
	{"mem.access_ns.spp", "ns", "lower"},
	{"mem.access_ns.sisb", "ns", "lower"},
	{"mem.access_ns.managed", "ns", "lower"},
	{"mem.l1_accesses_per_uop", "1/uop", "lower"},
	{"mem.load_l1_frac", "frac", "higher"},
	{"mem.load_mem_frac", "frac", "lower"},
	{"mem.l1pf_accuracy", "frac", "higher"},
	{"mem.l1pf_coverage", "frac", "higher"},
	{"mem.l1pf_dropped_frac", "frac", "lower"},
	{"predictor.tage_ns_per_branch", "ns", "lower"},
	{"predictor.hitmiss_ns_per_load", "ns", "lower"},
	{"predictor.clp_ns_per_load", "ns", "lower"},
	{"predictor.branch_mpku", "1/kuop", "lower"},
	{"predictor.hitmiss_mispredict_frac", "frac", "lower"},
	{"predictor.clp_accuracy", "frac", "higher"},
	{"predictor.clp_coverage", "frac", "higher"},
	{"rfp.table_ns_per_load", "ns", "lower"},
	{"rfp.queue_ns_per_packet", "ns", "lower"},
	{"rfp.coverage", "frac", "higher"},
	{"rfp.useful_per_injected", "frac", "higher"},
	{"rfp.executed_per_injected", "frac", "higher"},
	{"rfp.wrong_per_executed", "frac", "lower"},
	{"rfp.port_conflicts_per_kcycle", "1/kcycle", "lower"},
	{"trace.gen_ns_per_uop", "ns", "lower"},
	{"tracefile.decode_ns_per_uop", "ns", "lower"},
	{"tracefile.encode_ns_per_uop", "ns", "lower"},
	{"champsim.decode_ns_per_record", "ns", "lower"},
	{"sample.profile_ms", "ms", "lower"},
	{"sample.plan_ms", "ms", "lower"},
	{"sample.points_per_unit", "count", "lower"},
	{"sample.error_bound", "frac", "lower"},
	{"runner.unattributed_ms", "ms", "lower"},
	{"service.resolve_us", "us", "lower"},
	{"service.queue_wait_ms", "ms", "lower"},
	{"service.hit_us", "us", "lower"},
	{"service.disk_us", "us", "lower"},
	{"service.dedup_ms", "ms", "lower"},
	{"service.miss_overhead_ms", "ms", "lower"},
	{"service.tier_hit", "count", "higher"},
	{"service.tier_disk", "count", "higher"},
	{"service.tier_dedup", "count", "higher"},
	{"service.tier_miss", "count", "lower"},
	{"service.rejected", "count", "lower"},
	{"fabric.disk_get_us", "us", "lower"},
	{"fabric.disk_put_us", "us", "lower"},
	{"sweep.expand_ms", "ms", "lower"},
	{"sweep.write_csv_ms", "ms", "lower"},
	{"sweep.orchestrator_overhead_s", "s", "lower"},
	{"sweep.units_failed", "count", "lower"},
	{"sweep.retried", "count", "lower"},
	{"bench.trace_overhead_frac", "frac", "lower"},
}

// ratio is num/den, 0 when den is 0 (the layer did nothing).
func ratio(num, den uint64) float64 {
	if den == 0 {
		return 0
	}
	return float64(num) / float64(den)
}

// simCounts sums the results of a phase's first round into one block, so
// ratios over it are exact, deterministic per-seed figures.
func simCounts(ph *phase) *stats.Sim {
	total := &stats.Sim{}
	for _, st := range ph.rounds[0].sims {
		stats.Accumulate(total, st)
	}
	return total
}

// rung is one layer's share of the cycle loop's cost per simulated uop.
type rung struct {
	layer   string
	nsPerOp float64
	opsPer  float64 // operations per simulated uop, exact from stats.Sim
}

// perLayerMetrics assembles the per-layer metrics of a traced run and
// prints the ladder, the cycle-loop matrix and the tracing overhead.
func perLayerMetrics(e *env, plain, traced *phase, l *layers, rec *recorder) map[string]Metric {
	v := maps.Clone(l.values)

	sim := simCounts(traced)
	_, stallLoad, _, stallEmpty := sim.Slots.Frac()
	v["core.ipc"] = sim.IPC()
	v["core.slots_stall_load_frac"] = stallLoad
	v["core.slots_stall_empty_frac"] = stallEmpty
	v["mem.l1_accesses_per_uop"] = ratio(sim.L1Accesses, sim.Instructions)
	v["mem.load_l1_frac"] = sim.LoadLevelFrac(stats.LevelL1)
	v["mem.load_mem_frac"] = sim.LoadLevelFrac(stats.LevelMem)
	v["mem.l1pf_accuracy"] = sim.L1PFAccuracy()
	v["mem.l1pf_coverage"] = sim.L1PFCoverage()
	v["mem.l1pf_dropped_frac"] = ratio(sim.L1PF.Dropped, sim.L1PF.Issued+sim.L1PF.Dropped)
	v["predictor.branch_mpku"] = 1000 * ratio(sim.BranchMispredicts, sim.Instructions)
	v["predictor.hitmiss_mispredict_frac"] = ratio(sim.HitMissMispredicts, sim.Loads)
	v["predictor.clp_accuracy"] = sim.CLPAccuracy()
	v["predictor.clp_coverage"] = sim.CLPCoverage()
	v["rfp.coverage"] = sim.RFPCoverage()
	v["rfp.useful_per_injected"] = ratio(sim.RFP.Useful, sim.RFP.Injected)
	v["rfp.executed_per_injected"] = ratio(sim.RFP.Executed, sim.RFP.Injected)
	v["rfp.wrong_per_executed"] = ratio(sim.RFP.Wrong, sim.RFP.Executed)
	v["rfp.port_conflicts_per_kcycle"] = 1000 * ratio(sim.RFP.PortConflicts, sim.Cycles)

	v["runner.unattributed_ms"] = median(msOf(traced.durations(func(r *round) []time.Duration { return r.unattributed })))
	for _, name := range []string{"service.tier_hit", "service.tier_disk", "service.tier_dedup",
		"service.tier_miss", "service.rejected", "sweep.units_failed", "sweep.retried"} {
		n := 0
		for _, r := range traced.rounds {
			n += r.counts[name]
		}
		v[name] = float64(n)
	}

	// The ladder prices the workload's cycle loop: each layer's replay
	// cost times its exact operations per simulated uop, and the residual
	// the layers below do not explain.
	c := l.ladder
	st := &c.st
	per := func(n uint64) float64 { return ratio(n, st.Instructions) }
	source := rung{"trace.gen", v["trace.gen_ns_per_uop"], 1}
	if l.fromTrace {
		source = rung{"tracefile.decode", v["tracefile.decode_ns_per_uop"], 1}
	}
	rungs := []rung{
		source,
		{"mem.access." + c.pf, v["mem.access_ns."+c.pf], per(st.L1Accesses)},
		{"predictor.tage", v["predictor.tage_ns_per_branch"], per(st.Branches)},
		{"predictor.hitmiss", v["predictor.hitmiss_ns_per_load"], per(st.Loads)},
		{"rfp.table", v["rfp.table_ns_per_load"], per(st.Loads)},
		{"rfp.queue", v["rfp.queue_ns_per_packet"], per(st.RFP.Injected)},
	}
	if c.clp {
		rungs = append(rungs, rung{"predictor.clp", v["predictor.clp_ns_per_load"], per(st.Loads)})
	}
	residual := c.nsPerUop
	e.logf("ladder: ns per simulated uop, cycle loop %s over %d uops (%.3f ns/cycle, IPC %.3f)\n",
		c.name, st.Instructions, c.nsPerCyc, st.IPC())
	for _, r := range rungs {
		cost := r.nsPerOp * r.opsPer
		residual -= cost
		e.logf("  %-24s %8.2f ns/uop  = %8.2f ns/op x %.4f ops/uop\n", r.layer, cost, r.nsPerOp, r.opsPer)
	}
	e.logf("  %-24s %8.2f ns/uop\n", "core.residual", residual)
	e.logf("  %-24s %8.2f ns/uop\n", "core.run (total)", c.nsPerUop)
	if residual < 0 {
		e.logf("  warning: negative residual; the layer replays cost more than the cycle loop they sit in\n")
	}
	v["core.residual_ns_per_uop"] = residual

	e.logf("cycle-loop matrix (ns per simulated uop):\n  %-10s %10s %10s\n", "prefetcher", "clp-off", "clp-on")
	for i := 0; i+1 < len(l.matrix); i += 2 {
		e.logf("  %-10s %10.2f %10.2f\n", l.matrix[i].pf, l.matrix[i].nsPerUop, l.matrix[i+1].nsPerUop)
	}

	e.logf("unattributed job time: median %.3f ms per job. core.New+WarmCaches, which no stage timer covers,\n"+
		"  costs a median %.3f ms per core over the workload's specs; a full job builds one core,\n"+
		"  a sampled job one per point (%.0f points on this stream: %.3f ms)\n",
		v["runner.unattributed_ms"], v["core.new_warm_ms"], v["sample.points_per_unit"],
		v["core.new_warm_ms"]*v["sample.points_per_unit"])

	plainOps, plainWall, _, _ := plain.totals()
	tracedOps, tracedWall, _, _ := traced.totals()
	plainRate := float64(plainOps) / plainWall.Seconds()
	tracedRate := float64(tracedOps) / tracedWall.Seconds()
	v["bench.trace_overhead_frac"] = plainRate/tracedRate - 1
	e.logf("tracing overhead: %.0f ops/s untraced vs %.0f ops/s traced (%+.2f%%), %d spans recorded\n",
		plainRate, tracedRate, 100*v["bench.trace_overhead_frac"], rec.len())

	out := map[string]Metric{}
	for _, d := range perLayer {
		if x, ok := v[d.name]; ok {
			out[d.name] = Metric{x, d.unit}
		}
	}
	return out
}
