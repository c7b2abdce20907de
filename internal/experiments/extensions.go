package experiments

import (
	"fmt"

	"rfpsim/internal/config"
	"rfpsim/internal/energy"
	"rfpsim/internal/stats"
)

// runPower quantifies the paper's qualitative §5.6 power discussion: energy
// per committed uop under a first-order event-energy model. The expected
// shape: correct RFP adds only small-table and register-write energy (no
// validation re-reads); wrong prefetches add one L1 access each; value and
// address predictors pay for probe traffic and — dominating — pipeline
// flushes.
func runPower(s *suite) *Result {
	cost := energy.DefaultCost()
	schemes := []struct {
		key string
		cfg config.Core
	}{
		{"baseline", config.Baseline()},
		{"rfp", config.Baseline().WithRFP()},
		{"vp_eves", config.Baseline().WithVP(config.VPEVES)},
		{"dlvp", config.Baseline().WithVP(config.VPDLVP)},
		{"epp", config.Baseline().WithVP(config.VPEPP)},
	}
	tb := stats.NewTable("Scheme", "Energy/uop", "vs baseline", "Flush waste", "Prefetch extra")
	metrics := map[string]float64{}
	var baseEPU float64
	for i, sc := range schemes {
		runs := s.run(sc.cfg)
		epu := meanOver(runs, func(st *stats.Sim) float64 { return energy.PerUop(st, cost) })
		flush := meanOver(runs, func(st *stats.Sim) float64 {
			if st.Instructions == 0 {
				return 0
			}
			return energy.FromStats(st, cost).FlushWaste / float64(st.Instructions)
		})
		extra := meanOver(runs, func(st *stats.Sim) float64 {
			if st.Instructions == 0 {
				return 0
			}
			return energy.FromStats(st, cost).PrefetchExtra / float64(st.Instructions)
		})
		if i == 0 {
			baseEPU = epu
		}
		rel := 0.0
		if baseEPU > 0 {
			rel = epu/baseEPU - 1
		}
		tb.AddRow(sc.key, fmt.Sprintf("%.3f EU", epu), stats.Pct(rel),
			fmt.Sprintf("%.4f", flush), fmt.Sprintf("%.4f", extra))
		metrics["epu_"+sc.key] = epu
		metrics["flush_"+sc.key] = flush
		metrics["extra_"+sc.key] = extra
	}
	return &Result{
		ID:      "power",
		Title:   "Energy per uop (paper §5.6: RFP adds little; flushes dominate VP/AP overheads)",
		Text:    tb.String(),
		Metrics: metrics,
	}
}

// runBandwidth quantifies the §5.6 L1-bandwidth claim: a correct RFP
// replaces the demand load's access one-for-one, so total L1 accesses stay
// nearly flat; wrong prefetches add their re-read; DLVP-style probes are
// pure extra traffic.
func runBandwidth(s *suite) *Result {
	schemes := []struct {
		key string
		cfg config.Core
	}{
		{"baseline", config.Baseline()},
		{"rfp", config.Baseline().WithRFP()},
		{"dlvp", config.Baseline().WithVP(config.VPDLVP)},
	}
	tb := stats.NewTable("Scheme", "L1 accesses / uop", "vs baseline")
	metrics := map[string]float64{}
	var base float64
	for i, sc := range schemes {
		runs := s.run(sc.cfg)
		apu := meanOver(runs, func(st *stats.Sim) float64 {
			if st.Instructions == 0 {
				return 0
			}
			return float64(st.L1Accesses) / float64(st.Instructions)
		})
		if i == 0 {
			base = apu
		}
		rel := 0.0
		if base > 0 {
			rel = apu/base - 1
		}
		tb.AddRow(sc.key, fmt.Sprintf("%.3f", apu), stats.Pct(rel))
		metrics["l1apu_"+sc.key] = apu
	}
	return &Result{
		ID:      "bandwidth",
		Title:   "L1 access traffic (paper §5.6: correct RFP needs no validation re-read)",
		Text:    tb.String(),
		Metrics: metrics,
	}
}

// runHWPrefetch answers the implicit compositionality question: does RFP
// still pay off when the baseline already has a hardware stream cache
// prefetcher? It should — cache prefetchers convert misses into L1 hits,
// which *grows* the population RFP can accelerate (L1 latency remains).
func runHWPrefetch(s *suite) *Result {
	plain := config.Baseline()
	hw := config.Baseline()
	hw.Name = "baseline+hwpf"
	hw.Mem.HWPrefetch = true
	hwRFP := hw.WithRFP()

	base := s.run(plain)
	hwRuns := s.run(hw)
	hwRFPRuns := s.run(hwRFP)
	rfpRuns := s.run(config.Baseline().WithRFP())

	hwPairs := pairRuns(base, hwRuns)
	hwRFPPairs := pairRuns(hwRuns, hwRFPRuns)
	rfpPairs := pairRuns(base, rfpRuns)
	spHW := geomeanSpeedup(hwPairs)
	spRFPOnHW := geomeanSpeedup(hwRFPPairs)
	spRFP := geomeanSpeedup(rfpPairs)

	tb := stats.NewTable("Comparison", "Speedup")
	tb.AddRow("HW stream prefetcher vs baseline", stats.Pct(spHW))
	tb.AddRow("RFP on top of HW prefetcher", stats.Pct(spRFPOnHW))
	tb.AddRow("RFP on plain baseline", stats.Pct(spRFP))
	return &Result{
		ID:    "hwprefetch",
		Title: "RFP composed with a hardware cache prefetcher (orthogonality check)",
		Text:  tb.String(),
		Metrics: map[string]float64{
			"speedup_hw": spHW, "speedup_rfp_on_hw": spRFPOnHW, "speedup_rfp": spRFP,
		},
	}
}

// runCycleAccounting is the top-down view of where RFP's gain comes from:
// commit slots blocked behind unfinished loads (the L1-latency wall) shrink
// and convert into retired slots, while exec/frontend stalls stay put.
func runCycleAccounting(s *suite) *Result {
	tb := stats.NewTable("Config", "Retired", "Load-stall", "Exec-stall", "Frontend")
	metrics := map[string]float64{}
	for _, withRFP := range []bool{false, true} {
		cfg := config.Baseline()
		key := "baseline"
		if withRFP {
			cfg = cfg.WithRFP()
			key = "rfp"
		}
		runs := s.run(cfg)
		var retired, load, exec, empty float64
		for _, r := range runs {
			a, b, c, d := r.Stats.Slots.Frac()
			retired += a
			load += b
			exec += c
			empty += d
		}
		n := float64(len(runs))
		tb.AddRow(key, stats.Pct(retired/n), stats.Pct(load/n), stats.Pct(exec/n), stats.Pct(empty/n))
		metrics["retired_"+key] = retired / n
		metrics["loadstall_"+key] = load / n
		metrics["execstall_"+key] = exec / n
		metrics["frontend_"+key] = empty / n
	}
	return &Result{
		ID:      "cycleacct",
		Title:   "Top-down commit-slot accounting: RFP converts load stalls into retirement",
		Text:    tb.String(),
		Metrics: metrics,
	}
}

// runLateAlloc exercises the §3.3 "Pipeline Variations" register file:
// physical registers claimed at writeback through virtual pointers. RFP
// must keep (approximately) its gain under the variation — the paper's
// point that RFP adapts to either register file design.
func runLateAlloc(s *suite) *Result {
	tb := stats.NewTable("Register file", "RFP speedup")
	metrics := map[string]float64{}
	for _, late := range []bool{false, true} {
		base := config.Baseline()
		base.LateRegAlloc = late
		key := "rename-time"
		if late {
			key = "late (virtual pointers)"
			base.Name = "baseline-late"
		}
		feat := base.WithRFP()
		baseRuns := s.run(base)
		featRuns := s.run(feat)
		pairs := pairRuns(baseRuns, featRuns)
		sp := geomeanSpeedup(pairs)
		tb.AddRow(key, stats.Pct(sp))
		if late {
			metrics["speedup_late"] = sp
		} else {
			metrics["speedup_rename"] = sp
		}
	}
	return &Result{
		ID:      "latealloc",
		Title:   "§3.3 pipeline variation: RFP with late (writeback-time) register allocation",
		Text:    tb.String(),
		Metrics: metrics,
	}
}

// runBPQuality crosses branch predictor quality with RFP. On this suite
// most hard branches are data-dependent and irreducibly random, so TAGE
// and gshare land at similar misprediction rates and the experiment mainly
// demonstrates that RFP's gain is robust to the branch predictor choice;
// on pattern-heavy workloads (see the TAGE unit tests) the predictors
// separate and RFP's share of the critical path shifts accordingly.
func runBPQuality(s *suite) *Result {
	tb := stats.NewTable("Branch predictor", "RFP speedup", "Baseline mispredicts/kuop")
	metrics := map[string]float64{}
	for _, bp := range []string{"tage", "gshare"} {
		base := config.Baseline()
		base.BranchPredictor = bp
		base.Name = "baseline-" + bp
		feat := base.WithRFP()
		baseRuns := s.run(base)
		featRuns := s.run(feat)
		pairs := pairRuns(baseRuns, featRuns)
		sp := geomeanSpeedup(pairs)
		mpki := meanOver(baseRuns, func(st *stats.Sim) float64 {
			if st.Instructions == 0 {
				return 0
			}
			return 1000 * float64(st.BranchMispredicts) / float64(st.Instructions)
		})
		tb.AddRow(bp, stats.Pct(sp), fmt.Sprintf("%.2f", mpki))
		metrics["speedup_"+bp] = sp
		metrics["mpku_"+bp] = mpki
	}
	return &Result{
		ID:      "bpquality",
		Title:   "Branch predictor quality vs RFP gain (TAGE vs gshare baseline)",
		Text:    tb.String(),
		Metrics: metrics,
	}
}

// runCritical evaluates the criticality-targeted RFP extension the paper
// leaves as future work (§5.1, citing FVP and CATCH): inject prefetches
// only for loads the commit-stall estimator flags as critical. Expected
// shape: a fraction of the prefetch traffic retains most of the speedup,
// because "not all prefetches have a high impact on performance".
func runCritical(s *suite) *Result {
	base := s.run(config.Baseline())
	full := s.run(config.Baseline().WithRFP())
	critCfg := config.Baseline().WithRFP()
	critCfg.RFP.CriticalOnly = true
	critCfg.Name = "baseline+rfp-critical"
	crit := s.run(critCfg)

	fullPairs := pairRuns(base, full)
	critPairs := pairRuns(base, crit)
	spFull, spCrit := geomeanSpeedup(fullPairs), geomeanSpeedup(critPairs)
	injFull := meanOver(full, (*stats.Sim).RFPInjectedFrac)
	injCrit := meanOver(crit, (*stats.Sim).RFPInjectedFrac)
	covFull := meanOver(full, (*stats.Sim).RFPCoverage)
	covCrit := meanOver(crit, (*stats.Sim).RFPCoverage)

	tb := stats.NewTable("Variant", "Speedup", "Injected", "Coverage")
	tb.AddRow("all eligible loads", stats.Pct(spFull), stats.Pct(injFull), stats.Pct(covFull))
	tb.AddRow("critical loads only", stats.Pct(spCrit), stats.Pct(injCrit), stats.Pct(covCrit))
	retained := 0.0
	if spFull != 0 {
		retained = spCrit / spFull
	}
	traffic := 0.0
	if injFull != 0 {
		traffic = injCrit / injFull
	}
	txt := tb.String() + fmt.Sprintf("\nCriticality targeting keeps %.0f%% of the speedup with %.0f%% of the prefetch traffic.\n",
		100*retained, 100*traffic)
	return &Result{
		ID:    "critical",
		Title: "Criticality-targeted RFP (paper §5.1 future work, FVP/CATCH-style)",
		Text:  txt,
		Metrics: map[string]float64{
			"speedup_full": spFull, "speedup_critical": spCrit,
			"injected_full": injFull, "injected_critical": injCrit,
		},
	}
}
