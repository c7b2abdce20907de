package experiments

import (
	"fmt"
	"sort"
	"strings"

	"rfpsim/internal/config"
	"rfpsim/internal/stats"
	"rfpsim/internal/trace"
)

// runFig1 reproduces Figure 1: the performance headroom of an oracle
// prefetcher between each pair of adjacent hierarchy levels. The paper's
// shape: L1→RF (~9%) and Mem→LLC (~13%) dominate the middle levels despite
// L1 latency being 40x lower than DRAM's.
func runFig1(s *suite) *Result {
	base := s.run(config.Baseline())
	oracles := []struct {
		name string
		mode config.OracleMode
	}{
		{"L1->RF", config.OracleL1ToRF},
		{"L2->L1", config.OracleL2ToL1},
		{"LLC->L2", config.OracleLLCToL2},
		{"Mem->LLC", config.OracleMemToLLC},
	}
	tb := stats.NewTable("Oracle", "Geomean speedup")
	metrics := map[string]float64{}
	for _, o := range oracles {
		runs := s.run(config.Baseline().WithOracle(o.mode))
		pairs := pairRuns(base, runs)
		sp := geomeanSpeedup(pairs)
		tb.AddRow(o.name, stats.Pct(sp))
		metrics["speedup_"+o.name] = sp
	}
	return &Result{
		ID:      "fig1",
		Title:   "Oracle prefetch headroom (paper: L1->RF 9%, Mem->LLC 13.3%, middle levels smaller)",
		Text:    tb.String(),
		Metrics: metrics,
	}
}

// runFig2 reproduces Figure 2: where demand loads are served. Paper: 92.8%
// L1, with small MSHR/L2/LLC/DRAM slices.
func runFig2(s *suite) *Result {
	runs := s.run(config.Baseline())
	tb := stats.NewTable("Level", "Fraction of loads")
	metrics := map[string]float64{}
	for l := 0; l < stats.NumLevels; l++ {
		f := meanOver(runs, func(s *stats.Sim) float64 { return s.LoadLevelFrac(l) })
		tb.AddRow(stats.LevelName(l), stats.Pct(f))
		metrics["frac_"+stats.LevelName(l)] = f
	}
	return &Result{
		ID:      "fig2",
		Title:   "Demand load distribution (paper: 92.8% L1 hits)",
		Text:    tb.String(),
		Metrics: metrics,
	}
}

// runFig10 reproduces Figure 10: RFP speedup and coverage per workload
// category on the baseline core. Paper: 3.1% geomean speedup, 43.4%
// coverage.
func runFig10(s *suite) *Result {
	base := s.run(config.Baseline())
	feat := s.run(config.Baseline().WithRFP())
	pairs := pairRuns(base, feat)
	tb := stats.NewTable("Category", "Speedup", "Coverage")
	cats, grouped := byCategory(pairs)
	for _, cat := range cats {
		ps := grouped[cat]
		covs := make([]float64, len(ps))
		for i, p := range ps {
			covs[i] = p.feat.RFPCoverage()
		}
		tb.AddRow(string(cat), stats.Pct(geomeanSpeedup(ps)), stats.Pct(stats.Mean(covs)))
	}
	allCov := make([]float64, len(pairs))
	for i, p := range pairs {
		allCov[i] = p.feat.RFPCoverage()
	}
	sp := geomeanSpeedup(pairs)
	cov := stats.Mean(allCov)
	tb.AddRow("ALL", stats.Pct(sp), stats.Pct(cov))
	return &Result{
		ID:      "fig10",
		Title:   "RFP on baseline (paper: +3.1% geomean, 43.4% coverage)",
		Text:    tb.String(),
		Metrics: map[string]float64{"speedup": sp, "coverage": cov},
	}
}

// runFig11 reproduces Figure 11: per-workload IPC gain and coverage,
// sorted by gain — the paper's correlation line chart as rows.
func runFig11(s *suite) *Result {
	base := s.run(config.Baseline())
	feat := s.run(config.Baseline().WithRFP())
	pairs := pairRuns(base, feat)
	sort.Slice(pairs, func(i, j int) bool {
		return stats.Speedup(pairs[i].base, pairs[i].feat) < stats.Speedup(pairs[j].base, pairs[j].feat)
	})
	tb := stats.NewTable("Workload", "IPC gain", "Coverage")
	nPos := 0
	for _, p := range pairs {
		sp := stats.Speedup(p.base, p.feat)
		if sp > 0 {
			nPos++
		}
		tb.AddRow(p.spec.Name, stats.Pct(sp), stats.Pct(p.feat.RFPCoverage()))
	}
	// Rank correlation between gain and coverage (the paper's point:
	// they correlate, with criticality-driven outliers).
	corr := rankCorrelation(pairs)
	txt := tb.String() + fmt.Sprintf("\nSpearman rank correlation(gain, coverage) = %.2f\n", corr)
	return &Result{
		ID:      "fig11",
		Title:   "Per-workload IPC gain vs coverage (paper: correlated, with criticality outliers)",
		Text:    txt,
		Metrics: map[string]float64{"rank_correlation": corr, "frac_improved": float64(nPos) / float64(len(pairs))},
	}
}

// rankCorrelation computes Spearman's rho between speedup and coverage.
func rankCorrelation(pairs []pair) float64 {
	n := len(pairs)
	if n < 2 {
		return 0
	}
	speedups := make([]float64, n)
	covs := make([]float64, n)
	for i, p := range pairs {
		speedups[i] = stats.Speedup(p.base, p.feat)
		covs[i] = p.feat.RFPCoverage()
	}
	rs, rc := ranks(speedups), ranks(covs)
	var d2 float64
	for i := range rs {
		d := rs[i] - rc[i]
		d2 += d * d
	}
	nf := float64(n)
	return 1 - 6*d2/(nf*(nf*nf-1))
}

func ranks(xs []float64) []float64 {
	idx := make([]int, len(xs))
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool { return xs[idx[a]] < xs[idx[b]] })
	r := make([]float64, len(xs))
	for rank, i := range idx {
		r[i] = float64(rank)
	}
	return r
}

// runFig12 reproduces Figure 12: RFP on the 10-wide Baseline-2x. Paper:
// +5.7% and 53.7% coverage — more than on the baseline, because doubled
// execution resources expose more latency sensitivity and more L1
// bandwidth lets more prefetches dispatch.
func runFig12(s *suite) *Result {
	base := s.run(config.Baseline2x())
	feat := s.run(config.Baseline2x().WithRFP())
	pairs := pairRuns(base, feat)
	covs := make([]float64, len(pairs))
	for i, p := range pairs {
		covs[i] = p.feat.RFPCoverage()
	}
	sp, cov := geomeanSpeedup(pairs), stats.Mean(covs)
	tb := stats.NewTable("Config", "Speedup", "Coverage")
	tb.AddRow("baseline-2x + RFP", stats.Pct(sp), stats.Pct(cov))
	return &Result{
		ID:      "fig12",
		Title:   "RFP on Baseline-2x (paper: +5.7%, 53.7% coverage)",
		Text:    tb.String(),
		Metrics: map[string]float64{"speedup": sp, "coverage": cov},
	}
}

// runFig13 reproduces Figure 13: the prefetch life-cycle funnel. Paper:
// packets injected for 72% of loads, executed for 48%, useful for 43%;
// ~5% wrong.
func runFig13(s *suite) *Result {
	runs := s.run(config.Baseline().WithRFP())
	type row struct {
		name                              string
		injected, executed, useful, wrong float64
	}
	var rows []row
	cats := map[trace.Category][]Run{}
	for _, r := range runs {
		cats[r.Spec.Category] = append(cats[r.Spec.Category], r)
	}
	add := func(name string, rs []Run) row {
		return row{
			name:     name,
			injected: meanOver(rs, (*stats.Sim).RFPInjectedFrac),
			executed: meanOver(rs, (*stats.Sim).RFPExecutedFrac),
			useful:   meanOver(rs, (*stats.Sim).RFPCoverage),
			wrong:    meanOver(rs, (*stats.Sim).RFPWrongFrac),
		}
	}
	for _, c := range trace.Categories() {
		if len(cats[c]) > 0 {
			rows = append(rows, add(string(c), cats[c]))
		}
	}
	all := add("ALL", runs)
	rows = append(rows, all)
	tb := stats.NewTable("Category", "Injected", "Executed", "Useful", "Wrong")
	for _, r := range rows {
		tb.AddRow(r.name, stats.Pct(r.injected), stats.Pct(r.executed), stats.Pct(r.useful), stats.Pct(r.wrong))
	}
	return &Result{
		ID:    "fig13",
		Title: "RFP timeliness funnel (paper: 72% injected, 48% executed, 43% useful, ~5% wrong)",
		Text:  tb.String(),
		Metrics: map[string]float64{
			"injected": all.injected, "executed": all.executed,
			"useful": all.useful, "wrong": all.wrong,
		},
	}
}

// runFig14 reproduces Figure 14: doubling L1 ports with half dedicated to
// RFP. Paper: +4.0% vs +3.1% shared, with 16.1% more prefetches executed.
func runFig14(s *suite) *Result {
	base := s.run(config.Baseline())
	shared := s.run(config.Baseline().WithRFP())
	dedCfg := config.Baseline().WithRFP()
	dedCfg.Name = "baseline+rfp-dedicated"
	dedCfg.RFPDedicatedPorts = dedCfg.LoadPorts
	ded := s.run(dedCfg)

	sharedPairs := pairRuns(base, shared)
	dedPairs := pairRuns(base, ded)
	spShared, spDed := geomeanSpeedup(sharedPairs), geomeanSpeedup(dedPairs)
	exShared := meanOver(shared, (*stats.Sim).RFPExecutedFrac)
	exDed := meanOver(ded, (*stats.Sim).RFPExecutedFrac)
	tb := stats.NewTable("Ports", "Speedup", "Prefetches executed")
	tb.AddRow("shared (lowest priority)", stats.Pct(spShared), stats.Pct(exShared))
	tb.AddRow("dedicated RFP ports", stats.Pct(spDed), stats.Pct(exDed))
	return &Result{
		ID:    "fig14",
		Title: "L1 bandwidth impact on RFP (paper: 4.0% dedicated vs 3.1% shared)",
		Text:  tb.String(),
		Metrics: map[string]float64{
			"speedup_shared": spShared, "speedup_dedicated": spDed,
			"executed_shared": exShared, "executed_dedicated": exDed,
		},
	}
}

// runEffectiveness reproduces §5.2.2: of the useful prefetches, how many
// completed before the load even dispatched (fully hidden latency; the
// load behaves like a 1-cycle op) vs completed late (partial saving).
// Paper: 34.2% of loads fully hidden, 9.2% partially.
func runEffectiveness(s *suite) *Result {
	runs := s.run(config.Baseline().WithRFP())
	full := meanOver(runs, func(s *stats.Sim) float64 {
		if s.Loads == 0 {
			return 0
		}
		return float64(s.RFP.FullyHidden) / float64(s.Loads)
	})
	useful := meanOver(runs, (*stats.Sim).RFPCoverage)
	partial := useful - full
	tb := stats.NewTable("Outcome", "Fraction of loads")
	tb.AddRow("prefetch complete before load dispatch (fully hidden)", stats.Pct(full))
	tb.AddRow("prefetch in flight at dispatch (partially hidden)", stats.Pct(partial))
	return &Result{
		ID:      "effectiveness",
		Title:   "RFP effectiveness (paper: 34.2% fully hidden, 9.2% partial)",
		Text:    tb.String(),
		Metrics: map[string]float64{"fully_hidden": full, "partial": partial},
	}
}

// runTable2 prints the core parameters (Table 2 analogue).
func runTable2(*suite) *Result {
	b, x := config.Baseline(), config.Baseline2x()
	tb := stats.NewTable("Parameter", "Baseline", "Baseline-2x")
	rows := []struct {
		name string
		b, x interface{}
	}{
		{"Width (fetch/rename/commit)", b.Width, x.Width},
		{"ROB", b.ROBSize, x.ROBSize},
		{"Reservation stations", b.RSSize, x.RSSize},
		{"Load queue / Store queue", fmt.Sprintf("%d/%d", b.LQSize, b.SQSize), fmt.Sprintf("%d/%d", x.LQSize, x.SQSize)},
		{"INT/FP physical registers", fmt.Sprintf("%d/%d", b.IntPRF, b.FPPRF), fmt.Sprintf("%d/%d", x.IntPRF, x.FPPRF)},
		{"L1 load ports", b.LoadPorts, x.LoadPorts},
		{"L1D (latency)", fmt.Sprintf("48KiB 12-way (%d cyc)", b.Mem.L1Latency), fmt.Sprintf("48KiB 12-way (%d cyc)", x.Mem.L1Latency)},
		{"L2 (latency)", fmt.Sprintf("1.25MiB (%d cyc)", b.Mem.L2Latency), fmt.Sprintf("1.25MiB (%d cyc)", x.Mem.L2Latency)},
		{"LLC (latency)", fmt.Sprintf("3MiB (%d cyc)", b.Mem.LLCLatency), fmt.Sprintf("3MiB (%d cyc)", x.Mem.LLCLatency)},
		{"DRAM latency", b.Mem.MemLatency, x.Mem.MemLatency},
		{"VP/MD flush penalty", b.FlushPenalty, x.FlushPenalty},
	}
	for _, r := range rows {
		tb.AddRow(r.name, fmt.Sprint(r.b), fmt.Sprint(r.x))
	}
	return &Result{ID: "table2", Title: "Core parameters", Text: tb.String(), Metrics: map[string]float64{}}
}

// runTable3 prints the workload suite (Table 3 analogue).
func runTable3(*suite) *Result {
	tb := stats.NewTable("Category", "Workloads")
	total := 0
	for _, c := range trace.Categories() {
		var names []string
		for _, s := range trace.ByCategory(c) {
			names = append(names, strings.TrimPrefix(strings.TrimPrefix(s.Name, "spec06_"), "spec17_"))
		}
		total += len(names)
		tb.AddRow(fmt.Sprintf("%s (%d)", c, len(names)), strings.Join(names, ", "))
	}
	return &Result{
		ID: "table3", Title: "Workload suite",
		Text:    tb.String(),
		Metrics: map[string]float64{"total": float64(total)},
	}
}
