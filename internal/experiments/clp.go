package experiments

import (
	"fmt"

	"rfpsim/internal/config"
	"rfpsim/internal/stats"
)

// runCLP evaluates the cache-level-predicted RFP arming schedule
// (docs/predictors.md): a PC-indexed predictor of the hierarchy level that
// will serve each load steers the register-file prefetch — predicted DRAM
// accesses are skipped (the prefetch cannot hide hundreds of cycles from
// rename anyway), predicted near hits arm the RFP-inflight bit early, and
// under queue pressure only criticality-flagged loads claim slots. The
// figure reports, over the full workload catalog, the predictor's coverage
// and per-level accuracy plus the IPC delta of CLP-scheduled RFP against
// both the plain baseline and flat (level-blind) RFP.
func runCLP(s *suite) *Result {
	base := s.run(config.Baseline())
	flat := s.run(config.Baseline().WithRFP())
	clp := s.run(config.Baseline().WithCLP())

	flatPairs := pairRuns(base, flat)
	clpPairs := pairRuns(base, clp)
	spFlat, spCLP := geomeanSpeedup(flatPairs), geomeanSpeedup(clpPairs)

	cov := meanOver(clp, (*stats.Sim).CLPCoverage)
	acc := meanOver(clp, (*stats.Sim).CLPAccuracy)
	injFlat := meanOver(flat, (*stats.Sim).RFPInjectedFrac)
	injCLP := meanOver(clp, (*stats.Sim).RFPInjectedFrac)

	tb := stats.NewTable("Variant", "Speedup", "Injected", "CLP coverage", "CLP accuracy")
	tb.AddRow("flat RFP", stats.Pct(spFlat), stats.Pct(injFlat), "-", "-")
	tb.AddRow("CLP-scheduled RFP", stats.Pct(spCLP), stats.Pct(injCLP), stats.Pct(cov), stats.Pct(acc))

	lv := stats.NewTable("Level", "Predicted share", "Accuracy")
	metrics := map[string]float64{
		"speedup_flat": spFlat, "speedup_clp": spCLP,
		"coverage": cov, "accuracy": acc,
		"injected_flat": injFlat, "injected_clp": injCLP,
	}
	for l := 0; l < stats.NumLevels; l++ {
		l := l
		share := meanOver(clp, func(s *stats.Sim) float64 {
			tot := s.CLP.PredictedTotal()
			if tot == 0 {
				return 0
			}
			return float64(s.CLP.Predicted[l]) / float64(tot)
		})
		lacc := meanOver(clp, func(s *stats.Sim) float64 { return s.CLPLevelAccuracy(l) })
		lv.AddRow(stats.LevelName(l), stats.Pct(share), stats.Pct(lacc))
		metrics["share_"+stats.LevelName(l)] = share
		metrics["accuracy_"+stats.LevelName(l)] = lacc
	}

	skipped := meanOver(clp, func(s *stats.Sim) float64 {
		if s.Loads == 0 {
			return 0
		}
		return float64(s.CLP.SkippedDRAM) / float64(s.Loads)
	})
	early := meanOver(clp, func(s *stats.Sim) float64 {
		if s.RFP.Injected == 0 {
			return 0
		}
		return float64(s.CLP.EarlyArmed) / float64(s.RFP.Injected)
	})
	gated := meanOver(clp, func(s *stats.Sim) float64 {
		if s.Loads == 0 {
			return 0
		}
		return float64(s.CLP.CritGated) / float64(s.Loads)
	})
	metrics["skipped_dram_frac"] = skipped
	metrics["early_armed_frac"] = early
	metrics["crit_gated_frac"] = gated

	txt := tb.String() + "\nPer-level prediction breakdown (share of confident predictions, accuracy at that level):\n" +
		lv.String() + fmt.Sprintf(
		"\nSchedule actions: %s of loads skipped (predicted DRAM), %s of injected prefetches armed early (predicted near hit), %s of loads criticality-gated under queue pressure.\n",
		stats.Pct(skipped), stats.Pct(early), stats.Pct(gated))
	return &Result{
		ID:      "clp",
		Title:   "Extension: cache-level-predicted RFP arming schedule",
		Text:    txt,
		Metrics: metrics,
	}
}
