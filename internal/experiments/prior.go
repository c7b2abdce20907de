package experiments

import (
	"rfpsim/internal/config"
	"rfpsim/internal/stats"
)

// runFig15 reproduces Figure 15: RFP against the value/address prediction
// prior art, and the VP+RFP fusion. Paper: EVES-style VP alone 2.2%, RFP
// alone 3.1%, VP+RFP 4.15% (54.6% combined coverage); Composite similar to
// VP; EPP slightly below Composite due to SSBF re-executions.
func runFig15(s *suite) *Result {
	base := s.run(config.Baseline())
	metrics := map[string]float64{}
	tb := stats.NewTable("Scheme", "Speedup", "Coverage (loads helped)")

	type scheme struct {
		key string
		cfg config.Core
		cov func(*stats.Sim) float64
	}
	vpCov := func(s *stats.Sim) float64 { return s.VPCoverage() }
	rfpCov := func(s *stats.Sim) float64 { return s.RFPCoverage() }
	bothCov := func(s *stats.Sim) float64 { return s.VPCoverage() + s.RFPCoverage() }
	schemes := []scheme{
		{"vp_eves", config.Baseline().WithVP(config.VPEVES), vpCov},
		{"dlvp", config.Baseline().WithVP(config.VPDLVP), vpCov},
		{"composite", config.Baseline().WithVP(config.VPComposite), vpCov},
		{"epp", config.Baseline().WithVP(config.VPEPP), vpCov},
		{"rfp", config.Baseline().WithRFP(), rfpCov},
		{"vp+rfp", config.Baseline().WithVP(config.VPEVES).WithRFP(), bothCov},
	}
	for _, sc := range schemes {
		runs := s.run(sc.cfg)
		pairs := pairRuns(base, runs)
		sp := geomeanSpeedup(pairs)
		cov := meanOver(runs, sc.cov)
		tb.AddRow(sc.key, stats.Pct(sp), stats.Pct(cov))
		metrics["speedup_"+sc.key] = sp
		metrics["coverage_"+sc.key] = cov
	}
	return &Result{
		ID:      "fig15",
		Title:   "RFP vs value prediction (paper: VP 2.2%, RFP 3.1%, VP+RFP 4.15%)",
		Text:    tb.String(),
		Metrics: metrics,
	}
}

// runFig16 reproduces Figure 16: the DLVP constraint waterfall. Paper:
// address-predictable like RFP; high-confidence filter → 49%; no-forward
// filter → 45%; L1 port availability → 22%; probe-in-time → 11%.
func runFig16(s *suite) *Result {
	runs := s.run(config.Baseline().WithVP(config.VPDLVP))
	frac := func(f func(*stats.Sim) uint64) float64 {
		return meanOver(runs, func(s *stats.Sim) float64 {
			if s.Loads == 0 {
				return 0
			}
			return float64(f(s)) / float64(s.Loads)
		})
	}
	ap := frac(func(s *stats.Sim) uint64 { return s.AP.AddressPredictable })
	hc := frac(func(s *stats.Sim) uint64 { return s.AP.HighConfidence })
	nf := frac(func(s *stats.Sim) uint64 { return s.AP.NoFwdPass })
	pl := frac(func(s *stats.Sim) uint64 { return s.AP.ProbeLaunched })
	pt := frac(func(s *stats.Sim) uint64 { return s.AP.ProbeInTime })

	tb := stats.NewTable("Constraint stage", "Fraction of loads")
	tb.AddRow("address predictable (any confidence)", stats.Pct(ap))
	tb.AddRow("+ high confidence (APHC)", stats.Pct(hc))
	tb.AddRow("+ no-FWD predictor", stats.Pct(nf))
	tb.AddRow("+ L1 port available", stats.Pct(pl))
	tb.AddRow("+ probe data back by allocation", stats.Pct(pt))
	return &Result{
		ID:    "fig16",
		Title: "DLVP constraint waterfall (paper: ~49% -> 45% -> 22% -> 11%)",
		Text:  tb.String(),
		Metrics: map[string]float64{
			"address_predictable": ap, "high_confidence": hc,
			"no_fwd": nf, "probe_launched": pl, "probe_in_time": pt,
		},
	}
}
