package experiments

import (
	"context"
	"fmt"
	"sort"

	"rfpsim/internal/config"
	"rfpsim/internal/stats"
)

// runSuite prints the calibration view of the workload suite: one row per
// workload with its baseline IPC, the L1/L2/DRAM share of its demand loads,
// and RFP's coverage and IPC gain, sorted by L1 share, then the suite
// means. It keeps the synthetic suite aligned with the paper's
// population-level facts (≈93% L1 hits, ≈43% RFP coverage); the means are
// the numbers fig2 and fig10 report.
func runSuite(ctx context.Context, opts Options) (*Result, error) {
	base := runConfig(ctx, config.Baseline(), opts)
	feat := runConfig(ctx, config.Baseline().WithRFP(), opts)
	pairs, err := pairRuns(base, feat)
	if err != nil {
		return nil, err
	}
	l1 := func(p pair) float64 { return p.base.LoadLevelFrac(stats.LevelL1) }
	sort.SliceStable(pairs, func(i, j int) bool { return l1(pairs[i]) < l1(pairs[j]) })

	tb := stats.NewTable("Workload", "IPC", "L1", "L2", "Mem", "Coverage", "RFP gain")
	ipcs := make([]float64, len(pairs))
	l1s := make([]float64, len(pairs))
	covs := make([]float64, len(pairs))
	for i, p := range pairs {
		ipcs[i], l1s[i], covs[i] = p.base.IPC(), l1(p), p.feat.RFPCoverage()
		tb.AddRow(p.spec.Name, fmt.Sprintf("%.2f", ipcs[i]), stats.Pct(l1s[i]),
			stats.Pct(p.base.LoadLevelFrac(stats.LevelL2)),
			stats.Pct(p.base.LoadLevelFrac(stats.LevelMem)),
			stats.Pct(covs[i]), stats.Pct(stats.Speedup(p.base, p.feat)))
	}
	metrics := map[string]float64{
		"mean_ipc":      stats.Mean(ipcs),
		"mean_l1":       stats.Mean(l1s),
		"mean_coverage": stats.Mean(covs),
		"geomean_gain":  geomeanSpeedup(pairs),
	}
	txt := tb.String() + fmt.Sprintf("\nsuite means (%d workloads): IPC %.2f, L1 %s, coverage %s, geomean gain %s\n",
		len(pairs), metrics["mean_ipc"], stats.Pct(metrics["mean_l1"]),
		stats.Pct(metrics["mean_coverage"]), stats.Pct(metrics["geomean_gain"]))
	return &Result{
		ID:      "suite",
		Title:   "Per-workload suite calibration, sorted by L1 share (paper: ≈93% L1 hits, ≈43% RFP coverage)",
		Text:    txt,
		Metrics: metrics,
	}, nil
}
