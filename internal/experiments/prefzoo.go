package experiments

import (
	"fmt"

	"rfpsim/internal/config"
	"rfpsim/internal/stats"
)

// runPrefZoo crosses RFP with the L1 prefetcher zoo (stream, SPP, SISB and
// the adaptive managed policy; "none" is RFP with no cache prefetcher at
// all). The interesting shape: the schemes trade coverage against accuracy
// differently per workload class — stream wins on dense striding, SISB on
// recurring irregular streams, SPP in between — and the managed policy
// should track the best static choice per workload, since that is exactly
// what its shadow scoring selects for. managed_wins_frac counts the
// workloads where managed IPC is at least the best static scheme's IPC
// (ties count: picking the same scheme is a win for the policy).
func runPrefZoo(s *suite) *Result {
	schemes := []struct {
		key string
		cfg config.Core
	}{
		{"none", config.Baseline().WithRFP()},
		{"stream", config.Baseline().WithRFP().WithPrefetcher("stream")},
		{"spp", config.Baseline().WithRFP().WithPrefetcher("spp")},
		{"sisb", config.Baseline().WithRFP().WithPrefetcher("sisb")},
		{"managed", config.Baseline().WithRFP().WithPrefetcher("managed")},
	}

	base := s.run(config.Baseline())
	tb := stats.NewTable("Prefetcher", "Speedup", "L1PF coverage", "L1PF accuracy", "Issued/kuop")
	metrics := map[string]float64{}
	ipcs := map[string][]float64{}
	for _, sc := range schemes {
		runs := s.run(sc.cfg)
		pairs := pairRuns(base, runs)
		sp := geomeanSpeedup(pairs)
		cov := meanOver(runs, (*stats.Sim).L1PFCoverage)
		acc := meanOver(runs, (*stats.Sim).L1PFAccuracy)
		ipk := meanOver(runs, func(st *stats.Sim) float64 {
			if st.Instructions == 0 {
				return 0
			}
			return 1000 * float64(st.L1PF.Issued) / float64(st.Instructions)
		})
		for _, r := range runs {
			ipcs[sc.key] = append(ipcs[sc.key], r.Stats.IPC())
		}
		tb.AddRow(sc.key, stats.Pct(sp), stats.Pct(cov), stats.Pct(acc), fmt.Sprintf("%.1f", ipk))
		metrics["speedup_"+sc.key] = sp
		metrics["coverage_"+sc.key] = cov
		metrics["accuracy_"+sc.key] = acc
		metrics["issued_kuop_"+sc.key] = ipk
	}

	// Per-workload adaptivity score: on how many workloads does the
	// managed policy match or beat the best static scheme?
	wins := 0
	n := len(ipcs["managed"])
	for i := 0; i < n; i++ {
		best := ipcs["stream"][i]
		if ipcs["spp"][i] > best {
			best = ipcs["spp"][i]
		}
		if ipcs["sisb"][i] > best {
			best = ipcs["sisb"][i]
		}
		if ipcs["managed"][i] >= best {
			wins++
		}
	}
	winsFrac := 0.0
	if n > 0 {
		winsFrac = float64(wins) / float64(n)
	}
	metrics["managed_wins_frac"] = winsFrac

	txt := tb.String() + fmt.Sprintf(
		"\nManaged matches or beats the best static prefetcher on %d/%d workloads (%.0f%%).\n",
		wins, n, 100*winsFrac)
	return &Result{
		ID:      "prefzoo",
		Title:   "Extension: L1 prefetcher zoo under RFP (stream vs SPP vs SISB vs managed)",
		Text:    txt,
		Metrics: metrics,
	}
}
