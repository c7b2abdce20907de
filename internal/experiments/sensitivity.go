package experiments

import (
	"fmt"

	"rfpsim/internal/config"
	"rfpsim/internal/rfp"
	"rfpsim/internal/stats"
)

// runFig17 reproduces Figure 17: confidence counter width 1..4 bits. Wider
// counters raise accuracy but shed coverage; since RFP mispredictions are
// cheap (no flush), 1-bit wins on speedup — the paper's headline argument
// for low-confidence prefetching.
func runFig17(s *suite) *Result {
	base := s.run(config.Baseline())
	tb := stats.NewTable("Confidence bits", "Speedup", "Coverage", "Wrong")
	metrics := map[string]float64{}
	for bits := 1; bits <= 4; bits++ {
		cfg := config.Baseline().WithRFP()
		cfg.RFP.ConfidenceBits = bits
		cfg.Name = fmt.Sprintf("rfp-conf%d", bits)
		runs := s.run(cfg)
		pairs := pairRuns(base, runs)
		sp := geomeanSpeedup(pairs)
		cov := meanOver(runs, (*stats.Sim).RFPCoverage)
		wrong := meanOver(runs, (*stats.Sim).RFPWrongFrac)
		tb.AddRow(fmt.Sprintf("%d-bit", bits), stats.Pct(sp), stats.Pct(cov), stats.Pct2(wrong))
		metrics[fmt.Sprintf("speedup_%dbit", bits)] = sp
		metrics[fmt.Sprintf("coverage_%dbit", bits)] = cov
		metrics[fmt.Sprintf("wrong_%dbit", bits)] = wrong
	}
	return &Result{
		ID:      "fig17",
		Title:   "Confidence width sensitivity (paper: 1-bit best; 4-bit drops coverage, wrong 5%->0.7%)",
		Text:    tb.String(),
		Metrics: metrics,
	}
}

// runFig18 reproduces Figure 18: Prefetch Table entries 1K..16K. Paper:
// small monotone improvement that flattens out.
func runFig18(s *suite) *Result {
	base := s.run(config.Baseline())
	tb := stats.NewTable("PT entries", "Speedup", "Coverage")
	metrics := map[string]float64{}
	for _, entries := range []int{1024, 2048, 4096, 8192, 16384} {
		cfg := config.Baseline().WithRFP()
		cfg.RFP.PTEntries = entries
		cfg.Name = fmt.Sprintf("rfp-pt%d", entries)
		runs := s.run(cfg)
		pairs := pairRuns(base, runs)
		sp := geomeanSpeedup(pairs)
		cov := meanOver(runs, (*stats.Sim).RFPCoverage)
		tb.AddRow(fmt.Sprintf("%dK", entries/1024), stats.Pct(sp), stats.Pct(cov))
		metrics[fmt.Sprintf("speedup_%dk", entries/1024)] = sp
		metrics[fmt.Sprintf("coverage_%dk", entries/1024)] = cov
	}
	return &Result{
		ID:      "fig18",
		Title:   "Prefetch Table size sensitivity (paper: 1K->16K gains little)",
		Text:    tb.String(),
		Metrics: metrics,
	}
}

// runL1Latency reproduces §5.5.2: raising L1 latency from 5 to 6 cycles
// increases RFP's gain (there is more latency to hide).
func runL1Latency(s *suite) *Result {
	tb := stats.NewTable("L1 latency", "RFP speedup")
	metrics := map[string]float64{}
	for _, lat := range []int{5, 6} {
		b := config.Baseline()
		b.Mem.L1Latency = lat
		b.Name = fmt.Sprintf("baseline-l1@%d", lat)
		f := b.WithRFP()
		base := s.run(b)
		feat := s.run(f)
		pairs := pairRuns(base, feat)
		sp := geomeanSpeedup(pairs)
		tb.AddRow(fmt.Sprintf("%d cycles", lat), stats.Pct(sp))
		metrics[fmt.Sprintf("speedup_l1_%d", lat)] = sp
	}
	return &Result{
		ID:      "l1lat",
		Title:   "L1 latency sensitivity (paper: 6-cycle L1 raises RFP gain by ~0.5%)",
		Text:    tb.String(),
		Metrics: metrics,
	}
}

// runContext reproduces §5.5.3: adding the path-based context prefetcher
// on top of the stride table. Paper: only +0.3%, so stride-only is enough.
func runContext(s *suite) *Result {
	base := s.run(config.Baseline())
	stride := s.run(config.Baseline().WithRFP())
	ctxCfg := config.Baseline().WithRFP()
	ctxCfg.RFP.UseContext = true
	ctxCfg.Name = "baseline+rfp+ctx"
	ctxRuns := s.run(ctxCfg)
	stridePairs := pairRuns(base, stride)
	ctxPairs := pairRuns(base, ctxRuns)
	spStride, spCtx := geomeanSpeedup(stridePairs), geomeanSpeedup(ctxPairs)
	tb := stats.NewTable("Prefetcher", "Speedup", "Coverage")
	tb.AddRow("stride only", stats.Pct(spStride), stats.Pct(meanOver(stride, (*stats.Sim).RFPCoverage)))
	tb.AddRow("stride + context", stats.Pct(spCtx), stats.Pct(meanOver(ctxRuns, (*stats.Sim).RFPCoverage)))
	return &Result{
		ID:      "context",
		Title:   "Context prefetcher (paper: +0.3% over stride — not worth the storage)",
		Text:    tb.String(),
		Metrics: map[string]float64{"speedup_stride": spStride, "speedup_context": spCtx},
	}
}

// runPAT reproduces §5.5.4: PT entries hold a 6-bit PAT pointer + 12-bit
// page offset instead of a 64-bit VA. Paper: ~50% storage saved for a
// negligible 0.09% performance drop.
func runPAT(s *suite) *Result {
	base := s.run(config.Baseline())
	full := s.run(config.Baseline().WithRFP())
	patCfg := config.Baseline().WithRFP()
	patCfg.RFP.UsePAT = true
	patCfg.Name = "baseline+rfp+pat"
	pat := s.run(patCfg)
	fullPairs := pairRuns(base, full)
	patPairs := pairRuns(base, pat)
	spFull, spPAT := geomeanSpeedup(fullPairs), geomeanSpeedup(patPairs)
	sFull := rfp.Storage(config.Baseline().WithRFP().RFP, config.Baseline().RSSize)
	sPAT := rfp.Storage(patCfg.RFP, config.Baseline().RSSize)
	saving := 1 - float64(sPAT.TotalBits())/float64(sFull.TotalBits())
	tb := stats.NewTable("PT encoding", "Speedup", "Storage")
	tb.AddRow("full 64-bit VA", stats.Pct(spFull), fmtKB(sFull.TotalBits()))
	tb.AddRow("PAT pointer + offset", stats.Pct(spPAT), fmtKB(sPAT.TotalBits()))
	return &Result{
		ID:    "pat",
		Title: "PAT area optimization (paper: ~50% storage saved, -0.09% perf)",
		Text:  tb.String() + fmt.Sprintf("\nStorage saving: %s\n", stats.Pct(saving)),
		Metrics: map[string]float64{
			"speedup_full": spFull, "speedup_pat": spPAT, "storage_saving": saving,
		},
	}
}

// runSimplifications reproduces §5.5.5: dropping prefetches on DTLB misses
// costs ~nothing; letting prefetches fetch L1 misses is worth ~0.02%.
func runSimplifications(s *suite) *Result {
	base := s.run(config.Baseline())
	variants := []struct {
		key string
		mut func(*config.RFPConfig)
	}{
		{"default (drop on TLB miss, fetch L1 misses)", func(*config.RFPConfig) {}},
		{"walk TLB misses instead of dropping", func(r *config.RFPConfig) { r.DropOnTLBMiss = false }},
		{"drop prefetches that miss the L1", func(r *config.RFPConfig) { r.PrefetchOnL1Miss = false }},
	}
	tb := stats.NewTable("Variant", "Speedup", "Coverage")
	metrics := map[string]float64{}
	for i, v := range variants {
		cfg := config.Baseline().WithRFP()
		v.mut(&cfg.RFP)
		cfg.Name = fmt.Sprintf("rfp-simpl%d", i)
		runs := s.run(cfg)
		pairs := pairRuns(base, runs)
		sp := geomeanSpeedup(pairs)
		tb.AddRow(v.key, stats.Pct(sp), stats.Pct(meanOver(runs, (*stats.Sim).RFPCoverage)))
		metrics[fmt.Sprintf("speedup_%d", i)] = sp
	}
	return &Result{
		ID:      "simplifications",
		Title:   "Pipeline simplifications (paper: both are ~free)",
		Text:    tb.String(),
		Metrics: metrics,
	}
}

// runTable1 reproduces Table 1: the RFP storage bill of materials.
func runTable1(*suite) *Result {
	tb := stats.NewTable("Structure", "Fields", "Storage")
	cfgPAT := config.DefaultRFP()
	cfgPAT.UsePAT = true
	rep1k := rfp.Storage(cfgPAT, config.Baseline().RSSize)
	cfg2k := cfgPAT
	cfg2k.PTEntries = 2048
	rep2k := rfp.Storage(cfg2k, config.Baseline().RSSize)
	tb.AddRow("Prefetch Table (1024-2048 entries)",
		"Tag 16b, Conf 1b, Utility 2b, Stride 8b, Inflight 7b, PAT ptr 6b, Page offset 12b",
		fmtKB(rep1k.PTBits)+" - "+fmtKB(rep2k.PTBits))
	tb.AddRow("Page Address Table (64 entries)", "Page address 44b", fmt.Sprintf("%db", rep1k.PATBits))
	tb.AddRow(fmt.Sprintf("RFP-inflight (%d RS entries)", config.Baseline().RSSize), "1b", fmt.Sprintf("%db", rep1k.RFPInflightBits))
	return &Result{
		ID:    "table1",
		Title: "RFP storage (paper: 6.5KB PT @1K entries, 352B PAT, 128b RS bits)",
		Text:  tb.String(),
		Metrics: map[string]float64{
			"pt_bits_1k": float64(rep1k.PTBits), "pat_bits": float64(rep1k.PATBits),
			"rs_bits": float64(rep1k.RFPInflightBits),
		},
	}
}

func fmtKB(bits int) string {
	return fmt.Sprintf("%.1fKB", float64(bits)/8/1024)
}
