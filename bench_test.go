// Package rfpsim_bench regenerates every paper table and figure as a Go
// benchmark: `go test -bench=. -benchmem` runs a reduced version of each
// experiment and reports its headline numbers as custom benchmark metrics
// (speedup_pct, coverage_pct, ...), alongside the simulator's raw
// throughput. The full-fidelity reproduction is `go run ./cmd/experiments
// -run all`; these benches keep every experiment's machinery exercised and
// timed.
package rfpsim_bench

import (
	"context"

	"testing"

	"rfpsim/internal/config"
	"rfpsim/internal/core"
	"rfpsim/internal/experiments"
	"rfpsim/internal/isa"
	"rfpsim/internal/runner"
	"rfpsim/internal/sample"
	"rfpsim/internal/trace"
)

// benchOpts returns a small but representative option set so a single
// benchmark iteration stays in the tens-of-milliseconds range.
func benchOpts() experiments.Options {
	names := []string{
		"spec06_hmmer", "spec06_mcf", "spec06_xalancbmk", "spec06_wrf",
		"spec17_deepsjeng", "spark",
	}
	specs := make([]trace.Spec, 0, len(names))
	for _, n := range names {
		s, ok := trace.ByName(n)
		if !ok {
			panic("missing workload " + n)
		}
		specs = append(specs, s)
	}
	return experiments.Options{WarmupUops: 5000, MeasureUops: 10000, Workloads: specs}
}

// runExperiment is the shared driver: run the experiment once per b.N and
// surface its metrics.
func runExperiment(b *testing.B, id string, metricKeys ...string) {
	b.Helper()
	e, ok := experiments.ByID(id)
	if !ok {
		b.Fatalf("experiment %s not registered", id)
	}
	opts := benchOpts()
	var last *experiments.Result
	for i := 0; i < b.N; i++ {
		res, err := e.Run(context.Background(), opts)
		if err != nil {
			b.Fatal(err)
		}
		last = res
	}
	for _, k := range metricKeys {
		if v, ok := last.Metrics[k]; ok {
			b.ReportMetric(v*100, k+"_pct")
		}
	}
}

// BenchmarkSimulatorThroughput measures raw simulation speed in uops/s on
// the baseline core — the cost model everything else is built on.
func BenchmarkSimulatorThroughput(b *testing.B) {
	spec, _ := trace.ByName("spec06_gcc")
	c := core.New(config.Baseline(), spec.New())
	c.WarmCaches()
	b.ResetTimer()
	const chunk = 10000
	for i := 0; i < b.N; i++ {
		if _, err := c.Run(context.Background(), chunk); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(chunk*b.N)/b.Elapsed().Seconds(), "uops/s")
}

// BenchmarkRFPSimulatorThroughput measures simulation speed with the full
// RFP machinery active.
func BenchmarkRFPSimulatorThroughput(b *testing.B) {
	spec, _ := trace.ByName("spec06_gcc")
	c := core.New(config.Baseline().WithRFP(), spec.New())
	c.WarmCaches()
	b.ResetTimer()
	const chunk = 10000
	for i := 0; i < b.N; i++ {
		if _, err := c.Run(context.Background(), chunk); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(chunk*b.N)/b.Elapsed().Seconds(), "uops/s")
}

// BenchmarkSampledRun measures a sampled job end to end: sample.Run on
// spec06_mcf under RFP+CLP with the managed L1 prefetcher, at the
// rfpbench sampled-sweep size (warmup 20K, measure 100K, default plan).
// Profiling, fast-forward, forks and the replayed intervals all count.
// uops/s is the measured window the job estimates per wall second.
func BenchmarkSampledRun(b *testing.B) {
	spec, _ := trace.ByName("spec06_mcf")
	job := runner.Job{
		Config:      config.Baseline().WithCLP().WithPrefetcher("managed"),
		Spec:        spec,
		WarmupUops:  20000,
		MeasureUops: 100000,
		Seeds:       1,
		Sampling:    &runner.Sampling{},
	}
	for i := 0; i < b.N; i++ {
		if _, err := sample.Run(context.Background(), job); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(job.MeasureUops)*float64(b.N)/b.Elapsed().Seconds(), "uops/s")
}

// BenchmarkFig1OracleHeadroom regenerates Figure 1 (oracle prefetching
// between adjacent hierarchy levels).
func BenchmarkFig1OracleHeadroom(b *testing.B) {
	runExperiment(b, "fig1", "speedup_L1->RF", "speedup_Mem->LLC")
}

// BenchmarkFig2LoadDistribution regenerates Figure 2 (demand load hit
// distribution).
func BenchmarkFig2LoadDistribution(b *testing.B) {
	runExperiment(b, "fig2", "frac_L1")
}

// BenchmarkFig10RFPBaseline regenerates Figure 10 (RFP speedup and
// coverage on the baseline core).
func BenchmarkFig10RFPBaseline(b *testing.B) {
	runExperiment(b, "fig10", "speedup", "coverage")
}

// BenchmarkFig11PerWorkload regenerates Figure 11 (per-workload gain vs
// coverage).
func BenchmarkFig11PerWorkload(b *testing.B) {
	runExperiment(b, "fig11", "frac_improved")
}

// BenchmarkFig12Upscaled regenerates Figure 12 (RFP on Baseline-2x).
func BenchmarkFig12Upscaled(b *testing.B) {
	runExperiment(b, "fig12", "speedup", "coverage")
}

// BenchmarkFig13Timeliness regenerates Figure 13 (injected/executed/useful
// funnel).
func BenchmarkFig13Timeliness(b *testing.B) {
	runExperiment(b, "fig13", "injected", "executed", "useful")
}

// BenchmarkFig14DedicatedPorts regenerates Figure 14 (dedicated RFP L1
// ports).
func BenchmarkFig14DedicatedPorts(b *testing.B) {
	runExperiment(b, "fig14", "speedup_shared", "speedup_dedicated")
}

// BenchmarkEffectiveness regenerates §5.2.2 (fully vs partially hidden).
func BenchmarkEffectiveness(b *testing.B) {
	runExperiment(b, "effectiveness", "fully_hidden", "partial")
}

// BenchmarkFig15VPvsRFP regenerates Figure 15 (RFP vs value prediction and
// the VP+RFP fusion).
func BenchmarkFig15VPvsRFP(b *testing.B) {
	runExperiment(b, "fig15", "speedup_rfp", "speedup_vp_eves", "speedup_vp+rfp")
}

// BenchmarkFig16DLVPWaterfall regenerates Figure 16 (DLVP constraints).
func BenchmarkFig16DLVPWaterfall(b *testing.B) {
	runExperiment(b, "fig16", "address_predictable", "probe_in_time")
}

// BenchmarkFig17Confidence regenerates Figure 17 (confidence width sweep).
func BenchmarkFig17Confidence(b *testing.B) {
	runExperiment(b, "fig17", "speedup_1bit", "speedup_4bit")
}

// BenchmarkFig18PTSize regenerates Figure 18 (Prefetch Table size sweep).
func BenchmarkFig18PTSize(b *testing.B) {
	runExperiment(b, "fig18", "speedup_1k", "speedup_16k")
}

// BenchmarkL1LatencySensitivity regenerates §5.5.2.
func BenchmarkL1LatencySensitivity(b *testing.B) {
	runExperiment(b, "l1lat", "speedup_l1_5", "speedup_l1_6")
}

// BenchmarkContextPrefetcher regenerates §5.5.3.
func BenchmarkContextPrefetcher(b *testing.B) {
	runExperiment(b, "context", "speedup_stride", "speedup_context")
}

// BenchmarkPATOptimization regenerates §5.5.4 (PAT area optimization).
func BenchmarkPATOptimization(b *testing.B) {
	runExperiment(b, "pat", "speedup_full", "speedup_pat", "storage_saving")
}

// BenchmarkSimplifications regenerates §5.5.5 (pipeline simplifications).
func BenchmarkSimplifications(b *testing.B) {
	runExperiment(b, "simplifications", "speedup_0")
}

// BenchmarkTable1Storage regenerates Table 1 (storage accounting; no
// simulation).
func BenchmarkTable1Storage(b *testing.B) {
	runExperiment(b, "table1")
}

// BenchmarkWorkloadGeneration measures trace generation speed alone (the
// substrate under everything).
func BenchmarkWorkloadGeneration(b *testing.B) {
	spec, _ := trace.ByName("spark")
	gen := spec.New()
	var op isa.MicroOp
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		gen.Next(&op)
	}
}

// BenchmarkPowerAnalysis regenerates the quantified §5.6 energy study.
func BenchmarkPowerAnalysis(b *testing.B) {
	runExperiment(b, "power", "epu_baseline", "epu_rfp")
}

// BenchmarkBandwidth regenerates the quantified §5.6 L1-traffic study.
func BenchmarkBandwidth(b *testing.B) {
	runExperiment(b, "bandwidth", "l1apu_baseline", "l1apu_rfp")
}

// BenchmarkCriticalRFP regenerates the criticality-targeted extension.
func BenchmarkCriticalRFP(b *testing.B) {
	runExperiment(b, "critical", "speedup_full", "speedup_critical")
}

// BenchmarkHWPrefetchComposition regenerates the cache-prefetcher
// orthogonality check.
func BenchmarkHWPrefetchComposition(b *testing.B) {
	runExperiment(b, "hwprefetch", "speedup_rfp_on_hw")
}

// BenchmarkBPQuality regenerates the branch-predictor-quality cross.
func BenchmarkBPQuality(b *testing.B) {
	runExperiment(b, "bpquality", "speedup_tage", "speedup_gshare")
}

// BenchmarkLateAlloc regenerates the §3.3 register file variation.
func BenchmarkLateAlloc(b *testing.B) {
	runExperiment(b, "latealloc", "speedup_rename", "speedup_late")
}

// BenchmarkCycleAccounting regenerates the top-down slot breakdown.
func BenchmarkCycleAccounting(b *testing.B) {
	runExperiment(b, "cycleacct", "retired_rfp", "loadstall_baseline", "loadstall_rfp")
}
