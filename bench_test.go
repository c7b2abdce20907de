// Package rfpsim_bench regenerates every paper table and figure as a Go
// benchmark: `go test -bench=Experiments -benchmem` runs a reduced version
// of each registered experiment as BenchmarkExperiments/<id> and reports
// its headline metrics under their own names (speedup, coverage, ...),
// alongside the simulator's raw throughput. The full-fidelity
// reproduction is `go run ./cmd/experiments -run all`; these benches keep
// every experiment's machinery exercised and timed.
package rfpsim_bench

import (
	"bytes"
	"context"
	"testing"

	"rfpsim/internal/config"
	"rfpsim/internal/core"
	"rfpsim/internal/experiments"
	"rfpsim/internal/isa"
	"rfpsim/internal/runner"
	"rfpsim/internal/sample"
	"rfpsim/internal/trace"
	"rfpsim/internal/tracefile"
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

// BenchmarkExperiments runs every registered experiment once per
// iteration on benchOpts and reports each of its headline metrics under
// the metric's own name, in the Result's units (fractions stay fractions).
func BenchmarkExperiments(b *testing.B) {
	opts := benchOpts()
	for _, e := range experiments.All() {
		b.Run(e.ID, func(b *testing.B) {
			var last *experiments.Result
			for i := 0; i < b.N; i++ {
				res, err := e.Run(context.Background(), opts)
				if err != nil {
					b.Fatal(err)
				}
				last = res
			}
			for _, k := range last.MetricKeys() {
				b.ReportMetric(last.Metrics[k], k)
			}
		})
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

// BenchmarkMemBoundThroughput measures simulation speed where the cycle
// loop waits on memory: spec06_mcf under RFP+CLP with the stream L1
// prefetcher, at an IPC far below the spec06_gcc throughput benchmarks.
// Most cycles issue little, so the cost of finding ready uops dominates.
func BenchmarkMemBoundThroughput(b *testing.B) {
	spec, _ := trace.ByName("spec06_mcf")
	c := core.New(config.Baseline().WithCLP().WithPrefetcher("stream"), spec.New())
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

// BenchmarkSampledRun measures a sampled job end to end: sample.RunResult on
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
		if _, err := sample.RunResult(context.Background(), job); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(job.MeasureUops)*float64(b.N)/b.Elapsed().Seconds(), "uops/s")
}

// BenchmarkSampledFamily measures a family of sampled jobs end to end:
// sample.RunFamily on spec06_mcf at the BenchmarkSampledRun size over the
// rfpbench sampled-sweep grid, RFP with the stream and managed L1
// prefetchers and CLP off and on. One profile and one fast-forward pass
// serve all four configurations; each point is forked and replayed four
// times. uops/s is the measured windows the four jobs estimate per wall
// second.
func BenchmarkSampledFamily(b *testing.B) {
	spec, _ := trace.ByName("spec06_mcf")
	var jobs []runner.Job
	for _, pf := range []string{"stream", "managed"} {
		for _, clp := range []bool{false, true} {
			cfg := config.Baseline().WithRFP().WithPrefetcher(pf)
			if clp {
				cfg = cfg.WithCLP()
			}
			jobs = append(jobs, runner.Job{Config: cfg, Spec: spec,
				WarmupUops: 20000, MeasureUops: 100000, Seeds: 1, Sampling: &runner.Sampling{}})
		}
	}
	for i := 0; i < b.N; i++ {
		_, errs := sample.RunFamily(context.Background(), jobs)
		for _, err := range errs {
			if err != nil {
				b.Fatal(err)
			}
		}
	}
	b.ReportMetric(float64(len(jobs))*float64(jobs[0].MeasureUops)*float64(b.N)/b.Elapsed().Seconds(), "uops/s")
}

// BenchmarkFastForward measures functional warming alone: core.FastForward
// on a functional core (core.NewFunctional) over spec06_mcf with RFP on,
// the core sampled replay drives between points.
func BenchmarkFastForward(b *testing.B) {
	spec, _ := trace.ByName("spec06_mcf")
	c := core.NewFunctional(config.Baseline().WithRFP(), spec.New())
	c.WarmCaches()
	b.ResetTimer()
	const chunk = 10000
	for i := 0; i < b.N; i++ {
		if err := c.FastForward(context.Background(), chunk); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(chunk*b.N)/b.Elapsed().Seconds(), "uops/s")
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

// traceUops is the length of the .rfpt stream the codec benchmarks run
// over: the 250K-uop spark trace rfpbench's service-mix uploads.
const traceUops = 250000

// sparkUops returns the first traceUops uops of spark.
func sparkUops() []isa.MicroOp {
	spec, _ := trace.ByName("spark")
	gen := spec.New()
	ops := make([]isa.MicroOp, traceUops)
	for i := range ops {
		gen.Next(&ops[i])
	}
	return ops
}

// encodeTrace writes ops as an .rfpt stream into buf.
func encodeTrace(b *testing.B, buf *bytes.Buffer, ops []isa.MicroOp) {
	w := tracefile.NewWriter(buf)
	for i := range ops {
		if err := w.Write(&ops[i]); err != nil {
			b.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkTraceEncode measures the .rfpt encoder: one op writes the
// 250K-uop spark stream through tracefile.Writer into a reused buffer.
func BenchmarkTraceEncode(b *testing.B) {
	ops := sparkUops()
	var buf bytes.Buffer
	encodeTrace(b, &buf, ops)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf.Reset()
		encodeTrace(b, &buf, ops)
	}
	b.ReportMetric(float64(traceUops*b.N)/b.Elapsed().Seconds(), "uops/s")
}

// BenchmarkTraceDecode measures the .rfpt decoder: one op decodes the
// 250K-uop spark stream from memory through tracefile.Reader, as a
// trace upload's validation and every trace-sourced job do.
func BenchmarkTraceDecode(b *testing.B) {
	var buf bytes.Buffer
	encodeTrace(b, &buf, sparkUops())
	raw := buf.Bytes()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r, err := tracefile.NewReader(bytes.NewReader(raw), "spark")
		if err != nil {
			b.Fatal(err)
		}
		var op isa.MicroOp
		n := 0
		for r.Next(&op) {
			n++
		}
		if n != traceUops || r.Err() != nil {
			b.Fatalf("decoded %d of %d uops: %v", n, traceUops, r.Err())
		}
	}
	b.ReportMetric(float64(traceUops*b.N)/b.Elapsed().Seconds(), "uops/s")
}
