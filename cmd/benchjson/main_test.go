package main

import "testing"

func TestParseBenchOutput(t *testing.T) {
	out := `goos: linux
goarch: amd64
pkg: rfpsim
cpu: Some CPU @ 2.00GHz
BenchmarkSimulatorThroughput-16         	      37	  31415926 ns/op	   12.34 muops_per_sec	 1024 B/op	       3 allocs/op
BenchmarkFig2Speedup-16                 	       1	1234567890 ns/op	    3.10 speedup_pct	  512 B/op	       2 allocs/op
PASS
ok  	rfpsim	12.345s
`
	results, err := ParseBenchOutput(out)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 2 {
		t.Fatalf("parsed %d results, want 2", len(results))
	}
	first := results[0]
	if first.Name != "BenchmarkSimulatorThroughput" {
		t.Errorf("name = %q (procs suffix not stripped?)", first.Name)
	}
	if first.Iterations != 37 {
		t.Errorf("iterations = %d, want 37", first.Iterations)
	}
	for unit, want := range map[string]float64{
		"ns/op": 31415926, "muops_per_sec": 12.34, "B/op": 1024, "allocs/op": 3,
	} {
		if got := first.Metrics[unit]; got != want {
			t.Errorf("metric %s = %g, want %g", unit, got, want)
		}
	}
	if got := results[1].Metrics["speedup_pct"]; got != 3.10 {
		t.Errorf("custom metric speedup_pct = %g, want 3.10", got)
	}
}

func TestParseBenchOutputRejectsMalformed(t *testing.T) {
	if _, err := ParseBenchOutput("BenchmarkX-8 notanumber 5 ns/op\n"); err == nil {
		t.Error("bad iteration count accepted")
	}
	if _, err := ParseBenchOutput("BenchmarkX-8 10 5 ns/op trailing\n"); err == nil {
		t.Error("odd value/unit pairing accepted")
	}
	if _, err := ParseBenchOutput("BenchmarkX-8 10 abc ns/op\n"); err == nil {
		t.Error("bad metric value accepted")
	}
}

func TestTrimProcs(t *testing.T) {
	for in, want := range map[string]string{
		"BenchmarkFoo-16":  "BenchmarkFoo",
		"BenchmarkFoo":     "BenchmarkFoo",
		"BenchmarkFoo-bar": "BenchmarkFoo-bar",
	} {
		if got := trimProcs(in); got != want {
			t.Errorf("trimProcs(%q) = %q, want %q", in, got, want)
		}
	}
}

// report builds a single-benchmark Report for the compare tests.
func report(name string, metrics map[string]float64) Report {
	return Report{Benchmarks: []Result{{Name: name, Iterations: 1, Metrics: metrics}}}
}

func TestCompareReportsGatesUopsDrop(t *testing.T) {
	base := report("BenchmarkRFPSimulatorThroughput",
		map[string]float64{"uops/s": 1_500_000, "allocs/op": 0})

	// A planted >10% throughput regression must fail the gate.
	bad := report("BenchmarkRFPSimulatorThroughput",
		map[string]float64{"uops/s": 1_200_000, "allocs/op": 0})
	regs, err := CompareReports(base, bad, 0.10, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(regs) != 1 || regs[0].Metric != "uops/s" {
		t.Fatalf("planted 20%% uops/s drop produced %v, want one uops/s regression", regs)
	}

	// A drop inside the tolerance passes.
	ok := report("BenchmarkRFPSimulatorThroughput",
		map[string]float64{"uops/s": 1_400_000, "allocs/op": 0})
	regs, err = CompareReports(base, ok, 0.10, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(regs) != 0 {
		t.Fatalf("7%% drop within tolerance flagged: %v", regs)
	}
}

func TestCompareReportsGatesAllocsGrowth(t *testing.T) {
	base := report("BenchmarkSimulatorThroughput",
		map[string]float64{"uops/s": 1_000_000, "allocs/op": 0})
	// Any allocation against a zero-alloc baseline fails.
	bad := report("BenchmarkSimulatorThroughput",
		map[string]float64{"uops/s": 1_000_000, "allocs/op": 1})
	regs, err := CompareReports(base, bad, 0.10, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(regs) != 1 || regs[0].Metric != "allocs/op" {
		t.Fatalf("alloc regression vs zero baseline produced %v, want one allocs/op regression", regs)
	}
}

func TestCompareReportsIntersection(t *testing.T) {
	base := Report{Benchmarks: []Result{
		{Name: "BenchmarkA", Metrics: map[string]float64{"uops/s": 100, "allocs/op": 5}},
		{Name: "BenchmarkB", Metrics: map[string]float64{"allocs/op": 7}},
	}}
	// Benchmarks only in the baseline are ignored; metrics missing on
	// either side are skipped.
	cur := Report{Benchmarks: []Result{
		{Name: "BenchmarkA", Metrics: map[string]float64{"uops/s": 99, "allocs/op": 5}},
	}}
	regs, err := CompareReports(base, cur, 0.10, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(regs) != 0 {
		t.Fatalf("unexpected regressions: %v", regs)
	}

	// An empty intersection is a gate misconfiguration, not a pass.
	if _, err := CompareReports(base, report("BenchmarkC", map[string]float64{"uops/s": 1}), 0.10, 0); err == nil {
		t.Error("disjoint benchmark sets compared without error")
	}
}

func TestCheckBenchStream(t *testing.T) {
	good := "goos: linux\nBenchmarkX-8 10 5 ns/op\nPASS\nok  \trfpsim\t1.2s\n"
	if err := CheckBenchStream(good); err != nil {
		t.Errorf("clean stream rejected: %v", err)
	}
	midFail := "BenchmarkX-8 10 5 ns/op\n--- FAIL: BenchmarkY\nFAIL\n"
	if err := CheckBenchStream(midFail); err == nil {
		t.Error("mid-stream benchmark failure accepted")
	}
	truncated := "goos: linux\nBenchmarkX-8 10 5 ns/op\n"
	if err := CheckBenchStream(truncated); err == nil {
		t.Error("truncated stream (no PASS marker) accepted")
	}
}

func TestCollapseMediansMergesRepeatedRuns(t *testing.T) {
	out := `BenchmarkSimulatorThroughput-2         	 300	 5000000 ns/op	 1800000 uops/s	 364 B/op	 0 allocs/op
BenchmarkRFPSimulatorThroughput-2      	 300	 5500000 ns/op	 1700000 uops/s	 422 B/op	 0 allocs/op
BenchmarkSimulatorThroughput-2         	 300	 9000000 ns/op	 1000000 uops/s	 364 B/op	 0 allocs/op
BenchmarkRFPSimulatorThroughput-2      	 300	 5400000 ns/op	 1750000 uops/s	 422 B/op	 0 allocs/op
BenchmarkSimulatorThroughput-2         	 300	 5200000 ns/op	 1750000 uops/s	 364 B/op	 1 allocs/op
BenchmarkRFPSimulatorThroughput-2      	 200	 5600000 ns/op	 1650000 uops/s	 422 B/op	 0 allocs/op
BenchmarkRFPSimulatorThroughput-2      	 400	 5300000 ns/op	 1800000 uops/s	 422 B/op	 0 allocs/op
PASS
`
	parsed, err := ParseBenchOutput(out)
	if err != nil {
		t.Fatal(err)
	}
	results := CollapseMedians(parsed)
	if len(results) != 2 || results[0].Name != "BenchmarkSimulatorThroughput" || results[1].Name != "BenchmarkRFPSimulatorThroughput" {
		t.Fatalf("collapsed to %+v, want one result per benchmark in first-seen order", results)
	}
	// Odd run count: the middle value, so the 9 ms outlier is ignored.
	for unit, want := range map[string]float64{
		"ns/op": 5200000, "uops/s": 1750000, "B/op": 364, "allocs/op": 0,
	} {
		if got := results[0].Metrics[unit]; got != want {
			t.Errorf("SimulatorThroughput %s = %g, want median %g", unit, got, want)
		}
	}
	// Even run count: the mean of the two middle values.
	if got := results[1].Metrics["uops/s"]; got != 1725000 {
		t.Errorf("RFPSimulatorThroughput uops/s = %g, want 1725000", got)
	}
	if got := results[1].Iterations; got != 300 {
		t.Errorf("RFPSimulatorThroughput iterations = %d, want 300", got)
	}

	// The gate compares one median per benchmark; fed the raw repeats it
	// would match the baseline against each, outlier included.
	base := Report{Benchmarks: []Result{
		{Name: "BenchmarkSimulatorThroughput", Metrics: map[string]float64{"uops/s": 1800000, "allocs/op": 0}},
	}}
	regs, err := CompareReports(base, Report{Benchmarks: results}, 0.10, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(regs) != 0 {
		t.Errorf("median run flagged as a regression: %v", regs)
	}
	regs, err = CompareReports(base, Report{Benchmarks: parsed}, 0.10, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(regs) == 0 {
		t.Error("uncollapsed repeats passed; the outlier run should have been flagged against each duplicate")
	}
}
