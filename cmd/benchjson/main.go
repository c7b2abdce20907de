// Command benchjson runs the repository's bench_test.go benchmarks and
// writes the results as machine-readable JSON, so performance numbers can
// be archived per date and diffed across commits instead of living in
// scrollback.
//
// Usage:
//
//	benchjson [-bench regexp] [-benchtime 1x] [-count 1] [-out BENCH_<date>.json]
//	          [-date YYYY-MM-DD] [-compare BENCH_<date>.json]
//
// The default output name embeds the run date (BENCH_2006-01-02.json);
// -date overrides the stamp so CI runs are reproducible. The file records
// the toolchain, host shape (CPUs and GOMAXPROCS) and every benchmark's
// full metric set — the standard ns/op, B/op and allocs/op plus the custom
// experiment metrics (speedup_pct, coverage_pct, ...) bench_test.go
// reports. With -count N each benchmark runs N times and the report holds
// one result per benchmark whose every metric is the median of its runs.
//
// With -compare, the fresh run is additionally diffed against a committed
// baseline file and the command exits non-zero when a shared benchmark
// regresses: uops/s dropping more than -max-uops-drop (default 10%), or
// allocs/op growing more than -max-allocs-growth (default 0: any increase
// fails, guarding the zero-alloc cycle loop). This is the CI perf gate.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"time"
)

// Result is one benchmark's parsed output line.
type Result struct {
	// Name is the benchmark name with the -<procs> suffix stripped.
	Name string `json:"name"`
	// Iterations is the b.N the reported averages were taken over.
	Iterations int64 `json:"iterations"`
	// Metrics maps unit -> value for every "value unit" pair on the line
	// (ns/op, B/op, allocs/op and custom units alike).
	Metrics map[string]float64 `json:"metrics"`
}

// Report is the file schema.
type Report struct {
	// Date is the run date (YYYY-MM-DD).
	Date string `json:"date"`
	// GoVersion, GOOS, GOARCH and CPUs describe the machine the numbers
	// came from; comparing files across different hosts compares hosts.
	GoVersion string `json:"go_version"`
	GOOS      string `json:"goos"`
	GOARCH    string `json:"goarch"`
	CPUs      int    `json:"cpus"`
	// GOMAXPROCS is the parallelism the benchmarks ran with.
	GOMAXPROCS int `json:"gomaxprocs,omitempty"`
	// Bench, Benchtime and Count echo the selection the run used.
	Bench     string `json:"bench"`
	Benchtime string `json:"benchtime"`
	Count     int    `json:"count,omitempty"`
	// Benchmarks lists every parsed result in output order.
	Benchmarks []Result `json:"benchmarks"`
}

func main() {
	var (
		bench      = flag.String("bench", ".", "benchmark selection regexp (go test -bench)")
		benchtime  = flag.String("benchtime", "1x", "per-benchmark budget (go test -benchtime)")
		count      = flag.Int("count", 1, "runs per benchmark, reported as per-metric medians (go test -count)")
		out        = flag.String("out", "", "output path (default BENCH_<date>.json)")
		date       = flag.String("date", "", "date stamp for the report and default filename (default today)")
		compare    = flag.String("compare", "", "baseline BENCH_*.json to gate the fresh run against")
		maxDrop    = flag.Float64("max-uops-drop", 0.10, "max fractional uops/s drop vs baseline before failing")
		maxAllocUp = flag.Float64("max-allocs-growth", 0, "max fractional allocs/op growth vs baseline before failing")
	)
	flag.Parse()
	if *count < 1 {
		fmt.Fprintln(os.Stderr, "benchjson: -count must be at least 1")
		os.Exit(2)
	}

	stamp := *date
	if stamp == "" {
		stamp = time.Now().Format("2006-01-02")
	}
	path := *out
	if path == "" {
		path = "BENCH_" + stamp + ".json"
	}

	cmd := exec.Command("go", "test", "-run", "^$", "-bench", *bench,
		"-benchtime", *benchtime, "-count", strconv.Itoa(*count), "-benchmem", ".")
	cmd.Stderr = os.Stderr
	outBytes, err := cmd.Output()
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchjson: go test -bench failed: %v\n%s", err, outBytes)
		os.Exit(1)
	}
	// A zero exit status is not proof the stream is whole: verify the run
	// terminated cleanly so a truncated or partially failed benchmark
	// stream never produces a silently shorter report.
	if err := CheckBenchStream(string(outBytes)); err != nil {
		fmt.Fprintf(os.Stderr, "benchjson: %v\n%s", err, outBytes)
		os.Exit(1)
	}

	results, err := ParseBenchOutput(string(outBytes))
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
	results = CollapseMedians(results)
	if len(results) == 0 {
		fmt.Fprintf(os.Stderr, "benchjson: no benchmarks matched -bench %q\n", *bench)
		os.Exit(1)
	}

	rep := Report{
		Date:       stamp,
		GoVersion:  runtime.Version(),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		CPUs:       runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Bench:      *bench,
		Benchtime:  *benchtime,
		Count:      *count,
		Benchmarks: results,
	}
	f, err := os.Create(path)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	if err := enc.Encode(rep); err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
	if err := f.Close(); err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
	fmt.Printf("wrote %d benchmark results to %s\n", len(results), path)

	if *compare == "" {
		return
	}
	baseBytes, err := os.ReadFile(*compare)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
	var baseline Report
	if err := json.Unmarshal(baseBytes, &baseline); err != nil {
		fmt.Fprintf(os.Stderr, "benchjson: parsing baseline %s: %v\n", *compare, err)
		os.Exit(1)
	}
	regs, err := CompareReports(baseline, rep, *maxDrop, *maxAllocUp)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
	if len(regs) > 0 {
		fmt.Fprintf(os.Stderr, "benchjson: %d regression(s) vs %s (%s):\n", len(regs), *compare, baseline.Date)
		for _, r := range regs {
			fmt.Fprintf(os.Stderr, "  %s\n", r)
		}
		os.Exit(1)
	}
	fmt.Printf("no regressions vs %s (%s)\n", *compare, baseline.Date)
}

// Regression is one perf-gate violation: a shared benchmark whose gated
// metric moved past its allowed bound.
type Regression struct {
	Bench  string
	Metric string
	Old    float64
	New    float64
}

// String renders the regression as "bench: metric old -> new".
func (r Regression) String() string {
	return fmt.Sprintf("%s: %s %g -> %g", r.Bench, r.Metric, r.Old, r.New)
}

// CompareReports gates current against baseline. Only benchmarks present
// in both reports are compared (the gate typically re-runs a throughput
// subset of a full-suite baseline); an empty intersection is an error so a
// misconfigured selection regexp cannot pass vacuously. For each shared
// benchmark, uops/s may not drop by more than maxUopsDrop (fractional) and
// allocs/op may not grow by more than maxAllocsGrowth; with a zero-alloc
// baseline any allocation at all fails.
func CompareReports(baseline, current Report, maxUopsDrop, maxAllocsGrowth float64) ([]Regression, error) {
	base := make(map[string]Result, len(baseline.Benchmarks))
	for _, r := range baseline.Benchmarks {
		base[r.Name] = r
	}
	var regs []Regression
	shared := 0
	for _, cur := range current.Benchmarks {
		old, ok := base[cur.Name]
		if !ok {
			continue
		}
		shared++
		if ov, ok := old.Metrics["uops/s"]; ok {
			if nv, ok := cur.Metrics["uops/s"]; ok && nv < ov*(1-maxUopsDrop) {
				regs = append(regs, Regression{cur.Name, "uops/s", ov, nv})
			}
		}
		if ov, ok := old.Metrics["allocs/op"]; ok {
			if nv, ok := cur.Metrics["allocs/op"]; ok && nv > ov*(1+maxAllocsGrowth) {
				regs = append(regs, Regression{cur.Name, "allocs/op", ov, nv})
			}
		}
	}
	if shared == 0 {
		return nil, fmt.Errorf("no benchmarks shared between baseline (%d) and current run (%d); check the -bench selection",
			len(baseline.Benchmarks), len(current.Benchmarks))
	}
	return regs, nil
}

// CheckBenchStream verifies a `go test -bench` stream ran to completion:
// no benchmark reported a failure mid-stream, and the trailing PASS/ok
// markers are present (their absence means the stream was truncated — an
// OOM-killed or crashed test binary can exit before the tail without the
// parent seeing a useful status).
func CheckBenchStream(out string) error {
	if strings.Contains(out, "--- FAIL") {
		return fmt.Errorf("a benchmark failed mid-stream")
	}
	if !strings.Contains(out, "\nPASS") && !strings.HasPrefix(out, "PASS") {
		return fmt.Errorf("benchmark stream has no PASS marker (truncated output?)")
	}
	return nil
}

// ParseBenchOutput extracts benchmark result lines from `go test -bench`
// output. A result line is
//
//	BenchmarkName-8    100    12345 ns/op    67 B/op    8 allocs/op ...
//
// a benchmark identifier, an iteration count, then one or more
// "value unit" metric pairs. Lines that do not match (the goos/pkg
// header, PASS, ok) are skipped; a line that starts like a benchmark but
// fails to parse is an error rather than silently dropped data.
func ParseBenchOutput(out string) ([]Result, error) {
	var results []Result
	for _, line := range strings.Split(out, "\n") {
		fields := strings.Fields(line)
		if len(fields) < 4 || !strings.HasPrefix(fields[0], "Benchmark") {
			continue
		}
		iters, err := strconv.ParseInt(fields[1], 10, 64)
		if err != nil {
			return nil, fmt.Errorf("bad iteration count in %q: %w", line, err)
		}
		if (len(fields)-2)%2 != 0 {
			return nil, fmt.Errorf("odd value/unit pairing in %q", line)
		}
		r := Result{
			Name:       trimProcs(fields[0]),
			Iterations: iters,
			Metrics:    map[string]float64{},
		}
		for i := 2; i < len(fields); i += 2 {
			v, err := strconv.ParseFloat(fields[i], 64)
			if err != nil {
				return nil, fmt.Errorf("bad metric value in %q: %w", line, err)
			}
			r.Metrics[fields[i+1]] = v
		}
		results = append(results, r)
	}
	return results, nil
}

// CollapseMedians merges the repeated results -count produces into one
// result per benchmark name, in order of first appearance. Each metric
// becomes the median over the runs that reported it, and Iterations the
// median iteration count.
func CollapseMedians(results []Result) []Result {
	var names []string
	runs := map[string][]Result{}
	for _, r := range results {
		if _, ok := runs[r.Name]; !ok {
			names = append(names, r.Name)
		}
		runs[r.Name] = append(runs[r.Name], r)
	}
	out := make([]Result, 0, len(names))
	for _, name := range names {
		rs := runs[name]
		iters := make([]float64, len(rs))
		values := map[string][]float64{}
		for i, r := range rs {
			iters[i] = float64(r.Iterations)
			for unit, v := range r.Metrics {
				values[unit] = append(values[unit], v)
			}
		}
		merged := Result{Name: name, Iterations: int64(median(iters)), Metrics: map[string]float64{}}
		for unit, vs := range values {
			merged.Metrics[unit] = median(vs)
		}
		out = append(out, merged)
	}
	return out
}

// median returns the middle value of vs (the mean of the two middle
// values for an even count). It sorts vs in place.
func median(vs []float64) float64 {
	slices.Sort(vs)
	n := len(vs)
	if n%2 == 1 {
		return vs[n/2]
	}
	return (vs[n/2-1] + vs[n/2]) / 2
}

// trimProcs strips the trailing -<GOMAXPROCS> go test appends to
// benchmark names, so files from machines with different core counts
// diff cleanly.
func trimProcs(name string) string {
	i := strings.LastIndexByte(name, '-')
	if i < 0 {
		return name
	}
	if _, err := strconv.Atoi(name[i+1:]); err != nil {
		return name
	}
	return name[:i]
}
