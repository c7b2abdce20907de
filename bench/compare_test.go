package bench

import (
	"math"
	"path/filepath"
	"testing"
)

// around returns n values spread evenly over [mid-half, mid+half].
func around(n int, mid, half float64) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = mid - half + 2*half*float64(i)/float64(n-1)
	}
	return out
}

func TestJudgeVerdicts(t *testing.T) {
	lower := Rule{Unit: "ms", Better: "lower", Bound: 0.1}
	higher := Rule{Unit: "1/s", Better: "higher", Bound: 0.1}
	unbounded := Rule{Unit: "ns", Better: "lower", Bound: math.NaN()}
	wide := []float64{50, 60, 70, 80, 90, 100, 110, 120, 130, 140}
	for _, tc := range []struct {
		name           string
		rule           Rule
		parent, change []float64
		want           string
	}{
		{"faster", lower, around(10, 100, 1), around(10, 90, 1), Improved},
		{"higher throughput", higher, around(10, 100, 1), around(10, 110, 1), Improved},
		{"noise within bound", lower, around(10, 100, 1), around(10, 101, 1), Unchanged},
		{"slower beyond bound", lower, around(10, 100, 1), around(10, 115, 1), Regressed},
		{"lower throughput beyond bound", higher, around(10, 100, 1), around(10, 85, 1), Regressed},
		{"parent spread wider than bound", lower, wide, around(10, 100, 30), Unresolved},
		{"wide parent, every change run better", lower, wide, around(10, 47, 2), Unchanged},
		{"too few pairs", lower, around(5, 100, 1), around(5, 50, 1), Unresolved},
		{"unbounded, consistently worse", unbounded, around(10, 100, 1), around(10, 130, 1), Regressed},
		{"unbounded, slightly worse", unbounded, around(10, 100, 10), around(10, 102, 10), Unchanged},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c := Judge(tc.rule, tc.parent, tc.change)
			if c.Verdict != tc.want {
				t.Errorf("verdict %s (%s), want %s", c.Verdict, c.Why, tc.want)
			}
		})
	}
}

func TestJudgeCountsWinsAndTies(t *testing.T) {
	parent := around(10, 100, 1)
	change := append([]float64(nil), parent...)
	change[0] -= 5 // one win; the other nine pairs tie
	c := Judge(Rule{Better: "lower", Bound: 0.1}, parent, change)
	if c.WinFrac != 0.1 || c.Verdict != Unchanged {
		t.Errorf("win fraction %v, verdict %s; want 0.1, unchanged", c.WinFrac, c.Verdict)
	}
}

// TestQuartilesMatchPython pins the quartiles to Python's
// statistics.quantiles(xs, n=4), the definition the benchmark's spreads
// are checked with.
func TestQuartilesMatchPython(t *testing.T) {
	for _, tc := range []struct {
		xs     []float64
		q1, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
		{[]float64{1, 2}, 0.75, 2.25},
		{[]float64{3, 1, 2}, 1, 3},
		{[]float64{10, 20, 30, 40, 50}, 15, 45},
	} {
		q1, q3 := quartiles(tc.xs)
		if math.Abs(q1-tc.q1) > 1e-12 || math.Abs(q3-tc.q3) > 1e-12 {
			t.Errorf("quartiles(%v) = %v, %v; want %v, %v", tc.xs, q1, q3, tc.q1, tc.q3)
		}
	}
}

func TestCompareFiles(t *testing.T) {
	dir := t.TempDir()
	parentPath, changePath := filepath.Join(dir, "parent.jsonl"), filepath.Join(dir, "change.jsonl")
	for i := 0; i < MinPairs; i++ {
		for _, side := range []struct {
			path string
			ms   float64
			fail int
		}{{parentPath, 100, 0}, {changePath, 80, 1}} {
			res := Result{Correct: side.fail == 0, Attempted: 4, Failed: side.fail, Metrics: map[string]Metric{
				"job_p50_ms": {side.ms + float64(i)/10, "ms"},
				"unlisted":   {1, "s"},
			}}
			if err := AppendRecord(side.path, Record{Workload: "full-mem", Seed: uint64(i), Result: res}); err != nil {
				t.Fatal(err)
			}
		}
	}
	rules := map[string]Rule{"job_p50_ms": {Unit: "ms", Better: "lower", Bound: 0.1}}
	cs, err := CompareFiles(rules, parentPath, changePath)
	if err != nil {
		t.Fatal(err)
	}
	if len(cs) != 2 {
		t.Fatalf("%d comparisons, want job_p50_ms and failed: %+v", len(cs), cs)
	}
	if c := cs[0]; c.Metric != "job_p50_ms" || c.Verdict != Improved || c.Pairs != MinPairs || c.WinFrac != 1 {
		t.Errorf("job_p50_ms: %+v", c)
	}
	// The faster change failed operations its parent did not.
	if c := cs[1]; c.Metric != "failed" || c.Verdict != Regressed {
		t.Errorf("failed: %+v", c)
	}
}

func TestLoadRulesReadsBenchmark(t *testing.T) {
	rules, err := LoadRules("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if r := rules["setup_s"]; r.Unit != "s" || r.Better != "lower" || !(r.Bound > 0) {
		t.Errorf("setup_s rule %+v", r)
	}
	if r := rules["core.run_ns_per_uop"]; !math.IsNaN(r.Bound) {
		t.Errorf("per-layer metric has bound %v", r.Bound)
	}
}
