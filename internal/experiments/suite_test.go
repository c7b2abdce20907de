package experiments

import (
	"context"
	"math"
	"strconv"
	"strings"
	"testing"

	"rfpsim/internal/config"
	"rfpsim/internal/stats"
)

// TestSuitePopulationFacts checks the synthetic suite against the paper's
// population-level facts the substitution (DESIGN.md §4) promises to
// preserve. It runs a quarter of the catalog with reduced windows, so the
// tolerances are generous; cmd/experiments -run all is the full check.
func TestSuitePopulationFacts(t *testing.T) {
	if testing.Short() {
		t.Skip("long")
	}
	opts := Quick()
	su := newSuite(context.Background(), opts)
	runs := su.run(config.Baseline())
	if su.err != nil {
		t.Fatal(su.err)
	}

	// Fact 1 (Figure 2): the large majority of loads hit the L1.
	l1 := meanOver(runs, func(s *stats.Sim) float64 { return s.LoadLevelFrac(stats.LevelL1) })
	if l1 < 0.75 || l1 > 0.99 {
		t.Errorf("suite L1 hit fraction = %.3f, want ~0.86-0.93 (paper 92.8%%)", l1)
	}

	// Fact 2 (§3): most loads are NOT address-ready at allocation.
	notReady := meanOver(runs, func(s *stats.Sim) float64 {
		if s.Loads == 0 {
			return 0
		}
		return 1 - float64(s.LoadsAddrReadyAtAlloc)/float64(s.Loads)
	})
	if notReady < 0.5 {
		t.Errorf("not-ready-at-alloc = %.2f, want > 0.5 (paper 63%%)", notReady)
	}

	// Fact 3: loads are a realistic fraction of the uop stream.
	loadFrac := meanOver(runs, func(s *stats.Sim) float64 {
		if s.Instructions == 0 {
			return 0
		}
		return float64(s.Loads) / float64(s.Instructions)
	})
	if loadFrac < 0.15 || loadFrac > 0.40 {
		t.Errorf("load fraction = %.2f, want 0.15-0.40", loadFrac)
	}

	// Fact 4: IPCs span a realistic range — memory-bound outliers below
	// 0.5, cache-friendly codes above 2.5.
	lo, hi := 100.0, 0.0
	for _, r := range runs {
		ipc := r.Stats.IPC()
		if ipc < lo {
			lo = ipc
		}
		if ipc > hi {
			hi = ipc
		}
	}
	if lo > 0.5 {
		t.Errorf("no memory-bound outlier: min IPC %.2f", lo)
	}
	if hi < 2.5 {
		t.Errorf("no ILP-rich workload: max IPC %.2f", hi)
	}

	// Fact 5: branch mispredict rates are sane (not a broken predictor,
	// not an oracle).
	mpku := meanOver(runs, func(s *stats.Sim) float64 {
		if s.Instructions == 0 {
			return 0
		}
		return 1000 * float64(s.BranchMispredicts) / float64(s.Instructions)
	})
	if mpku < 0.3 || mpku > 25 {
		t.Errorf("suite mispredicts/kuop = %.2f, implausible", mpku)
	}
}

// TestSuiteMatchesFigures: the suite experiment prints one row per
// workload sorted by L1 share, and its means are the numbers fig2 and
// fig10 report for the same runs.
func TestSuiteMatchesFigures(t *testing.T) {
	opts := tiny()
	ctx := context.Background()
	results := map[string]*Result{}
	for _, id := range []string{"suite", "fig2", "fig10"} {
		e, ok := ByID(id)
		if !ok {
			t.Fatalf("%s not registered", id)
		}
		res, err := e.Run(ctx, opts)
		if err != nil {
			t.Fatal(err)
		}
		results[id] = res
	}
	suite := results["suite"].Metrics
	for _, c := range []struct {
		name      string
		got, want float64
	}{
		{"mean_l1 vs fig2 frac_L1", suite["mean_l1"], results["fig2"].Metrics["frac_L1"]},
		{"mean_coverage vs fig10 coverage", suite["mean_coverage"], results["fig10"].Metrics["coverage"]},
		{"geomean_gain vs fig10 speedup", suite["geomean_gain"], results["fig10"].Metrics["speedup"]},
	} {
		if math.Abs(c.got-c.want) > 1e-12 {
			t.Errorf("%s: %v != %v", c.name, c.got, c.want)
		}
	}
	if ipc := suite["mean_ipc"]; ipc <= 0 || ipc > 6 {
		t.Errorf("mean_ipc = %v", ipc)
	}

	// Rows follow the two header lines, one per workload, ascending L1.
	lines := strings.Split(results["suite"].Text, "\n")
	prev := -1.0
	for _, line := range lines[2 : 2+len(opts.Workloads)] {
		f := strings.Fields(line)
		if len(f) != 7 {
			t.Fatalf("row %q has %d cells, want 7", line, len(f))
		}
		l1, err := strconv.ParseFloat(strings.TrimSuffix(f[2], "%"), 64)
		if err != nil {
			t.Fatal(err)
		}
		if l1 < prev {
			t.Errorf("rows not sorted by L1 share: %s after %.1f%%", line, prev)
		}
		prev = l1
	}
}
