// Package experiments regenerates every table and figure of the paper's
// evaluation (Section 5 plus the Figure 1/2 motivation data). Each
// experiment runs the 65-workload suite on one or more core configurations
// and prints rows shaped like the paper's charts; headline metrics are also
// returned in a structured form so tests can assert the reproduction keeps
// the paper's shape (who wins, by roughly what factor).
package experiments

import (
	"context"
	"fmt"
	"runtime"
	"sort"

	"rfpsim/internal/config"
	"rfpsim/internal/runner"
	"rfpsim/internal/stats"
	"rfpsim/internal/trace"
)

// Options controls simulation windows and the workload set.
type Options struct {
	// WarmupUops runs (and discards) this many uops before measuring.
	WarmupUops uint64
	// MeasureUops is the measured window length.
	MeasureUops uint64
	// Workloads restricts the suite (nil = full 65-workload catalog).
	Workloads []trace.Spec
	// Parallel bounds concurrent workload simulations (0 = NumCPU).
	Parallel int
	// Seeds > 1 replicates every workload with perturbed generator seeds
	// and averages the metrics — the statistical-confidence mode. Each
	// replica is a distinct (but equally plausible) dynamic instance of
	// the same workload profile.
	Seeds int
}

// Default returns the standard options used by cmd/experiments: a 30k-uop
// warmup and a 60k-uop measurement window per workload.
func Default() Options {
	return Options{WarmupUops: 30000, MeasureUops: 60000}
}

// Quick returns reduced options for tests and smoke runs: every fourth
// workload plus the memory-bound outliers (so the outer memory wall stays
// represented).
func Quick() Options {
	specs := trace.Catalog()
	subset := make([]trace.Spec, 0, 20)
	have := map[string]bool{}
	for i, s := range specs {
		if i%4 == 0 {
			subset = append(subset, s)
			have[s.Name] = true
		}
	}
	for _, name := range []string{"spec06_mcf", "spec17_mcf", "spec06_omnetpp"} {
		if !have[name] {
			if s, ok := trace.ByName(name); ok {
				subset = append(subset, s)
			}
		}
	}
	return Options{WarmupUops: 10000, MeasureUops: 20000, Workloads: subset}
}

func (o Options) workloads() []trace.Spec {
	if o.Workloads != nil {
		return o.Workloads
	}
	return trace.Catalog()
}

func (o Options) parallel() int {
	if o.Parallel > 0 {
		return o.Parallel
	}
	return runtime.NumCPU()
}

func (o Options) seeds() int {
	if o.Seeds > 1 {
		return o.Seeds
	}
	return 1
}

// Run is one workload's measured statistics under one configuration.
type Run struct {
	// Spec names the workload.
	Spec trace.Spec
	// Stats is the measured-window statistics block; nil when Err is set
	// (an errored or cancelled workload contributes nothing, never a
	// partial seed total).
	Stats *stats.Sim
	// Err reports a wedged pipeline (a model bug; tests fail on it) or a
	// cancelled run.
	Err error
}

// runConfig simulates every workload on cfg, in parallel, in catalog
// order, cancelling promptly when ctx does. With Seeds > 1, each workload
// runs as several seed replicas whose counters are summed — ratios
// computed from the sums are then replica-weighted averages (see
// runner.Run).
func runConfig(ctx context.Context, cfg config.Core, opts Options) []Run {
	specs := opts.workloads()
	runs := make([]Run, len(specs))
	runner.ForEach(len(specs), opts.parallel(), func(i int) {
		st, err := runner.Run(ctx, runner.Job{
			Config:      cfg,
			Spec:        specs[i],
			WarmupUops:  opts.WarmupUops,
			MeasureUops: opts.MeasureUops,
			Seeds:       opts.seeds(),
		})
		runs[i] = Run{Spec: specs[i], Stats: st, Err: err}
	})
	return runs
}

// pair matches baseline and feature runs of the same workload.
type pair struct {
	spec trace.Spec
	base *stats.Sim
	feat *stats.Sim
}

// pairRuns zips two run sets, skipping errored entries.
func pairRuns(base, feat []Run) ([]pair, error) {
	if len(base) != len(feat) {
		return nil, fmt.Errorf("experiments: mismatched run sets (%d vs %d)", len(base), len(feat))
	}
	pairs := make([]pair, 0, len(base))
	for i := range base {
		if base[i].Err != nil {
			return nil, fmt.Errorf("experiments: %s baseline: %w", base[i].Spec.Name, base[i].Err)
		}
		if feat[i].Err != nil {
			return nil, fmt.Errorf("experiments: %s feature: %w", feat[i].Spec.Name, feat[i].Err)
		}
		pairs = append(pairs, pair{spec: base[i].Spec, base: base[i].Stats, feat: feat[i].Stats})
	}
	return pairs, nil
}

// geomeanSpeedup aggregates a pair set.
func geomeanSpeedup(pairs []pair) float64 {
	sp := make([]float64, len(pairs))
	for i, p := range pairs {
		sp[i] = stats.Speedup(p.base, p.feat)
	}
	return stats.GeoMeanSpeedup(sp)
}

// byCategory groups pairs preserving the canonical category order.
func byCategory(pairs []pair) ([]trace.Category, map[trace.Category][]pair) {
	m := map[trace.Category][]pair{}
	for _, p := range pairs {
		m[p.spec.Category] = append(m[p.spec.Category], p)
	}
	var order []trace.Category
	for _, c := range trace.Categories() {
		if len(m[c]) > 0 {
			order = append(order, c)
		}
	}
	return order, m
}

// meanOver averages a per-run metric.
func meanOver(runs []Run, f func(*stats.Sim) float64) float64 {
	vals := make([]float64, 0, len(runs))
	for _, r := range runs {
		if r.Err == nil {
			vals = append(vals, f(r.Stats))
		}
	}
	return stats.Mean(vals)
}

// Result is one experiment's rendered report plus headline metrics.
type Result struct {
	// ID is the experiment identifier (e.g. "fig10").
	ID string
	// Title describes the paper artifact reproduced.
	Title string
	// Text is the rendered report.
	Text string
	// Metrics holds headline numbers keyed by name (fractions, not
	// percentages), for tests and docs/experiments.md.
	Metrics map[string]float64
}

// MetricKeys returns the metric names in stable (sorted) order.
func (r *Result) MetricKeys() []string { return sortedMetricKeys(r.Metrics) }

// Experiment names one regenerable paper artifact.
type Experiment struct {
	// ID is the stable identifier used on the command line.
	ID string
	// Title describes the artifact.
	Title string
	// Run executes the experiment; cancelling the context aborts the
	// underlying simulations promptly.
	Run func(context.Context, Options) (*Result, error)
}

// All returns every experiment in paper order.
func All() []Experiment {
	return []Experiment{
		{"table2", "Table 2: core parameters", runTable2},
		{"table3", "Table 3: workload suite", runTable3},
		{"fig1", "Figure 1: oracle prefetch headroom per hierarchy level", runFig1},
		{"fig2", "Figure 2: demand load distribution across the hierarchy", runFig2},
		{"fig10", "Figure 10: RFP speedup and coverage per category", runFig10},
		{"fig11", "Figure 11: per-workload IPC gain vs coverage", runFig11},
		{"fig12", "Figure 12: RFP on the up-scaled Baseline-2x core", runFig12},
		{"fig13", "Figure 13: RFP timeliness (injected/executed/useful)", runFig13},
		{"fig14", "Figure 14: dedicated RFP L1 ports", runFig14},
		{"effectiveness", "Section 5.2.2: fully vs partially hidden loads", runEffectiveness},
		{"fig15", "Figure 15: RFP vs value prediction (EVES/Composite/EPP) and VP+RFP", runFig15},
		{"fig16", "Figure 16: DLVP coverage under its four constraints", runFig16},
		{"fig17", "Figure 17: confidence counter width sensitivity", runFig17},
		{"fig18", "Figure 18: Prefetch Table size sensitivity", runFig18},
		{"l1lat", "Section 5.5.2: L1 latency sensitivity (5 vs 6 cycles)", runL1Latency},
		{"context", "Section 5.5.3: context prefetcher on top of stride", runContext},
		{"pat", "Section 5.5.4: Page Address Table area optimization", runPAT},
		{"simplifications", "Section 5.5.5: pipeline simplifications", runSimplifications},
		{"table1", "Table 1: RFP storage requirements", runTable1},
		{"power", "Section 5.6 (quantified): energy per uop by scheme", runPower},
		{"bandwidth", "Section 5.6 (quantified): L1 access traffic by scheme", runBandwidth},
		{"critical", "Extension: criticality-targeted RFP (paper future work)", runCritical},
		{"hwprefetch", "Extension: RFP composed with a hardware cache prefetcher", runHWPrefetch},
		{"prefzoo", "Extension: L1 prefetcher zoo under RFP (stream/SPP/SISB/managed)", runPrefZoo},
		{"bpquality", "Extension: branch predictor quality vs RFP gain", runBPQuality},
		{"latealloc", "Section 3.3 variation: late register allocation", runLateAlloc},
		{"cycleacct", "Top-down commit-slot accounting (where RFP's gain comes from)", runCycleAccounting},
		{"clp", "Extension: cache-level-predicted RFP arming schedule", runCLP},
		{"suite", "Suite calibration: per-workload IPC, load levels, RFP coverage and gain", runSuite},
	}
}

// ByID finds an experiment.
func ByID(id string) (Experiment, bool) {
	for _, e := range All() {
		if e.ID == id {
			return e, true
		}
	}
	return Experiment{}, false
}

// sortedMetricKeys returns metric names in stable order.
func sortedMetricKeys(m map[string]float64) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
