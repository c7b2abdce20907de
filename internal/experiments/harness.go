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
	"sync"
	"sync/atomic"

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
	// Stats is the measured-window statistics block; all zero once the
	// suite has failed, so a failed workload's partial totals never reach
	// a result.
	Stats *stats.Sim
}

// suite is the harness one experiment call runs on: the context and
// options it was called with, the memo the context carries, and the
// call's first simulation error. The error is sticky: the Experiment.Run
// wrapper returns it in place of the experiment's result, so experiment
// bodies ask for runs and never check an error themselves.
type suite struct {
	ctx  context.Context
	opts Options
	memo *memo
	err  error
}

// newSuite starts one experiment call's suite, on the memo ctx carries
// (if any).
func newSuite(ctx context.Context, opts Options) *suite {
	m, _ := ctx.Value(memoKey{}).(*memo)
	return &suite{ctx: ctx, opts: opts, memo: m}
}

// run simulates every workload on cfg, in parallel, and returns the runs
// in catalog order, cancelling promptly when the context does. With
// Seeds > 1, each workload runs as several seed replicas whose counters
// are summed — ratios computed from the sums are then replica-weighted
// averages (see runner.Run). Under a WithMemo context a job simulated
// before is not simulated again.
//
// A failed simulation (a cancelled context, a wedged pipeline, a job the
// runner rejects) fails the suite: its error names the first failed
// workload in catalog order and cfg. From then on run simulates nothing
// and returns zero statistics for every workload, which a body turns into
// a throwaway result without checks and without panicking.
func (s *suite) run(cfg config.Core) []Run {
	specs := s.opts.workloads()
	runs := make([]Run, len(specs))
	for i, spec := range specs {
		runs[i] = Run{Spec: spec, Stats: &stats.Sim{}}
	}
	if s.err != nil {
		return runs
	}
	sims := make([]*stats.Sim, len(specs))
	errs := make([]error, len(specs))
	var failed atomic.Bool
	runner.ForEach(len(specs), s.opts.parallel(), func(i int) {
		// Indices dispatch in increasing order, so a workload skipped here
		// comes after one that already failed.
		if failed.Load() {
			return
		}
		sims[i], errs[i] = s.memo.run(s.ctx, runner.Job{
			Config:      cfg,
			Spec:        specs[i],
			WarmupUops:  s.opts.WarmupUops,
			MeasureUops: s.opts.MeasureUops,
			Seeds:       s.opts.seeds(),
		})
		if errs[i] != nil {
			failed.Store(true)
		}
	})
	for _, err := range errs {
		if err != nil {
			s.err = fmt.Errorf("experiments: %w", err)
			return runs
		}
	}
	for i := range runs {
		runs[i].Stats = sims[i]
	}
	return runs
}

// memo holds finished jobs' statistics by runner.Job.Key.
type memo struct {
	mu   sync.Mutex
	sims map[string]stats.Sim
	runs int // jobs simulated under this memo
}

type memoKey struct{}

// WithMemo returns a context under which the experiments simulate each
// distinct job once: a configuration that several experiments (or one
// experiment twice) run on the same workloads and windows is served from
// the first run's statistics. The memo lives as long as the returned
// context — cmd/experiments makes one per invocation — and only completed
// runs are stored, never an errored or cancelled one. Without it every
// experiment simulates everything it asks for.
func WithMemo(ctx context.Context) context.Context {
	return context.WithValue(ctx, memoKey{}, &memo{sims: map[string]stats.Sim{}})
}

// run executes job through the memo, which may be nil. Every call returns
// its own copy of the statistics.
func (m *memo) run(ctx context.Context, job runner.Job) (*stats.Sim, error) {
	if m == nil {
		return runner.Run(ctx, job)
	}
	key := job.Key()
	m.mu.Lock()
	st, ok := m.sims[key]
	m.mu.Unlock()
	if ok {
		return &st, nil
	}
	res, err := runner.Run(ctx, job)
	m.mu.Lock()
	m.runs++
	if err == nil {
		m.sims[key] = *res
	}
	m.mu.Unlock()
	return res, err
}

// pair matches baseline and feature runs of the same workload.
type pair struct {
	spec trace.Spec
	base *stats.Sim
	feat *stats.Sim
}

// pairRuns zips two run sets of one suite, workload by workload.
func pairRuns(base, feat []Run) []pair {
	pairs := make([]pair, len(base))
	for i := range base {
		pairs[i] = pair{spec: base[i].Spec, base: base[i].Stats, feat: feat[i].Stats}
	}
	return pairs
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
	vals := make([]float64, len(runs))
	for i, r := range runs {
		vals[i] = f(r.Stats)
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
	// underlying simulations promptly. Any failed or cancelled simulation
	// fails the whole experiment: Run returns a nil Result and an error
	// naming the workload and configuration.
	Run func(context.Context, Options) (*Result, error)
}

// All returns every experiment in paper order.
func All() []Experiment {
	return []Experiment{
		experiment("table2", "Table 2: core parameters", runTable2),
		experiment("table3", "Table 3: workload suite", runTable3),
		experiment("fig1", "Figure 1: oracle prefetch headroom per hierarchy level", runFig1),
		experiment("fig2", "Figure 2: demand load distribution across the hierarchy", runFig2),
		experiment("fig10", "Figure 10: RFP speedup and coverage per category", runFig10),
		experiment("fig11", "Figure 11: per-workload IPC gain vs coverage", runFig11),
		experiment("fig12", "Figure 12: RFP on the up-scaled Baseline-2x core", runFig12),
		experiment("fig13", "Figure 13: RFP timeliness (injected/executed/useful)", runFig13),
		experiment("fig14", "Figure 14: dedicated RFP L1 ports", runFig14),
		experiment("effectiveness", "Section 5.2.2: fully vs partially hidden loads", runEffectiveness),
		experiment("fig15", "Figure 15: RFP vs value prediction (EVES/Composite/EPP) and VP+RFP", runFig15),
		experiment("fig16", "Figure 16: DLVP coverage under its four constraints", runFig16),
		experiment("fig17", "Figure 17: confidence counter width sensitivity", runFig17),
		experiment("fig18", "Figure 18: Prefetch Table size sensitivity", runFig18),
		experiment("l1lat", "Section 5.5.2: L1 latency sensitivity (5 vs 6 cycles)", runL1Latency),
		experiment("context", "Section 5.5.3: context prefetcher on top of stride", runContext),
		experiment("pat", "Section 5.5.4: Page Address Table area optimization", runPAT),
		experiment("simplifications", "Section 5.5.5: pipeline simplifications", runSimplifications),
		experiment("table1", "Table 1: RFP storage requirements", runTable1),
		experiment("power", "Section 5.6 (quantified): energy per uop by scheme", runPower),
		experiment("bandwidth", "Section 5.6 (quantified): L1 access traffic by scheme", runBandwidth),
		experiment("critical", "Extension: criticality-targeted RFP (paper future work)", runCritical),
		experiment("hwprefetch", "Extension: RFP composed with a hardware cache prefetcher", runHWPrefetch),
		experiment("prefzoo", "Extension: L1 prefetcher zoo under RFP (stream/SPP/SISB/managed)", runPrefZoo),
		experiment("bpquality", "Extension: branch predictor quality vs RFP gain", runBPQuality),
		experiment("latealloc", "Section 3.3 variation: late register allocation", runLateAlloc),
		experiment("cycleacct", "Top-down commit-slot accounting (where RFP's gain comes from)", runCycleAccounting),
		experiment("clp", "Extension: cache-level-predicted RFP arming schedule", runCLP),
		experiment("suite", "Suite calibration: per-workload IPC, load levels, RFP coverage and gain", runSuite),
	}
}

// experiment wraps a body in the exported Run signature: each call gets
// its own suite, and a suite that failed returns its error, never the
// body's result.
func experiment(id, title string, body func(*suite) *Result) Experiment {
	return Experiment{ID: id, Title: title, Run: func(ctx context.Context, opts Options) (*Result, error) {
		s := newSuite(ctx, opts)
		res := body(s)
		if s.err != nil {
			return nil, s.err
		}
		return res, nil
	}}
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
