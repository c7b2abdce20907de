// Package runner executes complete simulation jobs: construct a core for a
// workload, warm caches and predictors, run the measurement window, and
// optionally replicate the whole sequence across perturbed seeds. It is
// the single code path behind the batch CLIs (cmd/rfpsim,
// cmd/suitestats), the experiment harness and the rfpsimd service, so
// cancellation and determinism behave identically everywhere.
// Observability rides on the context (internal/obs): when the caller
// attached a timings collector the runner bills each stage's wall time
// to it (fastforward / warmup / measure / aggregate), and per-replica
// debug logs carry the caller's run ID.
package runner

import (
	"context"
	"errors"
	"fmt"
	"time"

	"rfpsim/internal/config"
	"rfpsim/internal/core"
	"rfpsim/internal/isa"
	"rfpsim/internal/obs"
	"rfpsim/internal/stats"
	"rfpsim/internal/trace"
)

// SeedStride perturbs the workload seed between replicas (a large odd
// constant — the golden-ratio increment — so replica seeds are well
// spread). It is part of the deterministic job definition: the same Job
// always simulates the same replica set.
const SeedStride = 0x9E3779B97F4A7C15

// Job describes one deterministic simulation unit.
type Job struct {
	// Config is the core configuration to simulate.
	Config config.Core
	// Spec names the workload. With Gen unset, each replica runs
	// Spec.New() with a per-replica perturbed seed.
	Spec trace.Spec
	// Gen, when set, overrides Spec.New() as the uop source (the
	// trace-file path). Generator state is consumed by a run, so Gen
	// requires Seeds <= 1.
	Gen isa.Generator
	// NewGen, when set, is a re-instantiable generator factory overriding
	// Spec.New(): every call must return a fresh generator producing an
	// identical uop stream (uploaded traces re-decoded from bytes). Unlike
	// the one-shot Gen it survives multiple runs, so sampled execution
	// (internal/sample) can profile the stream and then replay intervals.
	// Seed perturbation is meaningless for a fixed stream, so NewGen still
	// requires Seeds <= 1, and at most one of Gen/NewGen may be set.
	NewGen func() isa.Generator
	// FastForwardUops functionally consumes this many uops before the
	// cycle-accurate warmup, training long-lived predictors and warming
	// caches without simulating timing (core.FastForward). Sampled replay
	// (internal/sample) uses it to reach an interval deep in the stream
	// with full-run-equivalent predictor state at a fraction of the cost.
	FastForwardUops uint64
	// WarmupUops runs (and discards) this many uops before measuring.
	WarmupUops uint64
	// MeasureUops is the measured window length. Run rejects 0: a job
	// that measures nothing is a caller bug, not an empty result.
	MeasureUops uint64
	// Seeds is the replica count and must be explicit (>= 1). Seeds > 1
	// replicates the job with perturbed generator seeds and sums the
	// counters (ratios over the sums are replica-weighted averages). Run
	// rejects 0 so a forgotten field fails loudly instead of silently
	// meaning "one replica".
	Seeds int
	// ColdCaches skips footprint-based cache warming.
	ColdCaches bool
	// Sampling, when set, asks for SimPoint-style sampled simulation:
	// only representative intervals of the measured window are
	// cycle-simulated and the statistics are cluster-weight scaled.
	// Run itself rejects a sampled job — execute it with
	// internal/sample.Run, which profiles, clusters and replays through
	// this runner. The spec lives here (not in internal/sample) so Job
	// stays the single wire-independent job description.
	Sampling *Sampling
	// AfterWarmup, when set, observes each replica's core between warmup
	// and the measured run (pipe traces, per-PC profiles). Under
	// sampling it fires once per replayed interval.
	AfterWarmup func(*core.Core)
}

// Sampling configures sampled simulation of a job's measured window. The
// zero value of each field selects the documented default; internal/sample
// owns the defaulting and the execution.
type Sampling struct {
	// IntervalUops is the profiling/replay interval length (default 2000).
	// The measured window is split into MeasureUops/IntervalUops
	// intervals; a trailing remainder shorter than one interval is not
	// sampled.
	IntervalUops uint64
	// MaxK bounds the number of representative intervals (default 5).
	// Fewer are simulated when the clusterer needs fewer, or when the
	// window has fewer intervals than MaxK.
	MaxK int
	// WarmupUops is the per-representative cycle-accurate warmup run
	// before each measured interval, on top of footprint cache warming
	// (default: one interval).
	WarmupUops uint64
}

func (j Job) seeds() int {
	if j.Seeds > 1 {
		return j.Seeds
	}
	return 1
}

// TotalUops is the job's simulated volume across all replicas,
// (warmup+measure)*seeds. The service checks it against its per-job
// ceiling and the sweep orchestrator weighs progress/ETA by it.
func (j Job) TotalUops() uint64 {
	return (j.WarmupUops + j.MeasureUops) * uint64(j.seeds())
}

// Run executes the job, honouring ctx cancellation between and within
// replicas. On any error — including cancellation — the partially
// accumulated total is discarded and a nil Sim is returned: a Job's result
// is all replicas or nothing, so averaged metrics can never silently mix
// replica counts.
//
// Observability rides on the context: when obs.WithTimings attached a
// collector, each stage's wall time (fastforward / warmup / measure /
// aggregate) is added to it, and per-replica completions are logged at
// debug level through obs.Logger, carrying whatever run ID the caller
// minted at its API boundary.
func Run(ctx context.Context, job Job) (*stats.Sim, error) {
	if err := job.Config.Validate(); err != nil {
		return nil, fmt.Errorf("runner: invalid config: %w", err)
	}
	if job.MeasureUops == 0 {
		return nil, errors.New("runner: MeasureUops is 0 — the job would simulate nothing; set the measured window explicitly")
	}
	if job.Seeds < 1 {
		return nil, fmt.Errorf("runner: Seeds is %d — the replica count must be explicit; set Seeds: 1 for a single replica", job.Seeds)
	}
	if job.Sampling != nil {
		return nil, errors.New("runner: job requests sampled simulation; execute it with internal/sample.Run (runner.Run is the full-window path)")
	}
	if (job.Gen != nil || job.NewGen != nil) && job.seeds() > 1 {
		return nil, errors.New("runner: a generator override supports a single seed only")
	}
	if job.Gen != nil && job.NewGen != nil {
		return nil, errors.New("runner: Gen and NewGen are mutually exclusive generator overrides")
	}
	tim := obs.ContextTimings(ctx)
	observe := func(stage string, since time.Time) {
		if tim != nil {
			tim.Observe(stage, time.Since(since))
		}
	}
	total := &stats.Sim{}
	for s := 0; s < job.seeds(); s++ {
		replica := job.Spec
		replica.Seed = job.Spec.Seed + uint64(s)*SeedStride
		gen := job.Gen
		if gen == nil && job.NewGen != nil {
			gen = job.NewGen()
		}
		if gen == nil {
			gen = replica.New()
		}
		begin := time.Now()
		c := core.New(job.Config, gen)
		if !job.ColdCaches {
			c.WarmCaches()
		}
		if err := c.FastForward(ctx, job.FastForwardUops); err != nil {
			return nil, fmt.Errorf("runner: %s seed %d fast-forward: %w", job.Spec.Name, s, err)
		}
		observe(obs.StageFastForward, begin)
		begin = time.Now()
		if err := c.Warmup(ctx, job.WarmupUops); err != nil {
			return nil, fmt.Errorf("runner: %s seed %d warmup: %w", job.Spec.Name, s, err)
		}
		observe(obs.StageWarmup, begin)
		if job.AfterWarmup != nil {
			job.AfterWarmup(c)
		}
		begin = time.Now()
		st, err := c.Run(ctx, job.MeasureUops)
		if err != nil {
			return nil, fmt.Errorf("runner: %s seed %d: %w", job.Spec.Name, s, err)
		}
		observe(obs.StageMeasure, begin)
		begin = time.Now()
		stats.Accumulate(total, st)
		observe(obs.StageAggregate, begin)
		obs.Logger(ctx).Debug("replica complete",
			"workload", job.Spec.Name, "config", job.Config.Name,
			"seed_index", s, "cycles", st.Cycles, "uops", st.Instructions)
	}
	return total, nil
}
