// Package runner executes complete simulation jobs: construct a core for a
// workload, warm caches and predictors, run the measurement window, and
// optionally replicate the whole sequence across perturbed seeds. It is
// the single code path behind the batch CLI (cmd/rfpsim), the experiment
// harness and the rfpsimd service, so cancellation and determinism behave
// identically everywhere. ForEach is the one bounded fan-out that the
// experiment harness and both sweep loops share.
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

// Measure runs a prepared core (built, cache-warmed and fast-forwarded)
// through job's cycle-accurate warmup, its AfterWarmup hook and its
// measured window, and returns the core's statistics for that window. It
// bills the warmup and measure stages to the context's timings collector.
// Run uses it for every replica, and sampled replay (internal/sample) for
// every simulation point. An error names the stage that failed.
func Measure(ctx context.Context, c *core.Core, job Job) (*stats.Sim, error) {
	tim := obs.ContextTimings(ctx)
	begin := time.Now()
	if err := c.Warmup(ctx, job.WarmupUops); err != nil {
		return nil, fmt.Errorf("warmup: %w", err)
	}
	if tim != nil {
		tim.Observe(obs.StageWarmup, time.Since(begin))
	}
	if job.AfterWarmup != nil {
		job.AfterWarmup(c)
	}
	begin = time.Now()
	st, err := c.Run(ctx, job.MeasureUops)
	if err != nil {
		return nil, fmt.Errorf("measure: %w", err)
	}
	if tim != nil {
		tim.Observe(obs.StageMeasure, time.Since(begin))
	}
	return st, nil
}

// Job describes one deterministic simulation unit.
type Job struct {
	// Config is the core configuration to simulate.
	Config config.Core
	// Spec names the workload. With NewGen unset, each replica runs
	// Spec.New() with a per-replica perturbed seed.
	Spec trace.Spec
	// NewGen, when set, is a re-instantiable generator factory overriding
	// Spec.New(): every call must return a fresh generator producing an
	// identical uop stream (a trace re-decoded from its bytes; see
	// tracefile.Factory). It survives multiple runs, so sampled execution
	// (internal/sample) can profile the stream and then replay intervals.
	// A sampled job also needs the generators to be forkable (isa.Cloner,
	// as every tracefile.Factory generator is): replay fast-forwards one
	// generator and clones it at every interval. Seed perturbation is
	// meaningless for a fixed stream, so NewGen requires Seeds <= 1.
	NewGen func() isa.Generator
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
	// internal/sample.RunResult, which profiles, clusters and replays through
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
// owns the defaulting and the execution. The JSON tags are its wire form
// (service.SamplingSpec is this type), used by /v1/sim requests and
// responses, sweep specs and sweep checkpoint lines.
type Sampling struct {
	// IntervalUops is the profiling/replay interval length (default 2000).
	// The measured window is split into MeasureUops/IntervalUops
	// intervals; a trailing remainder shorter than one interval is not
	// sampled.
	IntervalUops uint64 `json:"interval_uops,omitempty"`
	// MaxK bounds the number of representative intervals (default 5).
	// Fewer are simulated when the clusterer needs fewer, or when the
	// window has fewer intervals than MaxK.
	MaxK int `json:"max_k,omitempty"`
	// WarmupUops is the per-representative cycle-accurate warmup run
	// before each measured interval, on top of footprint cache warming
	// (default: one interval).
	WarmupUops uint64 `json:"warmup_uops,omitempty"`
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
		return nil, errors.New("runner: job requests sampled simulation; execute it with internal/sample.RunResult (runner.Run is the full-window path)")
	}
	if job.NewGen != nil && job.seeds() > 1 {
		return nil, errors.New("runner: a generator override supports a single seed only")
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
		var gen isa.Generator
		if job.NewGen != nil {
			gen = job.NewGen()
		} else {
			gen = replica.New()
		}
		begin := time.Now()
		c := core.New(job.Config, gen)
		if !job.ColdCaches {
			c.WarmCaches()
		}
		observe(obs.StageFastForward, begin)
		st, err := Measure(ctx, c, job)
		if err != nil {
			return nil, fmt.Errorf("runner: %s seed %d %w", job.Spec.Name, s, err)
		}
		begin = time.Now()
		stats.Accumulate(total, st)
		observe(obs.StageAggregate, begin)
		obs.Logger(ctx).Debug("replica complete",
			"workload", job.Spec.Name, "config", job.Config.Name,
			"seed_index", s, "cycles", st.Cycles, "uops", st.Instructions)
	}
	return total, nil
}
