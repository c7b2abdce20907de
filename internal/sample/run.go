package sample

import (
	"context"
	"errors"
	"fmt"
	"time"

	"rfpsim/internal/core"
	"rfpsim/internal/isa"
	"rfpsim/internal/obs"
	"rfpsim/internal/runner"
	"rfpsim/internal/stats"
)

// Defaults applied to a zero-valued runner.Sampling spec. With the
// standard 60000-uop measurement window they give 30 intervals and at
// most 5 replayed representatives — a 6x reduction in cycle-simulated
// measurement volume.
const (
	// DefaultIntervalUops is the default interval length.
	DefaultIntervalUops = 2000
	// DefaultMaxK is the default representative budget.
	DefaultMaxK = 5
)

// PlanSeedSalt decorrelates the clustering seed from the workload seed
// (which already drives uop generation). Exported so cmd/rfpsample derives
// the exact plan a sampled run would replay.
const PlanSeedSalt = 0x51A4B0177E5EED

// Normalized returns sp with the documented defaults applied: 2000-uop
// intervals, at most 5 representatives, and one interval of per-point
// warmup. Content addressing (internal/service) runs on the normalized
// form so a spec spelling the defaults out shares a cache entry with one
// that omits them.
func Normalized(sp runner.Sampling) runner.Sampling {
	if sp.IntervalUops == 0 {
		sp.IntervalUops = DefaultIntervalUops
	}
	if sp.MaxK == 0 {
		sp.MaxK = DefaultMaxK
	}
	if sp.WarmupUops == 0 {
		sp.WarmupUops = sp.IntervalUops
	}
	return sp
}

// Validate rejects sampled jobs that cannot be executed. Sampling needs a
// re-instantiable, forkable uop source: the profiling pass reads the
// stream from a fresh generator, and replay fast-forwards a second one
// and forks it at every simulation point (core.Fork). A catalog workload
// is forkable; a NewGen factory must return generators that implement
// isa.Cloner, as a tracefile.Reader over a *bytes.Reader does. Validate
// also wants a single seed, a sane interval length and a non-negative
// representative budget.
func Validate(job runner.Job) error {
	if job.Sampling == nil {
		return nil
	}
	sp := Normalized(*job.Sampling)
	switch {
	case job.Gen != nil:
		return errors.New("sample: sampling needs a re-instantiable, forkable uop source (a catalog workload or a NewGen factory), not a one-shot generator")
	case job.NewGen != nil && isa.Clone(job.NewGen()) == nil:
		return errors.New("sample: sampling needs a forkable uop source, but the NewGen factory's generator cannot be cloned (a trace must be decoded from in-memory bytes)")
	case job.Seeds > 1:
		return fmt.Errorf("sample: sampling supports a single seed, got Seeds=%d", job.Seeds)
	case job.Sampling.MaxK < 0:
		return fmt.Errorf("sample: MaxK must be >= 0, got %d", job.Sampling.MaxK)
	case job.MeasureUops < sp.IntervalUops:
		return fmt.Errorf("sample: measured window (%d uops) is shorter than one interval (%d uops)",
			job.MeasureUops, sp.IntervalUops)
	}
	return nil
}

// Result is a sampled (or full) execution outcome.
type Result struct {
	// Stats is the aggregate statistics block. For sampled runs the
	// counters are cluster-weight scaled, so totals estimate the full
	// window and ratios (IPC, coverage) are weighted averages.
	Stats *stats.Sim
	// Plan is the replay plan a sampled run used; nil for full runs.
	Plan *Plan
}

// Run executes a job, sampled when job.Sampling is set and as a plain
// full-window runner.Run otherwise. It is the execution entry point the
// service daemon, the sweep local backend and cmd/rfpsim share.
func Run(ctx context.Context, job runner.Job) (*stats.Sim, error) {
	res, err := RunResult(ctx, job)
	if err != nil {
		return nil, err
	}
	return res.Stats, nil
}

// RunResult is Run plus the replay plan, for callers that report the
// error bound and sampled volume (the service response, cmd/rfpsample).
func RunResult(ctx context.Context, job runner.Job) (Result, error) {
	if job.Sampling == nil {
		st, err := runner.Run(ctx, job)
		if err != nil {
			return Result{}, err
		}
		return Result{Stats: st}, nil
	}
	if err := Validate(job); err != nil {
		return Result{}, err
	}
	if err := job.Config.Validate(); err != nil {
		return Result{}, fmt.Errorf("sample: invalid config: %w", err)
	}
	sp := Normalized(*job.Sampling)

	// Phase 1+2: functional profile of the measured window, clustered
	// into the replay plan. The profiled window is the same [Warmup,
	// Warmup+Measure) stream slice a full run would measure. The whole
	// pass is billed to the "profile" timing stage — it is cost sampling
	// adds that a full run never pays.
	tim := obs.ContextTimings(ctx)
	begin := time.Now()
	var profile *Profile
	var err error
	if job.NewGen != nil {
		profile, err = ProfileGenerator(ctx, job.NewGen(), job.Spec.Name, job.WarmupUops, job.MeasureUops, sp.IntervalUops)
	} else {
		profile, err = ProfileSpec(ctx, job.Spec, job.WarmupUops, job.MeasureUops, sp.IntervalUops)
	}
	if err != nil {
		return Result{}, err
	}
	plan, err := BuildPlan(profile, sp.MaxK, job.Spec.Seed^PlanSeedSalt)
	if err != nil {
		return Result{}, err
	}
	if tim != nil {
		tim.Observe(obs.StageProfile, time.Since(begin))
	}
	obs.Logger(ctx).Debug("replay plan built",
		"workload", job.Spec.Name, "points", len(plan.Points),
		"intervals", plan.Intervals, "error_bound", plan.ErrorBound)

	// Phase 3: weighted replay of the plan's points in one pass (replay),
	// scaling each by its cluster weight in plan order. All-or-nothing
	// like runner.Run: any failed point discards the whole result.
	total := &stats.Sim{}
	err = replay(ctx, job, sp, plan.Points, func(pt Point, st *stats.Sim) {
		begin := time.Now()
		stats.Scale(st, pt.Weight)
		stats.Accumulate(total, st)
		if tim != nil {
			tim.Observe(obs.StageAggregate, time.Since(begin))
		}
	})
	if err != nil {
		return Result{}, err
	}
	return Result{Stats: total, Plan: plan}, nil
}

// replay cycle-simulates every point, which must be in window order, and
// hands each point's statistics to done in that order. It builds and
// cache-warms one functional core (core.NewFunctional) and fast-forwards
// it through the stream once (core.FastForward trains predictors and
// caches over the skipped prefix, so each interval sees near-full-run
// predictor state). At each point it forks that core (core.Fork) and runs
// the point's cycle-accurate warmup of sp.WarmupUops and its one measured
// interval on the fork. So at most two cores are live, and one of them
// holds only the warmed state. Building, warming, fast-forwarding and
// forking are billed to the fastforward stage.
//
// A fork equals a core fast-forwarded from uop 0 to the same point,
// because FastForward(a) then FastForward(b) leaves the state
// FastForward(a+b) does and Fork copies all of it; see "Sampled replay
// forks" in docs/architecture.md.
func replay(ctx context.Context, job runner.Job, sp runner.Sampling, points []Point, done func(Point, *stats.Sim)) error {
	tim := obs.ContextTimings(ctx)
	begin := time.Now()
	var gen isa.Generator
	if job.NewGen != nil {
		gen = job.NewGen()
	} else {
		gen = job.Spec.New()
	}
	base := core.NewFunctional(job.Config, gen)
	if !job.ColdCaches {
		base.WarmCaches()
	}
	for _, pt := range points {
		start := job.WarmupUops + uint64(pt.Index)*sp.IntervalUops
		warm := min(sp.WarmupUops, start) // the stream has no history before uop 0
		fail := func(err error) error {
			return fmt.Errorf("sample: %s interval %d: %w", job.Spec.Name, pt.Index, err)
		}
		if err := base.FastForward(ctx, start-warm-base.RetiredStreamPos()); err != nil {
			return fail(err)
		}
		c, err := base.Fork()
		if err != nil {
			return fail(err)
		}
		if tim != nil {
			tim.Observe(obs.StageFastForward, time.Since(begin))
		}
		st, err := runner.Measure(ctx, c, runner.Job{
			WarmupUops:  warm,
			MeasureUops: sp.IntervalUops,
			AfterWarmup: job.AfterWarmup,
		})
		if err != nil {
			return fail(err)
		}
		done(pt, st)
		begin = time.Now()
	}
	return nil
}
