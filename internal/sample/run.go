package sample

import (
	"context"
	"errors"
	"fmt"
	"time"

	"rfpsim/internal/config"
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
// (which already drives uop generation). Exported so callers outside this
// package (the benchmark's plan layer) derive the exact plan a sampled run
// would replay.
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

// RunResult executes one job, sampled when job.Sampling is set and as a
// plain full-window runner.Run otherwise, and returns its statistics with
// the replay plan. It is the single-job entry point the service daemon,
// the sweep local backend, the differential harness and cmd/rfpsim
// share. It is RunFamily over the one job.
func RunResult(ctx context.Context, job runner.Job) (Result, error) {
	res, errs := RunFamily(ctx, []runner.Job{job})
	return res[0], errs[0]
}

// RunFamily executes a family of sampled jobs in one pass and returns a
// result or an error for each job, in job order. A family is a set of
// jobs with the same uop stream, windows, cache warming, normalized
// sampling spec and config.FunctionalKey: jobs whose configurations
// differ only in what functional warming cannot observe, such as the L1
// hardware prefetcher or the cache-level predictor. The family shares
// one profile, one replay plan and one fast-forward pass, and each point
// is forked and cycle-simulated once per job (replayFamily). Every job's
// result equals RunResult of that job alone, byte for byte.
//
// The stream is read from the first job's source; RunFamily checks the
// rest against it (workload spec, windows, sampling, functional key) and
// fails the whole family if one does not belong. A failure in a shared
// stage (validation, profile, plan, fast-forward, cancellation) fails
// every job; a failure of one job's own point fails that job alone. A
// single job, sampled or full-window, is always a family; a full-window
// job runs through runner.Run. Stage times are billed to ctx's timings
// collector: all of them, for the whole family.
func RunFamily(ctx context.Context, jobs []runner.Job) ([]Result, []error) {
	results := make([]Result, len(jobs))
	errs := make([]error, len(jobs))
	failAll := func(err error) ([]Result, []error) {
		for i := range errs {
			errs[i] = err
		}
		return results, errs
	}
	if len(jobs) == 0 {
		return results, errs
	}
	if len(jobs) == 1 && jobs[0].Sampling == nil {
		results[0].Stats, errs[0] = runner.Run(ctx, jobs[0])
		return results, errs
	}
	if err := checkFamily(jobs); err != nil {
		return failAll(err)
	}
	lead := jobs[0]
	sp := Normalized(*lead.Sampling)

	// Phase 1+2: functional profile of the measured window, clustered
	// into the replay plan. The profiled window is the same [Warmup,
	// Warmup+Measure) stream slice a full run would measure. The whole
	// pass is billed to the "profile" timing stage — it is cost sampling
	// adds that a full run never pays.
	tim := obs.ContextTimings(ctx)
	begin := time.Now()
	var profile *Profile
	var err error
	if lead.NewGen != nil {
		profile, err = ProfileGenerator(ctx, lead.NewGen(), lead.Spec.Name, lead.WarmupUops, lead.MeasureUops, sp.IntervalUops)
	} else {
		profile, err = ProfileSpec(ctx, lead.Spec, lead.WarmupUops, lead.MeasureUops, sp.IntervalUops)
	}
	if err != nil {
		return failAll(err)
	}
	plan, err := BuildPlan(profile, sp.MaxK, lead.Spec.Seed^PlanSeedSalt)
	if err != nil {
		return failAll(err)
	}
	if tim != nil {
		tim.Observe(obs.StageProfile, time.Since(begin))
	}
	obs.Logger(ctx).Debug("replay plan built",
		"workload", lead.Spec.Name, "points", len(plan.Points),
		"intervals", plan.Intervals, "error_bound", plan.ErrorBound, "family", len(jobs))

	// Phase 3: weighted replay of the plan's points in one pass
	// (replayFamily), scaling each by its cluster weight in plan order.
	// All-or-nothing per job like runner.Run: any failed point discards
	// that job's whole result.
	totals := make([]*stats.Sim, len(jobs))
	for i := range totals {
		totals[i] = &stats.Sim{}
	}
	own, err := replayFamily(ctx, jobs, sp, plan.Points, func(i int, pt Point, st *stats.Sim) {
		begin := time.Now()
		stats.Scale(st, pt.Weight)
		stats.Accumulate(totals[i], st)
		if tim != nil {
			tim.Observe(obs.StageAggregate, time.Since(begin))
		}
	})
	if err != nil {
		return failAll(err)
	}
	for i := range jobs {
		if errs[i] = own[i]; errs[i] == nil {
			results[i] = Result{Stats: totals[i], Plan: plan}
		}
	}
	return results, errs
}

// checkFamily validates every job and checks that each belongs to the
// first one's family.
func checkFamily(jobs []runner.Job) error {
	lead := jobs[0]
	for i, job := range jobs {
		if job.Sampling == nil {
			return fmt.Errorf("sample: job %d is a full-window job, which runs alone, not in a family", i)
		}
		if err := Validate(job); err != nil {
			return err
		}
		if err := job.Config.Validate(); err != nil {
			return fmt.Errorf("sample: invalid config: %w", err)
		}
		if job.Spec != lead.Spec || (job.NewGen == nil) != (lead.NewGen == nil) ||
			job.WarmupUops != lead.WarmupUops || job.MeasureUops != lead.MeasureUops ||
			job.ColdCaches != lead.ColdCaches ||
			Normalized(*job.Sampling) != Normalized(*lead.Sampling) ||
			config.FunctionalKey(job.Config) != config.FunctionalKey(lead.Config) {
			return fmt.Errorf("sample: job %d (%s, config %q) is not in the family of job 0 (%s, config %q)",
				i, job.Spec.Name, job.Config.Name, lead.Spec.Name, lead.Config.Name)
		}
	}
	return nil
}

// replayFamily cycle-simulates every point, which must be in window
// order, for every job of a family, and hands each job's statistics for
// each point to done, in point order for each job. It builds and
// cache-warms one functional core (core.NewFunctional) from the first
// job and fast-forwards it through the stream once (core.FastForward
// trains predictors and caches over the skipped prefix, so each interval
// sees near-full-run predictor state). At each point it forks that core
// once per job into the job's own configuration (core.Fork) and runs the
// point's cycle-accurate warmup of sp.WarmupUops and its one measured
// interval on the fork, job after job. Each fork takes over the cache
// arrays of the one before it, so at most two cores are live, and one
// of them holds only the warmed state. Building, warming,
// fast-forwarding and forking are billed to the fastforward stage.
//
// A fork equals a core fast-forwarded from uop 0 to the same point under
// the job's own configuration: FastForward(a) then FastForward(b) leaves
// the state FastForward(a+b) does, Fork copies all of it, and the jobs'
// configurations differ only outside config.FunctionalKey, which warming
// cannot observe; see "Sampled replay forks" in docs/architecture.md.
//
// A job whose own fork or point fails gets that error in the returned
// slice and is not simulated further; the others go on. A failure every
// job shares (fast-forward, or a cancelled ctx) is returned as the
// second result instead.
func replayFamily(ctx context.Context, jobs []runner.Job, sp runner.Sampling, points []Point, done func(int, Point, *stats.Sim)) ([]error, error) {
	tim := obs.ContextTimings(ctx)
	begin := time.Now()
	lead := jobs[0]
	var gen isa.Generator
	if lead.NewGen != nil {
		gen = lead.NewGen()
	} else {
		gen = lead.Spec.New()
	}
	base := core.NewFunctional(lead.Config, gen)
	if !lead.ColdCaches {
		base.WarmCaches()
	}
	errs := make([]error, len(jobs))
	live := len(jobs)
	var prev *core.Core // the last fork, whose arrays the next one takes over
	for _, pt := range points {
		start := lead.WarmupUops + uint64(pt.Index)*sp.IntervalUops
		warm := min(sp.WarmupUops, start) // the stream has no history before uop 0
		fail := func(err error) error {
			return fmt.Errorf("sample: %s interval %d: %w", lead.Spec.Name, pt.Index, err)
		}
		if err := base.FastForward(ctx, start-warm-base.RetiredStreamPos()); err != nil {
			return errs, fail(err)
		}
		for i, job := range jobs {
			if errs[i] != nil {
				continue
			}
			c, err := base.Fork(job.Config, prev)
			if err != nil {
				errs[i], live = fail(err), live-1
				continue
			}
			prev = c
			if tim != nil {
				tim.Observe(obs.StageFastForward, time.Since(begin))
			}
			st, err := runner.Measure(ctx, c, runner.Job{
				WarmupUops:  warm,
				MeasureUops: sp.IntervalUops,
				AfterWarmup: job.AfterWarmup,
			})
			if err != nil {
				if ctx.Err() != nil {
					return errs, fail(err)
				}
				errs[i], live = fail(err), live-1
			} else {
				done(i, pt, st)
			}
			begin = time.Now()
		}
		if live == 0 {
			break
		}
	}
	return errs, nil
}
