package sample

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"strings"
	"testing"

	"rfpsim/internal/config"
	"rfpsim/internal/core"
	"rfpsim/internal/isa"
	"rfpsim/internal/runner"
	"rfpsim/internal/stats"
	"rfpsim/internal/trace"
	"rfpsim/internal/tracefile"
)

// replay is replayFamily over one job, the form the one-pass replay
// exactness tests drive.
func replay(ctx context.Context, job runner.Job, sp runner.Sampling, points []Point, done func(Point, *stats.Sim)) error {
	errs, err := replayFamily(ctx, []runner.Job{job}, sp, points, func(_ int, pt Point, st *stats.Sim) { done(pt, st) })
	if err != nil {
		return err
	}
	return errs[0]
}

// familyJobs builds one sampled job per configuration over spec, at the
// exactness tests' sizes.
func familyJobs(spec trace.Spec, cfgs ...config.Core) []runner.Job {
	jobs := make([]runner.Job, len(cfgs))
	for i, cfg := range cfgs {
		sp := forkTestSampling
		jobs[i] = runner.Job{Config: cfg, Spec: spec, WarmupUops: forkTestWarmup, MeasureUops: forkTestMeasure,
			Seeds: 1, Sampling: &sp}
	}
	return jobs
}

// resultJSON renders a result's statistics and plan for byte comparison.
func resultJSON(t *testing.T, res Result) string {
	t.Helper()
	js, err := json.Marshal(struct {
		Stats *stats.Sim
		Plan  *Plan
	}{res.Stats, res.Plan})
	if err != nil {
		t.Fatal(err)
	}
	return string(js)
}

// checkFamilyMatchesAlone runs jobs as one family and each job alone
// through RunResult, and compares every member's result byte for byte.
func checkFamilyMatchesAlone(t *testing.T, jobs []runner.Job) {
	t.Helper()
	ctx := context.Background()
	res, errs := RunFamily(ctx, jobs)
	for i, job := range jobs {
		if errs[i] != nil {
			t.Fatalf("member %s: %v", job.Config.Name, errs[i])
		}
		alone, err := RunResult(ctx, job)
		if err != nil {
			t.Fatalf("%s alone: %v", job.Config.Name, err)
		}
		if got, want := resultJSON(t, res[i]), resultJSON(t, alone); got != want {
			t.Errorf("member %s differs from its job run alone\nfamily: %s\nalone:  %s", job.Config.Name, got, want)
		}
	}
}

// prefetchClpGrid crosses base with the given L1 prefetchers ("" for
// none) and CLP off and on.
func prefetchClpGrid(base config.Core, prefetchers ...string) []config.Core {
	var cfgs []config.Core
	for _, pf := range prefetchers {
		for _, clp := range []bool{false, true} {
			cfg := base
			if pf != "" {
				cfg = cfg.WithPrefetcher(pf)
			}
			if clp {
				cfg = cfg.WithCLP()
			}
			cfgs = append(cfgs, cfg)
		}
	}
	return cfgs
}

// TestFamilyMatchesPerUnit is the exactness gate of config families:
// every member's result from one shared profile and fast-forward pass
// equals, byte for byte, RunResult of that member's job alone. It covers
// the whole catalog under the sampled sweep's grid (RFP with the stream
// and managed prefetchers, CLP off and on), the other zoo prefetchers on
// four workloads, and a PAT + context predictor variant.
func TestFamilyMatchesPerUnit(t *testing.T) {
	rfp := config.Baseline().WithRFP()
	run := func(label string, jobs []runner.Job) {
		t.Run(label, func(t *testing.T) {
			t.Parallel()
			checkFamilyMatchesAlone(t, jobs)
		})
	}
	for _, spec := range trace.Catalog() {
		run(spec.Name, familyJobs(spec, prefetchClpGrid(rfp, "stream", "managed")...))
	}
	for _, name := range []string{"spec06_mcf", "spec06_gcc", "tpce", "spark"} {
		run(name+"/zoo", familyJobs(mustSpec(t, name), prefetchClpGrid(rfp, "", "spp", "sisb")...))
	}
	patCtx := rfp
	patCtx.RFP.UsePAT, patCtx.RFP.UseContext = true, true
	patCtx.Name += "+pat+ctx"
	run("spec06_omnetpp/pat+ctx", familyJobs(mustSpec(t, "spec06_omnetpp"), prefetchClpGrid(patCtx, "stream", "managed")...))
}

// TestFamilyMemberFailsAlone: a member whose own points fail — here its
// front end is so deep that its pipeline wedges — fails alone, with the
// error it gets alone, and its siblings' results are unchanged.
func TestFamilyMemberFailsAlone(t *testing.T) {
	rfp := config.Baseline().WithRFP()
	wedged := rfp.WithPrefetcher("stream")
	wedged.FrontendLatency = 1 << 20
	wedged.Name += "+wedged"
	jobs := familyJobs(mustSpec(t, "spec06_gcc"), rfp, wedged, rfp.WithCLP())
	var hooked []string
	for i := range jobs {
		name := jobs[i].Config.Name
		jobs[i].AfterWarmup = func(*core.Core) { hooked = append(hooked, name) }
	}

	res, errs := RunFamily(context.Background(), jobs)
	if !errors.Is(errs[1], core.ErrWedged) {
		t.Fatalf("wedged member: err = %v, want a pipeline wedge", errs[1])
	}
	if res[1].Stats != nil {
		t.Fatal("a failed member has statistics")
	}
	if _, err := RunResult(context.Background(), jobs[1]); err == nil || err.Error() != errs[1].Error() {
		t.Fatalf("wedged member alone: err = %v, in its family: %v", err, errs[1])
	}
	for _, name := range hooked {
		if name == wedged.Name {
			t.Fatal("the wedged member's warmup completed")
		}
	}
	for _, i := range []int{0, 2} {
		if errs[i] != nil {
			t.Fatalf("sibling %s failed with the wedged member: %v", jobs[i].Config.Name, errs[i])
		}
		alone, err := RunResult(context.Background(), jobs[i])
		if err != nil {
			t.Fatal(err)
		}
		if resultJSON(t, res[i]) != resultJSON(t, alone) {
			t.Errorf("sibling %s differs from its job run alone", jobs[i].Config.Name)
		}
	}
}

// TestFamilySharedFailures: a failure in a stage the family shares
// fails every member with the same error — a stream too short to
// profile, a cancelled context, and a job that does not belong to the
// family.
func TestFamilySharedFailures(t *testing.T) {
	rfp := config.Baseline().WithRFP()
	cfgs := prefetchClpGrid(rfp, "stream")

	every := func(t *testing.T, errs []error, want string) {
		t.Helper()
		for i, err := range errs {
			if err == nil || !strings.Contains(err.Error(), want) {
				t.Fatalf("member %d: err = %v, want %q", i, err, want)
			}
			if err.Error() != errs[0].Error() {
				t.Fatalf("members fail with different errors: %v and %v", errs[0], err)
			}
		}
	}

	t.Run("profile", func(t *testing.T) {
		// The trace ends inside the measured window.
		raw := traceBytes(t, mustSpec(t, "spec06_gcc"), forkTestWarmup+forkTestMeasure/2)
		jobs := familyJobs(trace.Spec{Name: "short.rfpt", Category: "trace-file"}, cfgs...)
		for i := range jobs {
			jobs[i].NewGen = func() isa.Generator {
				r, err := tracefile.NewReader(bytes.NewReader(raw), "short.rfpt")
				if err != nil {
					panic(err)
				}
				return r
			}
		}
		_, errs := RunFamily(context.Background(), jobs)
		every(t, errs, "ended")
	})

	t.Run("cancelled", func(t *testing.T) {
		ctx, cancel := context.WithCancel(context.Background())
		jobs := familyJobs(mustSpec(t, "spec06_mcf"), cfgs...)
		// Cancel during the second member's first point, after the shared
		// profile and fast-forward are done.
		jobs[1].AfterWarmup = func(*core.Core) { cancel() }
		_, errs := RunFamily(ctx, jobs)
		every(t, errs, "cancel")
		for i, err := range errs {
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("member %d: %v is not context.Canceled", i, err)
			}
		}
	})

	t.Run("not-a-family", func(t *testing.T) {
		other := rfp
		other.Mem.L2Sets *= 2
		other.Name += "+bigl2"
		jobs := familyJobs(mustSpec(t, "spec06_mcf"), rfp, other)
		_, errs := RunFamily(context.Background(), jobs)
		every(t, errs, "not in the family")

		windows := familyJobs(mustSpec(t, "spec06_mcf"), cfgs[:2]...)
		windows[1].WarmupUops++
		_, errs = RunFamily(context.Background(), windows)
		every(t, errs, "not in the family")
	})
}
