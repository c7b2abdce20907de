package sample

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"maps"
	"runtime/pprof"
	"strings"
	"testing"

	"rfpsim/internal/config"
	"rfpsim/internal/core"
	"rfpsim/internal/obs"
	"rfpsim/internal/runner"
)

// TestSampledErrorsNameTheJob: RunFamily owns naming a failed sampled
// job, so each error names its own workload and config exactly once, as
// "sample: <workload> on <config>: <cause>", and the cause names what
// failed — validation, a cancelled profile, or one member's interval
// while its sibling succeeds.
func TestSampledErrorsNameTheJob(t *testing.T) {
	spec := mustSpec(t, "spec06_mcf")
	sampled := runner.Job{Config: config.Baseline(), Spec: spec, WarmupUops: 1000, MeasureUops: 4000,
		Seeds: 1, Sampling: &runner.Sampling{}}
	short := sampled
	short.MeasureUops = 1000
	negK := sampled
	negK.Sampling = &runner.Sampling{MaxK: -1}
	badConfig := sampled
	badConfig.Config.ROBSize = 0
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()

	rfp := config.Baseline().WithRFP()
	wedged := rfp.WithPrefetcher("stream")
	wedged.FrontendLatency = 1 << 20 // its pipeline wedges; rfp's does not
	wedged.Name += "+wedged"
	pair := familyJobs(mustSpec(t, "spec06_gcc"), rfp, wedged)

	named := func(t *testing.T, job runner.Job, err error, cause string, others ...runner.Job) {
		t.Helper()
		if err == nil {
			t.Fatalf("%s: no error", job.Config.Name)
		}
		msg, name := err.Error(), job.Spec.Name+" on "+job.Config.Name+":"
		if !strings.HasPrefix(msg, "sample: "+name+" ") || strings.Count(msg, name) != 1 ||
			strings.Count(msg, job.Spec.Name) != 1 {
			t.Errorf("error %q does not name %q exactly once, up front", msg, name)
		}
		if !strings.Contains(msg, cause) {
			t.Errorf("error %q does not name its cause %q", msg, cause)
		}
		for _, o := range others {
			if strings.Contains(msg, o.Spec.Name+" on "+o.Config.Name+":") {
				t.Errorf("error %q names the sibling %s", msg, o.Config.Name)
			}
		}
	}
	for _, tc := range []struct {
		name  string
		ctx   context.Context
		job   runner.Job
		cause string
	}{
		{"short window", context.Background(), short, "shorter than one interval"},
		{"MaxK < 0", context.Background(), negK, "MaxK must be >= 0"},
		{"invalid config", context.Background(), badConfig, "invalid config"},
		{"cancelled", cancelled, sampled, "profile fast-forward cancelled"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			_, err := RunResult(tc.ctx, tc.job)
			named(t, tc.job, err, tc.cause)
			if tc.ctx == cancelled && !errors.Is(err, context.Canceled) {
				t.Errorf("%v is not context.Canceled", err)
			}
		})
	}
	t.Run("member fails alone", func(t *testing.T) {
		_, errs := RunFamily(context.Background(), pair)
		if errs[0] != nil {
			t.Fatalf("sibling failed: %v", errs[0])
		}
		named(t, pair[1], errs[1], "interval ", pair[0])
	})
}

// goroutineLabels returns the calling goroutine's pprof labels, read from
// the goroutine profile: the record whose stack runs through this
// function.
func goroutineLabels(t *testing.T) map[string]string {
	t.Helper()
	var buf bytes.Buffer
	if err := pprof.Lookup("goroutine").WriteTo(&buf, 1); err != nil {
		t.Fatal(err)
	}
	for _, rec := range strings.Split(buf.String(), "\n\n") {
		if !strings.Contains(rec, ".goroutineLabels+") {
			continue
		}
		labels := map[string]string{}
		if _, after, ok := strings.Cut(rec, "\n# labels: "); ok {
			line, _, _ := strings.Cut(after, "\n")
			if err := json.Unmarshal([]byte(line), &labels); err != nil {
				t.Fatalf("labels line %q: %v", line, err)
			}
		}
		return labels
	}
	t.Fatal("no goroutine in the profile runs goroutineLabels")
	return nil
}

// TestJobLabels: under a run ID, a job's AfterWarmup hook runs with its
// own job's pprof labels (run_id, workload and config) for a full job and
// for each member of a two-config family, a job without a run ID runs
// with none, and the calling goroutine carries no job labels once the
// call returns.
func TestJobLabels(t *testing.T) {
	spec := mustSpec(t, "spec06_mcf")
	rfp := config.Baseline().WithRFP()
	full := runner.Job{Config: rfp, Spec: spec, WarmupUops: 1000, MeasureUops: 2000, Seeds: 1}
	family := familyJobs(spec, rfp, rfp.WithPrefetcher("stream"))

	// run runs jobs as one call and returns, per job, the labels its
	// hook saw at each point.
	run := func(t *testing.T, ctx context.Context, jobs []runner.Job) [][]map[string]string {
		t.Helper()
		seen := make([][]map[string]string, len(jobs))
		for i := range jobs {
			jobs[i].AfterWarmup = func(*core.Core) { seen[i] = append(seen[i], goroutineLabels(t)) }
		}
		_, errs := RunFamily(ctx, jobs)
		for i, err := range errs {
			if err != nil {
				t.Fatalf("job %d: %v", i, err)
			}
			if len(seen[i]) == 0 {
				t.Fatalf("job %d: the hook never ran", i)
			}
		}
		if got := goroutineLabels(t); len(got) != 0 {
			t.Errorf("the caller carries %v after the call", got)
		}
		return seen
	}

	ctx := obs.WithRunID(context.Background(), "labels")
	for _, jobs := range [][]runner.Job{{full}, family} {
		for i, seen := range run(t, ctx, jobs) {
			want := map[string]string{"run_id": "labels", "workload": spec.Name, "config": jobs[i].Config.Name}
			for _, got := range seen {
				if !maps.Equal(got, want) {
					t.Errorf("%s: hook saw labels %v, want %v", jobs[i].Config.Name, got, want)
				}
			}
		}
		for i, seen := range run(t, context.Background(), jobs) {
			for _, got := range seen {
				if len(got) != 0 {
					t.Errorf("%s without a run ID: hook saw labels %v", jobs[i].Config.Name, got)
				}
			}
		}
	}
}
