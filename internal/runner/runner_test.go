package runner

import (
	"context"
	"errors"
	"strings"
	"testing"
	"time"

	"rfpsim/internal/config"
	"rfpsim/internal/trace"
)

func mcf(t *testing.T) trace.Spec {
	t.Helper()
	spec, ok := trace.ByName("spec06_mcf")
	if !ok {
		t.Fatal("spec06_mcf missing from catalog")
	}
	return spec
}

// TestRunIsDeterministic: identical jobs are pure functions — every counter
// matches across runs. This property is what makes the service's result
// cache sound.
func TestRunIsDeterministic(t *testing.T) {
	job := Job{
		Config:      config.Baseline().WithRFP(),
		Spec:        mcf(t),
		WarmupUops:  5000,
		MeasureUops: 10000,
		Seeds:       1,
	}
	a, err := Run(context.Background(), job)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(context.Background(), job)
	if err != nil {
		t.Fatal(err)
	}
	if *a != *b {
		t.Errorf("identical jobs diverged:\n%+v\nvs\n%+v", a, b)
	}
}

// TestSeedReplicasAccumulate: a multi-seed job sums counters over replicas
// whose seeds actually differ (so it is not just N copies of one run).
func TestSeedReplicasAccumulate(t *testing.T) {
	base := Job{
		Config:      config.Baseline(),
		Spec:        mcf(t),
		WarmupUops:  5000,
		MeasureUops: 10000,
		Seeds:       1,
	}
	one, err := Run(context.Background(), base)
	if err != nil {
		t.Fatal(err)
	}
	multi := base
	multi.Seeds = 3
	three, err := Run(context.Background(), multi)
	if err != nil {
		t.Fatal(err)
	}
	// Each replica commits at least the measured window (plus a few uops of
	// commit-group overshoot that varies with the seed), so the summed total
	// sits just above 3x the window.
	if three.Instructions < 3*base.MeasureUops || three.Instructions > 3*(base.MeasureUops+100) {
		t.Errorf("3-seed uops = %d, want ~3x%d", three.Instructions, base.MeasureUops)
	}
	if three.Cycles == 3*one.Cycles {
		t.Errorf("3-seed cycles exactly 3x the single run (%d): replica seeds not perturbed?", three.Cycles)
	}
	if three.Cycles <= one.Cycles {
		t.Errorf("3-seed cycles %d not greater than single-seed %d", three.Cycles, one.Cycles)
	}
}

// TestCancelledContextDiscardsResult: cancellation surfaces ctx.Err and
// discards any partial accumulation (nil stats, never a mixed total).
func TestCancelledContextDiscardsResult(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	st, err := Run(ctx, Job{
		Config:      config.Baseline(),
		Spec:        mcf(t),
		WarmupUops:  5000,
		MeasureUops: 10000,
		Seeds:       2,
	})
	if st != nil {
		t.Errorf("cancelled run returned stats %+v, want nil", st)
	}
	if !errors.Is(err, context.Canceled) {
		t.Errorf("err = %v, want wrapped context.Canceled", err)
	}
}

// TestDeadlineCancelsMidRun: a deadline expiring inside the measured window
// aborts promptly instead of running the window to completion.
func TestDeadlineCancelsMidRun(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), time.Millisecond)
	defer cancel()
	start := time.Now()
	st, err := Run(ctx, Job{
		Config:      config.Baseline(),
		Spec:        mcf(t),
		WarmupUops:  5000,
		MeasureUops: 40_000_000,
		Seeds:       1,
	})
	if st != nil || !errors.Is(err, context.DeadlineExceeded) {
		t.Errorf("got (%v, %v), want (nil, wrapped DeadlineExceeded)", st, err)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Errorf("cancellation took %s, want prompt abort", elapsed)
	}
}

// TestGenWithMultipleSeedsRejected: a generator override replays one
// fixed stream, so it cannot back several perturbed-seed replicas.
func TestGenWithMultipleSeedsRejected(t *testing.T) {
	spec := mcf(t)
	_, err := Run(context.Background(), Job{
		Config:      config.Baseline(),
		Spec:        spec,
		NewGen:      spec.New,
		WarmupUops:  100,
		MeasureUops: 100,
		Seeds:       2,
	})
	if err == nil {
		t.Error("NewGen with Seeds=2 accepted, want error")
	}
}

// TestInvalidConfigErrorsInsteadOfPanicking: runner.Run validates up front
// so service jobs with bad knobs fail as errors, not panics in a worker.
func TestInvalidConfigErrorsInsteadOfPanicking(t *testing.T) {
	cfg := config.Baseline()
	cfg.ROBSize = 0
	_, err := Run(context.Background(), Job{
		Config:      cfg,
		Spec:        mcf(t),
		MeasureUops: 100,
		Seeds:       1,
	})
	if err == nil {
		t.Error("invalid config accepted, want error")
	}
}

// TestRejectsEmptyWindowAndImplicitSeeds: a job that would silently
// simulate nothing (MeasureUops 0) or silently default its replica count
// (Seeds 0) is a caller bug and must fail loudly with a field-naming
// error, not return an empty or single-seed result.
func TestRejectsEmptyWindowAndImplicitSeeds(t *testing.T) {
	good := Job{
		Config:      config.Baseline(),
		Spec:        mcf(t),
		WarmupUops:  100,
		MeasureUops: 100,
		Seeds:       1,
	}

	noMeasure := good
	noMeasure.MeasureUops = 0
	if st, err := Run(context.Background(), noMeasure); err == nil || !strings.Contains(err.Error(), "MeasureUops") {
		t.Errorf("MeasureUops=0: got (%v, %v), want error naming MeasureUops", st, err)
	}

	for _, seeds := range []int{0, -2} {
		bad := good
		bad.Seeds = seeds
		if st, err := Run(context.Background(), bad); err == nil || !strings.Contains(err.Error(), "Seeds") {
			t.Errorf("Seeds=%d: got (%v, %v), want error naming Seeds", seeds, st, err)
		}
	}
}

// TestRejectsSampledJob: runner.Run is the full-window path; a job
// carrying a Sampling spec must be routed through internal/sample.RunResult,
// and silently ignoring the spec would return full-run statistics under a
// sampled content address.
func TestRejectsSampledJob(t *testing.T) {
	job := Job{
		Config:      config.Baseline(),
		Spec:        mcf(t),
		WarmupUops:  100,
		MeasureUops: 100,
		Seeds:       1,
		Sampling:    &Sampling{IntervalUops: 50},
	}
	if st, err := Run(context.Background(), job); err == nil || !strings.Contains(err.Error(), "sample") {
		t.Errorf("sampled job: got (%v, %v), want error pointing at internal/sample", st, err)
	}
}

// TestTotalUops: the job-size accounting the service ceiling and the
// sweep ETA both rely on counts every replica's warmup and measurement.
func TestTotalUops(t *testing.T) {
	j := Job{WarmupUops: 30000, MeasureUops: 60000}
	if got := j.TotalUops(); got != 90000 {
		t.Errorf("single-seed TotalUops = %d, want 90000", got)
	}
	j.Seeds = 3
	if got := j.TotalUops(); got != 270000 {
		t.Errorf("3-seed TotalUops = %d, want 270000", got)
	}
	j.Seeds = -1 // TotalUops stays defined (one replica) even though Run rejects it
	if got := j.TotalUops(); got != 90000 {
		t.Errorf("negative-seed TotalUops = %d, want 90000", got)
	}
}
