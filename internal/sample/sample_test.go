package sample

import (
	"context"
	"math"
	"strings"
	"testing"

	"rfpsim/internal/config"
	"rfpsim/internal/runner"
	"rfpsim/internal/trace"
)

func mustSpec(t *testing.T, name string) trace.Spec {
	t.Helper()
	spec, ok := trace.ByName(name)
	if !ok {
		t.Fatalf("catalog workload %s missing", name)
	}
	return spec
}

func TestProfileShapeAndDeterminism(t *testing.T) {
	spec := mustSpec(t, "spec06_gcc")
	p1, err := ProfileGenerator(context.Background(), spec.New(), spec.Name, 30000, 60000, 2000)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := p1.Intervals(), 30; got != want {
		t.Fatalf("intervals = %d, want %d", got, want)
	}
	for i, v := range p1.Vectors {
		var norm float64
		for _, x := range v {
			norm += x * x
		}
		if math.Abs(norm-1) > 1e-9 {
			t.Fatalf("interval %d vector norm^2 = %g, want 1", i, norm)
		}
	}
	p2, err := ProfileGenerator(context.Background(), spec.New(), spec.Name, 30000, 60000, 2000)
	if err != nil {
		t.Fatal(err)
	}
	for i := range p1.Vectors {
		if p1.Vectors[i] != p2.Vectors[i] {
			t.Fatalf("interval %d vector differs between identical profiling passes", i)
		}
	}
}

func TestProfileRejectsDegenerateWindows(t *testing.T) {
	spec := mustSpec(t, "spec06_gcc")
	if _, err := ProfileGenerator(context.Background(), spec.New(), spec.Name, 0, 1000, 0); err == nil {
		t.Fatal("zero interval accepted")
	}
	if _, err := ProfileGenerator(context.Background(), spec.New(), spec.Name, 0, 1000, 2000); err == nil {
		t.Fatal("window shorter than one interval accepted")
	}
}

func TestKMeansDeterministicPartition(t *testing.T) {
	spec := mustSpec(t, "spark")
	p, err := ProfileGenerator(context.Background(), spec.New(), spec.Name, 0, 60000, 2000)
	if err != nil {
		t.Fatal(err)
	}
	a := kMeans(p.Vectors, 5, 42)
	b := kMeans(p.Vectors, 5, 42)
	if a.K != b.K {
		t.Fatalf("K differs across identical runs: %d vs %d", a.K, b.K)
	}
	for i := range a.Assign {
		if a.Assign[i] != b.Assign[i] {
			t.Fatalf("assignment of interval %d differs across identical runs", i)
		}
	}
	total := 0
	for c := 0; c < a.K; c++ {
		if a.Size[c] == 0 {
			t.Fatalf("cluster %d is empty", c)
		}
		rep := a.Representative[c]
		if rep < 0 || rep >= len(p.Vectors) {
			t.Fatalf("cluster %d representative %d out of range", c, rep)
		}
		if a.Assign[rep] != c {
			t.Fatalf("cluster %d representative %d belongs to cluster %d", c, rep, a.Assign[rep])
		}
		total += a.Size[c]
	}
	if total != len(p.Vectors) {
		t.Fatalf("cluster sizes sum to %d, want %d", total, len(p.Vectors))
	}
}

func TestBuildPlanWeightsAndBound(t *testing.T) {
	spec := mustSpec(t, "spec06_xalancbmk")
	p, err := ProfileGenerator(context.Background(), spec.New(), spec.Name, 30000, 60000, 2000)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := BuildPlan(p, 5, 7)
	if err != nil {
		t.Fatal(err)
	}
	if len(plan.Points) == 0 || len(plan.Points) > 5 {
		t.Fatalf("plan has %d points, want 1..5", len(plan.Points))
	}
	var weights uint64
	last := -1
	for _, pt := range plan.Points {
		if pt.Index <= last {
			t.Fatalf("plan points not in strictly increasing window order: %v", plan.Points)
		}
		last = pt.Index
		weights += pt.Weight
	}
	if weights != uint64(plan.Intervals) {
		t.Fatalf("weights sum to %d, want the interval count %d", weights, plan.Intervals)
	}
	if plan.ErrorBound < 0 || plan.ErrorBound > 1 {
		t.Fatalf("error bound %g outside [0,1]", plan.ErrorBound)
	}
	if got := plan.MeasuredUops(); got != uint64(len(plan.Points))*2000 {
		t.Fatalf("MeasuredUops = %d", got)
	}
	if !strings.Contains(plan.String(), "simpoints") {
		t.Fatalf("plan String misses the summary line:\n%s", plan.String())
	}
}

func TestValidateRejections(t *testing.T) {
	spec := mustSpec(t, "spec06_gcc")
	base := runner.Job{
		Config:      config.Baseline(),
		Spec:        spec,
		WarmupUops:  30000,
		MeasureUops: 60000,
		Seeds:       1,
		Sampling:    &runner.Sampling{},
	}
	multi := base
	multi.Seeds = 3
	if err := Validate(multi); err == nil || !strings.Contains(err.Error(), "single seed") {
		t.Fatalf("Seeds=3 error = %v", err)
	}
	short := base
	short.MeasureUops = 500
	if err := Validate(short); err == nil || !strings.Contains(err.Error(), "interval") {
		t.Fatalf("short window error = %v", err)
	}
	negK := base
	negK.Sampling = &runner.Sampling{MaxK: -1}
	if err := Validate(negK); err == nil || !strings.Contains(err.Error(), "MaxK") {
		t.Fatalf("MaxK=-1 error = %v", err)
	}
	if err := Validate(base); err != nil {
		t.Fatalf("valid sampled job rejected: %v", err)
	}
}

func TestRunFullPassthrough(t *testing.T) {
	job := runner.Job{
		Config:      config.Baseline(),
		Spec:        mustSpec(t, "spec06_gcc"),
		WarmupUops:  2000,
		MeasureUops: 4000,
		Seeds:       1,
	}
	direct, err := runner.Run(context.Background(), job)
	if err != nil {
		t.Fatal(err)
	}
	res, err := RunResult(context.Background(), job)
	if err != nil {
		t.Fatal(err)
	}
	if res.Plan != nil {
		t.Fatal("full run reported a replay plan")
	}
	if *res.Stats != *direct {
		t.Fatal("full-run passthrough differs from runner.Run")
	}
}

func TestSampledRunDeterministic(t *testing.T) {
	job := runner.Job{
		Config:      config.Baseline(),
		Spec:        mustSpec(t, "spark"),
		WarmupUops:  30000,
		MeasureUops: 60000,
		Seeds:       1,
		Sampling:    &runner.Sampling{},
	}
	a, err := RunResult(context.Background(), job)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunResult(context.Background(), job)
	if err != nil {
		t.Fatal(err)
	}
	if *a.Stats != *b.Stats {
		t.Fatal("sampled statistics differ between identical runs")
	}
	if len(a.Plan.Points) != len(b.Plan.Points) {
		t.Fatal("replay plans differ between identical runs")
	}
}

// TestSampledAccuracy is the subsystem's acceptance gate: on a spread of
// catalog workloads the sampled IPC estimate must land within ±2% of the
// full-run IPC while cycle-simulating at most a fifth of the measured
// window.
func TestSampledAccuracy(t *testing.T) {
	if testing.Short() {
		t.Skip("sampled-vs-full comparison simulates full windows")
	}
	names := []string{
		"spec06_mcf", "spec06_gcc", "spec06_xalancbmk",
		"spec06_wrf", "spark", "spec17_lbm",
	}
	for _, n := range names {
		t.Run(n, func(t *testing.T) {
			job := runner.Job{
				Config:      config.Baseline(),
				Spec:        mustSpec(t, n),
				WarmupUops:  30000,
				MeasureUops: 60000,
				Seeds:       1,
			}
			full, err := runner.Run(context.Background(), job)
			if err != nil {
				t.Fatal(err)
			}
			sampled := job
			sampled.Sampling = &runner.Sampling{}
			res, err := RunResult(context.Background(), sampled)
			if err != nil {
				t.Fatal(err)
			}
			if got, limit := res.Plan.MeasuredUops(), job.MeasureUops/5; got > limit {
				t.Fatalf("sampled run measures %d uops, budget is %d (1/5 of the window)", got, limit)
			}
			relErr := res.Stats.IPC()/full.IPC() - 1
			t.Logf("full IPC %.3f sampled %.3f err %+.2f%% (%d points, bound %.3f)",
				full.IPC(), res.Stats.IPC(), 100*relErr, len(res.Plan.Points), res.Plan.ErrorBound)
			if math.Abs(relErr) > 0.02 {
				t.Fatalf("sampled IPC %.4f deviates %+.2f%% from full-run %.4f (tolerance ±2%%)",
					res.Stats.IPC(), 100*relErr, full.IPC())
			}
		})
	}
}
