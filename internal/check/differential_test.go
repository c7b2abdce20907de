package check

import (
	"bytes"
	"context"
	"testing"

	"rfpsim/internal/config"
	"rfpsim/internal/isa"
	"rfpsim/internal/runner"
	"rfpsim/internal/trace"
	"rfpsim/internal/tracefile"
)

// mustSpec fetches a catalog workload or fails the test.
func mustSpec(t *testing.T, name string) trace.Spec {
	t.Helper()
	spec, ok := trace.ByName(name)
	if !ok {
		t.Fatalf("workload %q not in catalog", name)
	}
	return spec
}

// requireClean runs the differential and fails on divergence or
// invariant violations.
func requireClean(t *testing.T, d Differential) *Result {
	t.Helper()
	res, err := d.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if res.Diverged {
		t.Fatalf("unexpected divergence: %s", res)
	}
	if res.BaseViolations != 0 || res.VariantViolations != 0 {
		t.Fatalf("unexpected invariant violations: %s", res)
	}
	return res
}

func TestDifferentialVPOnOff(t *testing.T) {
	t.Parallel()
	for _, wk := range []string{"spec06_mcf", "spec17_xalancbmk", "hadoop"} {
		wk := wk
		t.Run(wk, func(t *testing.T) {
			t.Parallel()
			variant := config.Baseline().WithVP(config.VPEVES)
			base, _, err := BaseFor("novp", variant)
			if err != nil {
				t.Fatal(err)
			}
			requireClean(t, Differential{
				Base: base, Variant: variant,
				Spec: mustSpec(t, wk), Uops: 5000,
			})
		})
	}
}

func TestDifferentialLateAllocOnOff(t *testing.T) {
	t.Parallel()
	variant := config.Baseline().WithRFP()
	variant.LateRegAlloc = true
	variant.Name += "+latealloc"
	base, _, err := BaseFor("nolatealloc", variant)
	if err != nil {
		t.Fatal(err)
	}
	requireClean(t, Differential{
		Base: base, Variant: variant,
		Spec: mustSpec(t, "spec17_mcf"), Uops: 5000,
	})
}

func TestDifferentialSampledVsFull(t *testing.T) {
	t.Parallel()
	variant := config.Baseline().WithRFP()
	base, sampled, err := BaseFor("full", variant)
	if err != nil {
		t.Fatal(err)
	}
	if !sampled {
		t.Fatal("mode full should request a sampled variant")
	}
	requireClean(t, Differential{
		Base: base, Variant: variant,
		Spec: mustSpec(t, "spec06_libquantum"),
		Uops: 10000,
		VariantSampling: &runner.Sampling{
			IntervalUops: 1000, MaxK: 3,
		},
	})
}

// TestDifferentialSampledTraceFactory pins that a sampled variant works
// on a NewGen factory — the rfpsim -diff full -trace path. The factory
// round-trips a catalog stream through the tracefile container, the
// same shape the service builds for uploaded traces.
func TestDifferentialSampledTraceFactory(t *testing.T) {
	t.Parallel()
	spec := mustSpec(t, "spec06_mcf")
	var buf bytes.Buffer
	w := tracefile.NewWriter(&buf)
	gen := spec.New()
	var op isa.MicroOp
	for i := 0; i < 12000; i++ {
		if !gen.Next(&op) {
			t.Fatalf("catalog generator ended at uop %d", i)
		}
		if err := w.Write(&op); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()

	variant := config.Baseline().WithRFP()
	base, sampled, err := BaseFor("full", variant)
	if err != nil {
		t.Fatal(err)
	}
	if !sampled {
		t.Fatal("mode full should request a sampled variant")
	}
	requireClean(t, Differential{
		Base: base, Variant: variant,
		Spec: trace.Spec{Name: "trace-factory", Category: "trace-file"},
		NewGen: func() isa.Generator {
			r, err := tracefile.NewReader(bytes.NewReader(raw), "trace-factory")
			if err != nil {
				panic(err)
			}
			return r
		},
		Uops: 6000,
		VariantSampling: &runner.Sampling{
			IntervalUops: 1000, MaxK: 3,
		},
	})
}

func TestDifferentialOracle(t *testing.T) {
	t.Parallel()
	variant := config.Baseline().WithOracle(config.OracleL1ToRF)
	base, _, err := BaseFor("baseline", variant)
	if err != nil {
		t.Fatal(err)
	}
	requireClean(t, Differential{
		Base: base, Variant: variant,
		Spec: mustSpec(t, "spec17_lbm"), Uops: 5000,
	})
}

func TestBaseForUnknownMode(t *testing.T) {
	t.Parallel()
	if _, _, err := BaseFor("bogus", config.Baseline()); err == nil {
		t.Fatal("expected an error for an unknown mode")
	}
}

// TestDivergenceLocalization plants a divergence by comparing two
// different workloads and checks the localization fields are coherent.
func TestDivergenceLocalization(t *testing.T) {
	t.Parallel()
	d := Differential{
		Base:    config.Baseline(),
		Variant: config.Baseline(),
		Spec:    mustSpec(t, "spec06_mcf"),
		Uops:    3000, IntervalUops: 500,
	}
	// Different generator streams under identical configs: the harness
	// must report divergence, almost surely in the first interval.
	other := mustSpec(t, "spec17_gcc")
	d.Variant.Name = "other-workload"
	base, err := d.runSide(context.Background(), d.Base, nil, nil, 3000, 500)
	if err != nil {
		t.Fatal(err)
	}
	d.Spec = other
	variant, err := d.runSide(context.Background(), d.Variant, nil, nil, 3000, 500)
	if err != nil {
		t.Fatal(err)
	}
	res := &Result{IntervalUops: 500}
	d.compare(res, base.segs[0].digs, variant.segs, 500, true)
	if !res.Diverged {
		t.Fatal("different workloads must diverge")
	}
	if res.Interval != int(res.UopIndex/500) {
		t.Fatalf("interval %d inconsistent with uop index %d", res.Interval, res.UopIndex)
	}
	if res.BaseHash == res.VariantHash {
		t.Fatalf("divergent interval hashes are equal: %#x", res.BaseHash)
	}
}

// TestDifferentialSampledLastIntervalAtWindowEnd pins the window-edge
// trim: when the plan replays the window's last interval and its warmup
// retires a few uops past the interval start, the uops digested past the
// end of the window must not count as a divergence. spec06_perlbench at
// the rfpsim -diff full defaults is such a case.
func TestDifferentialSampledLastIntervalAtWindowEnd(t *testing.T) {
	t.Parallel()
	variant := config.Baseline()
	base, _, err := BaseFor("full", variant)
	if err != nil {
		t.Fatal(err)
	}
	requireClean(t, Differential{
		Base: base, Variant: variant,
		Spec:            mustSpec(t, "spec06_perlbench"),
		Uops:            60000,
		VariantSampling: &runner.Sampling{},
	})
}
