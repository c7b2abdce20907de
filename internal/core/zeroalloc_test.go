package core

import (
	"context"
	"testing"

	"rfpsim/internal/config"
	"rfpsim/internal/trace"
)

// steadyCore builds a core on a real catalog workload and runs it long
// enough that every growable structure (fetch queue, replay buffer, MSHR
// list, flush scratch buffers) has reached its steady-state capacity.
func steadyCore(t *testing.T, cfg config.Core) *Core {
	t.Helper()
	spec, ok := trace.ByName("spec06_gcc")
	if !ok {
		t.Fatal("spec06_gcc missing from catalog")
	}
	c := New(cfg, spec.New())
	c.WarmCaches()
	if _, err := c.Run(context.Background(), 50000); err != nil {
		t.Fatal(err)
	}
	return c
}

// TestStepZeroAllocs asserts the simulated-interval contract at the heart
// of the throughput work: with tracing detached and checks off, the cycle
// loop performs zero heap allocations per interval. This is the tier-1
// guard for the eager-trace-argument bug class (formatting trace events
// before the tracing guard) and for any new per-uop/per-event allocation
// sneaking into a pipeline stage.
func TestStepZeroAllocs(t *testing.T) {
	lateAlloc := config.Baseline().WithRFP()
	lateAlloc.LateRegAlloc = true
	for _, tc := range []struct {
		name string
		cfg  config.Core
	}{
		{"baseline", config.Baseline()},
		{"rfp", config.Baseline().WithRFP()},
		// The prefetcher zoo rides the demand path, so every scheme (and
		// the adaptive manager, which runs all of them) must honor the
		// same zero-alloc contract.
		// The CLP schedule adds a prediction per dispatched load and a
		// training update per committed one; both must stay table-only.
		{"clp", config.Baseline().WithCLP()},
		{"spp", config.Baseline().WithRFP().WithPrefetcher("spp")},
		{"sisb", config.Baseline().WithRFP().WithPrefetcher("sisb")},
		{"managed", config.Baseline().WithRFP().WithPrefetcher("managed")},
		// Value-misprediction flushes, EPP re-executions and late-claim
		// retries all update the scheduler indexes; that upkeep must
		// reuse the storage New preallocated.
		{"eves", config.Baseline().WithVP(config.VPEVES)},
		{"epp", config.Baseline().WithVP(config.VPEPP)},
		{"late-alloc", lateAlloc},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c := steadyCore(t, tc.cfg)
			ctx := context.Background()
			avg := testing.AllocsPerRun(5, func() {
				if _, err := c.Run(ctx, 2000); err != nil {
					t.Fatal(err)
				}
			})
			if avg != 0 {
				t.Errorf("steady-state interval allocated %.1f times per 2000 uops, want 0", avg)
			}
		})
	}
}

// TestFastForwardZeroAllocs extends the zero-alloc contract to functional
// warming: once a 50K-uop fast-forward has grown the generator's and the
// predictors' state to steady size, a further 10K-uop FastForward
// allocates nothing. Sampled replay fast-forwards every job, so a
// per-call or per-uop allocation here is paid on every sampled point.
func TestFastForwardZeroAllocs(t *testing.T) {
	for _, cfg := range []config.Core{
		config.Baseline(),
		config.Baseline().WithCLP().WithPrefetcher("managed"),
		config.Baseline().WithVP(config.VPEVES),
	} {
		for _, name := range []string{"spec06_mcf", "spec06_gcc", "tpce"} {
			t.Run(name+"/"+cfg.Name, func(t *testing.T) {
				spec, ok := trace.ByName(name)
				if !ok {
					t.Fatalf("%s missing from catalog", name)
				}
				c := New(cfg, spec.New())
				c.WarmCaches()
				ctx := context.Background()
				if err := c.FastForward(ctx, 50000); err != nil {
					t.Fatal(err)
				}
				avg := testing.AllocsPerRun(5, func() {
					if err := c.FastForward(ctx, 10000); err != nil {
						t.Fatal(err)
					}
				})
				if avg != 0 {
					t.Errorf("FastForward allocated %.1f times per 10000 uops, want 0", avg)
				}
			})
		}
	}
}

// TestTraceUopLazyWhenDetached pins the fix for the disabled-pipeTrace
// allocation bug: traceUop (and therefore its fmt.Sprintf) must never run
// while no trace is attached. The counter is the regression tripwire — an
// eagerly evaluated trace argument at any call site re-fires it.
func TestTraceUopLazyWhenDetached(t *testing.T) {
	c := steadyCore(t, config.Baseline().WithRFP())
	before := traceUopCalls
	if _, err := c.Run(context.Background(), 5000); err != nil {
		t.Fatal(err)
	}
	if got := traceUopCalls - before; got != 0 {
		t.Errorf("traceUop ran %d times with tracing detached, want 0", got)
	}

	// Sanity-check the counter itself: with a trace attached it must fire.
	c.AttachPipeTrace(discard{}, 0, ^uint64(0))
	before = traceUopCalls
	if _, err := c.Run(context.Background(), 1000); err != nil {
		t.Fatal(err)
	}
	if traceUopCalls == before {
		t.Error("traceUop never ran with an unbounded trace attached")
	}
}

// TestTraceOutsideWindowZeroAllocs covers the second disabled shape: a
// trace is attached but the current cycle lies outside its window, which
// must be just as allocation-free as no trace at all.
func TestTraceOutsideWindowZeroAllocs(t *testing.T) {
	c := steadyCore(t, config.Baseline().WithRFP())
	c.AttachPipeTrace(discard{}, ^uint64(0)-1, ^uint64(0))
	ctx := context.Background()
	avg := testing.AllocsPerRun(5, func() {
		if _, err := c.Run(ctx, 2000); err != nil {
			t.Fatal(err)
		}
	})
	if avg != 0 {
		t.Errorf("out-of-window tracing allocated %.1f times per 2000 uops, want 0", avg)
	}
}

// discard is an io.Writer that drops everything (io.Discard would work,
// but a local type keeps the zero-alloc tests free of interface-conversion
// surprises across Go versions).
type discard struct{}

func (discard) Write(p []byte) (int, error) { return len(p), nil }
