package core

import (
	"context"
	"strings"
	"testing"

	"rfpsim/internal/config"
	"rfpsim/internal/isa"
	"rfpsim/internal/stats"
	"rfpsim/internal/trace"
)

// TestFastForwardAdvancesStream pins the contract sampling relies on:
// FastForward(n) leaves the generator positioned exactly n uops in, so a
// subsequent Run commits the same stream suffix a by-hand skip produces.
func TestFastForwardAdvancesStream(t *testing.T) {
	spec, ok := trace.ByName("spec06_gcc")
	if !ok {
		t.Fatal("catalog workload spec06_gcc missing")
	}
	const skip, window = 12345, 200

	want := make([]uint64, 0, window)
	gen := spec.New()
	var op isa.MicroOp
	for i := 0; i < skip; i++ {
		if !gen.Next(&op) {
			t.Fatal("workload ended during manual skip")
		}
	}
	for i := 0; i < window; i++ {
		if !gen.Next(&op) {
			t.Fatal("workload ended during manual window")
		}
		want = append(want, op.PC)
	}

	c := New(config.Baseline(), spec.New())
	if err := c.FastForward(context.Background(), skip); err != nil {
		t.Fatal(err)
	}
	var got []uint64
	c.OnCommit(func(op *isa.MicroOp) {
		if len(got) < window {
			got = append(got, op.PC)
		}
	})
	if _, err := c.Run(context.Background(), window); err != nil {
		t.Fatal(err)
	}
	if len(got) != window {
		t.Fatalf("committed %d uops, want %d", len(got), window)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("uop %d after fast-forward has PC %#x, manual skip says %#x", i, got[i], want[i])
		}
	}
}

func TestFastForwardRejectsStartedCore(t *testing.T) {
	spec, ok := trace.ByName("spec06_gcc")
	if !ok {
		t.Fatal("catalog workload spec06_gcc missing")
	}
	c := New(config.Baseline(), spec.New())
	if _, err := c.Run(context.Background(), 100); err != nil {
		t.Fatal(err)
	}
	err := c.FastForward(context.Background(), 100)
	if err == nil || !strings.Contains(err.Error(), "already simulated") {
		t.Fatalf("FastForward on a started core: err = %v", err)
	}
}

func TestFastForwardErrorsPastStreamEnd(t *testing.T) {
	// A finite generator: replay a short body via the core's own pending
	// buffer is not reachable from outside, so use a bounded wrapper.
	g := &boundedGen{inner: &loopGen{name: "finite", body: []isa.MicroOp{alu(0x10, 1, 1, isa.NoReg)}}, limit: 50}
	c := New(config.Baseline(), g)
	err := c.FastForward(context.Background(), 100)
	if err == nil || !strings.Contains(err.Error(), "ended") {
		t.Fatalf("FastForward past stream end: err = %v", err)
	}
}

// boundedGen truncates an infinite generator after limit uops.
type boundedGen struct {
	inner isa.Generator
	limit uint64
	n     uint64
}

func (g *boundedGen) Name() string { return g.inner.Name() }

func (g *boundedGen) Next(op *isa.MicroOp) bool {
	if g.n >= g.limit {
		return false
	}
	g.n++
	return g.inner.Next(op)
}

// TestForkPreconditionsAndIndependence: Fork refuses a core that has
// simulated and a generator that cannot be cloned; a fork runs on its
// own statistics block and leaves its source able to fast-forward on.
func TestForkPreconditionsAndIndependence(t *testing.T) {
	spec, ok := trace.ByName("spec06_gcc")
	if !ok {
		t.Fatal("catalog workload spec06_gcc missing")
	}
	ctx := context.Background()
	cfg := config.Baseline().WithCLP().WithPrefetcher("managed")

	c := New(cfg, spec.New())
	c.WarmCaches()
	if err := c.FastForward(ctx, 5000); err != nil {
		t.Fatal(err)
	}
	f, err := c.Fork(cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := f.RetiredStreamPos(); got != 5000 {
		t.Fatalf("fork starts at stream position %d, want 5000", got)
	}
	if _, err := f.Run(ctx, 3000); err != nil {
		t.Fatal(err)
	}
	if *c.Stats() != (stats.Sim{}) {
		t.Fatal("running the fork changed its source's statistics")
	}
	if f.Stats().L1Accesses == 0 {
		t.Fatal("the fork's hierarchy does not count into the fork's statistics")
	}
	if err := c.FastForward(ctx, 1000); err != nil {
		t.Fatalf("source cannot fast-forward after forking: %v", err)
	}
	if _, err := f.Fork(cfg, nil); err == nil || !strings.Contains(err.Error(), "already simulated") {
		t.Fatalf("Fork of a simulated core: err = %v", err)
	}

	one := New(cfg, &loopGen{name: "unforkable", body: []isa.MicroOp{alu(0x10, 1, 1, isa.NoReg)}})
	if _, err := one.Fork(cfg, nil); err == nil || !strings.Contains(err.Error(), "not forkable") {
		t.Fatalf("Fork over an uncloneable generator: err = %v", err)
	}

	// A functional core warms and forks but never cycle-simulates.
	fc := NewFunctional(cfg, spec.New())
	fc.WarmCaches()
	if err := fc.FastForward(ctx, 5000); err != nil {
		t.Fatal(err)
	}
	if _, err := fc.Run(ctx, 100); err == nil || !strings.Contains(err.Error(), "cannot cycle-simulate") {
		t.Fatalf("Run on a functional core: err = %v", err)
	}
	ff, err := fc.Fork(cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ff.Run(ctx, 3000); err != nil {
		t.Fatalf("fork of a functional core: %v", err)
	}
	if *ff.Stats() != *f.Stats() {
		t.Fatal("forks of a functional and a full core at the same point differ")
	}
}
