package sample

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
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

// replayPointReference is the per-point replay path the one-pass replay
// replaced: a fresh core per point, cache-warmed and fast-forwarded from
// uop 0 to the point's warmup start. It is kept here as the reference the
// forked path must reproduce exactly.
func replayPointReference(ctx context.Context, job runner.Job, sp runner.Sampling, pt Point) (*stats.Sim, error) {
	start := job.WarmupUops + uint64(pt.Index)*sp.IntervalUops
	warm := min(sp.WarmupUops, start)
	var gen isa.Generator
	if job.NewGen != nil {
		gen = job.NewGen()
	} else {
		gen = job.Spec.New()
	}
	c := core.New(job.Config, gen)
	if !job.ColdCaches {
		c.WarmCaches()
	}
	if err := c.FastForward(ctx, start-warm); err != nil {
		return nil, err
	}
	return runner.Measure(ctx, c, runner.Job{
		WarmupUops:  warm,
		MeasureUops: sp.IntervalUops,
		AfterWarmup: job.AfterWarmup,
	})
}

// pointRecord is what one replayed point exposes: its statistics as JSON,
// plus what the AfterWarmup hook observed (the stream position and, when
// the test attaches one, the commit digests of the measured interval).
type pointRecord struct {
	stats   string
	hookPos uint64
	digests []uint64
}

// replayBoth replays points through the one-pass forked path and through
// the per-point reference, recording every point on each side.
func replayBoth(t *testing.T, job runner.Job, sp runner.Sampling, points []Point, digest bool) (forked, perPoint []pointRecord) {
	t.Helper()
	ctx := context.Background()
	record := func(out *[]pointRecord) (func(*core.Core), func(*stats.Sim)) {
		var pos uint64
		var d *core.CommitDigest
		hook := func(c *core.Core) {
			pos = c.RetiredStreamPos()
			if digest {
				d = c.EnableCommitDigest(sp.IntervalUops)
			}
		}
		done := func(st *stats.Sim) {
			js, err := json.Marshal(st)
			if err != nil {
				t.Fatal(err)
			}
			rec := pointRecord{stats: string(js), hookPos: pos}
			if d != nil {
				rec.digests = d.Digests()
			}
			*out = append(*out, rec)
		}
		return hook, done
	}

	hook, done := record(&forked)
	j := job
	j.AfterWarmup = hook
	if err := replay(ctx, j, sp, points, func(_ Point, st *stats.Sim) { done(st) }); err != nil {
		t.Fatalf("forked replay: %v", err)
	}
	hook, done = record(&perPoint)
	j.AfterWarmup = hook
	for _, pt := range points {
		st, err := replayPointReference(ctx, j, sp, pt)
		if err != nil {
			t.Fatalf("per-point replay of interval %d: %v", pt.Index, err)
		}
		done(st)
	}
	return forked, perPoint
}

func comparePoints(t *testing.T, points []Point, forked, perPoint []pointRecord) {
	t.Helper()
	if len(forked) != len(perPoint) {
		t.Fatalf("forked path replayed %d points, per-point path %d", len(forked), len(perPoint))
	}
	for i := range forked {
		f, p := forked[i], perPoint[i]
		if f.hookPos != p.hookPos {
			t.Errorf("interval %d: warmed core at stream position %d forked, %d per point",
				points[i].Index, f.hookPos, p.hookPos)
		}
		if f.stats != p.stats {
			t.Errorf("interval %d: stats differ\nforked:    %s\nper-point: %s",
				points[i].Index, f.stats, p.stats)
		}
		if fmt.Sprint(f.digests) != fmt.Sprint(p.digests) {
			t.Errorf("interval %d: commit digests differ", points[i].Index)
		}
	}
}

// Sizes for the exactness test: short windows keep the whole catalog
// under three configurations within a few seconds, while still placing
// points deep enough that each fork inherits a long fast-forward.
const (
	forkTestWarmup   = 4000
	forkTestMeasure  = 16000
	forkTestInterval = 1000
)

var forkTestSampling = runner.Sampling{IntervalUops: forkTestInterval, MaxK: DefaultMaxK, WarmupUops: forkTestInterval}

// plannedPoints profiles and clusters a job exactly as RunResult does.
func plannedPoints(t *testing.T, job runner.Job, sp runner.Sampling) []Point {
	t.Helper()
	p, err := ProfileGenerator(context.Background(), newGen(job), job.Spec.Name, job.WarmupUops, job.MeasureUops, sp.IntervalUops)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := BuildPlan(p, sp.MaxK, job.Spec.Seed^PlanSeedSalt)
	if err != nil {
		t.Fatal(err)
	}
	return plan.Points
}

// TestForkedReplayMatchesPerPoint is the exactness gate of one-pass
// sampled replay: every point's statistics from forking one
// fast-forwarded core must equal, byte for byte, those of a fresh core
// fast-forwarded from uop 0 to the same point. It covers the whole
// catalog under the baseline, RFP+CLP with the managed L1 prefetcher,
// and EVES; the path-based predictors (the RFP context predictor and
// DLVP); a bytes-backed trace; a run with runtime checks and commit
// digests; and points at the very start of the stream.
func TestForkedReplayMatchesPerPoint(t *testing.T) {
	pathBased := config.Baseline().WithRFP().WithVP(config.VPComposite)
	pathBased.RFP.UseContext = true
	pathBased.Name += "+ctx"
	configs := []config.Core{
		config.Baseline(),
		config.Baseline().WithCLP().WithPrefetcher("managed"),
		config.Baseline().WithVP(config.VPEVES),
	}

	run := func(label string, job runner.Job, points []Point, digest bool) {
		t.Run(label, func(t *testing.T) {
			t.Parallel()
			if points == nil {
				points = plannedPoints(t, job, forkTestSampling)
			}
			forked, perPoint := replayBoth(t, job, forkTestSampling, points, digest)
			comparePoints(t, points, forked, perPoint)
		})
	}
	job := func(cfg config.Core, spec trace.Spec) runner.Job {
		return runner.Job{Config: cfg, Spec: spec, WarmupUops: forkTestWarmup, MeasureUops: forkTestMeasure, Seeds: 1}
	}

	for _, spec := range trace.Catalog() {
		for _, cfg := range configs {
			run(spec.Name+"/"+cfg.Name, job(cfg, spec), nil, false)
		}
	}
	for _, name := range []string{"spec06_mcf", "spec06_gcc", "tpce", "spark"} {
		run(name+"/"+pathBased.Name, job(pathBased, mustSpec(t, name)), nil, false)
	}

	// A sampled trace: the generator is a tracefile.Reader decoding
	// in-memory bytes, cloned at every fork.
	raw := traceBytes(t, mustSpec(t, "spec06_omnetpp"), forkTestWarmup+forkTestMeasure+forkTestInterval)
	traced := job(config.Baseline().WithRFP(), trace.Spec{Name: "omnetpp.rfpt", Category: "trace-file"})
	traced.NewGen = func() isa.Generator {
		r, err := tracefile.NewReader(bytes.NewReader(raw), "omnetpp.rfpt")
		if err != nil {
			panic(err)
		}
		return r
	}
	run("trace", traced, nil, false)

	// Runtime checks on: the fork must carry the checker's functional
	// store shadow, which the commit digests and stale-data checks read.
	checked := config.Baseline().WithRFP().WithVP(config.VPEVES)
	checked.Checks.Enabled = true
	for _, name := range []string{"spec06_perlbench", "spec17_xalancbmk", "tpcc"} {
		run(name+"/checks", job(checked, mustSpec(t, name)), nil, true)
	}
	// Catalog kernels reload only recent stores, which the cycle-accurate
	// warmup re-executes; this trace reloads words last stored thousands
	// of uops earlier, inside the fast-forwarded prefix, so the digests
	// depend on the shadow the fork inherits.
	reload := storeReloadTrace(t, forkTestWarmup+forkTestMeasure+forkTestInterval)
	reloaded := job(checked, trace.Spec{Name: "store-reload", Category: "trace-file"})
	reloaded.NewGen = func() isa.Generator {
		r, err := tracefile.NewReader(bytes.NewReader(reload), "store-reload")
		if err != nil {
			panic(err)
		}
		return r
	}
	// The loop is uniform, so its plan is a single point; fork explicitly.
	run("store-reload/checks", reloaded, []Point{{Index: 7, Weight: 1}, {Index: 11, Weight: 1}, {Index: 15, Weight: 1}}, true)

	// Points at the stream start, with no job warmup: the first two
	// fast-forward targets are both 0, so the fork happens before any
	// fast-forward and two forks share a position.
	early := job(config.Baseline().WithCLP(), mustSpec(t, "spec06_gcc"))
	early.WarmupUops = 0
	run("early-points", early, []Point{{Index: 0, Weight: 1}, {Index: 1, Weight: 1}, {Index: 6, Weight: 1}}, false)
}

// traceBytes encodes the first n uops of a catalog workload as a trace.
func traceBytes(t *testing.T, spec trace.Spec, n int) []byte {
	t.Helper()
	var buf bytes.Buffer
	w := tracefile.NewWriter(&buf)
	g := spec.New()
	var op isa.MicroOp
	for i := 0; i < n; i++ {
		if !g.Next(&op) {
			t.Fatal("catalog workload ended")
		}
		if err := w.Write(&op); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// storeReloadTrace encodes an n-uop loop that stores to one word of a
// 4096-word ring and loads the word stored 2048 iterations (8192 uops)
// earlier. Load values in the trace differ from the stored ones, so the
// checker's program-order memory decides what the digest sees.
func storeReloadTrace(t *testing.T, n int) []byte {
	t.Helper()
	const base, ring = 0x100000, 4096
	var buf bytes.Buffer
	w := tracefile.NewWriter(&buf)
	for i := 0; i < n/4; i++ {
		body := [...]isa.MicroOp{
			{PC: 0x1000, Class: isa.OpStore, Dst: isa.NoReg, Src1: 1, Src2: 2,
				Addr: base + 8*uint64(i%ring), Size: 8, Value: uint64(i) + 1},
			{PC: 0x1004, Class: isa.OpLoad, Dst: 3, Src1: 1, Src2: isa.NoReg,
				Addr: base + 8*uint64((i+ring/2)%ring), Size: 8, Value: 0xD00D},
			{PC: 0x1008, Class: isa.OpALU, Dst: 1, Src1: 1, Src2: isa.NoReg},
			{PC: 0x100c, Class: isa.OpBranch, Dst: isa.NoReg, Src1: 1, Src2: isa.NoReg, Taken: true, Target: 0x1000},
		}
		for j := range body {
			if err := w.Write(&body[j]); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// unforkableGen is a generator without Clone, standing in for a trace
// streamed from a file or a pipe.
type unforkableGen struct{ isa.Generator }

// TestValidateRejectsUnforkableNewGen: sampling a NewGen whose generators
// cannot be cloned fails validation up front with an error that says
// why, and RunResult refuses it before profiling.
func TestValidateRejectsUnforkableNewGen(t *testing.T) {
	spec := mustSpec(t, "spec06_gcc")
	job := runner.Job{
		Config:      config.Baseline(),
		Spec:        spec,
		NewGen:      func() isa.Generator { return unforkableGen{spec.New()} },
		WarmupUops:  2000,
		MeasureUops: 10000,
		Seeds:       1,
		Sampling:    &runner.Sampling{},
	}
	err := Validate(job)
	if err == nil || !strings.Contains(err.Error(), "forkable") {
		t.Fatalf("Validate(unforkable NewGen) = %v, want an error naming a forkable source", err)
	}
	if _, err := RunResult(context.Background(), job); err == nil || !strings.Contains(err.Error(), "forkable") {
		t.Fatalf("RunResult(unforkable NewGen) = %v", err)
	}
	full := job
	full.Sampling = nil
	if err := Validate(full); err != nil {
		t.Fatalf("a full-window job needs no forkable source: %v", err)
	}
	forkable := job
	forkable.NewGen = spec.New
	if err := Validate(forkable); err != nil {
		t.Fatalf("a catalog NewGen is forkable: %v", err)
	}
}
