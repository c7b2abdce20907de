package obs

import (
	"context"
	"fmt"
	"runtime/pprof"
	"strconv"
	"strings"
	"sync/atomic"
	"time"
)

// Stage names of the per-job timing breakdown. They mirror the phases of
// one simulation job end to end: the sampling profile/cluster pass
// (sampled jobs only), core set-up with footprint warming and the
// functional fast-forward, the cycle-accurate warmup, the measured window,
// and statistics aggregation/scaling.
const (
	StageProfile     = "profile"
	StageFastForward = "fastforward"
	StageWarmup      = "warmup"
	StageMeasure     = "measure"
	StageAggregate   = "aggregate"
)

// Stages lists the stage names in canonical (pipeline) order — the order
// every serialization uses.
func Stages() []string {
	return []string{StageProfile, StageFastForward, StageWarmup, StageMeasure, StageAggregate}
}

// Timings accumulates wall-clock time per simulation stage. A collector
// is attached to a context with WithTimings at a job boundary (the
// rfpsimd worker, the sweep orchestrator, rfpsim -v) and filled in by
// internal/runner and internal/sample as they execute; a sampled job's
// many replay sub-runs all add into the same collector. All methods are
// safe for concurrent use.
//
// Timings are observability, never results: they ride on response
// headers (service.TimingsHeader) and side-channel CSVs, and must stay
// out of any byte-pinned body — simulation results are deterministic,
// wall time is not.
type Timings struct {
	profile     atomic.Int64 // nanoseconds per stage
	fastForward atomic.Int64
	warmup      atomic.Int64
	measure     atomic.Int64
	aggregate   atomic.Int64
}

// WithTimings attaches a fresh collector to the context and returns it.
func WithTimings(ctx context.Context) (context.Context, *Timings) {
	t := &Timings{}
	return context.WithValue(ctx, ctxKeyTimings, t), t
}

// ContextTimings returns the context's collector, or nil when the caller
// did not ask for a breakdown (the common batch path: zero overhead
// beyond a context lookup per stage).
func ContextTimings(ctx context.Context) *Timings {
	t, _ := ctx.Value(ctxKeyTimings).(*Timings)
	return t
}

// Stage is one open window of a job stage. BeginStage opens it and End
// bills its wall time to the context's timings collector; a stage that
// fails is left open and so not billed. When the context carries a run
// ID, the window also carries the pprof label stage=<name> on top of the
// job's labels (LabelJob), so a CPU profile splits by stage.
type Stage struct {
	tim   *Timings
	name  string
	begin time.Time
	job   context.Context // the labels End restores; nil without a run ID
}

// BeginStage opens the named stage. Without a run ID it sets no label
// and allocates nothing.
func BeginStage(ctx context.Context, name string) Stage {
	s := Stage{tim: ContextTimings(ctx), name: name}
	if RunID(ctx) != "" {
		s.job = ctx
		pprof.SetGoroutineLabels(pprof.WithLabels(ctx, pprof.Labels("stage", name)))
	}
	s.begin = time.Now()
	return s
}

// End closes the stage: it bills the stage and gives the goroutine back
// the labels of the context BeginStage was given.
func (s Stage) End() {
	if s.tim != nil {
		s.tim.Observe(s.name, time.Since(s.begin))
	}
	if s.job != nil {
		pprof.SetGoroutineLabels(s.job)
	}
}

func (t *Timings) cell(stage string) *atomic.Int64 {
	switch stage {
	case StageProfile:
		return &t.profile
	case StageFastForward:
		return &t.fastForward
	case StageWarmup:
		return &t.warmup
	case StageMeasure:
		return &t.measure
	case StageAggregate:
		return &t.aggregate
	}
	return nil
}

// Observe adds d to the named stage. Unknown stages are dropped rather
// than panicking: a timing is telemetry, not a result.
func (t *Timings) Observe(stage string, d time.Duration) {
	if c := t.cell(stage); c != nil {
		c.Add(int64(d))
	}
}

// Stage returns the accumulated time of one stage.
func (t *Timings) Stage(stage string) time.Duration {
	if c := t.cell(stage); c != nil {
		return time.Duration(c.Load())
	}
	return 0
}

// Total returns the sum over all stages.
func (t *Timings) Total() time.Duration {
	var sum time.Duration
	for _, s := range Stages() {
		sum += t.Stage(s)
	}
	return sum
}

// Merge adds o's stage totals into t (used when a remote backend returns
// a breakdown in a response header).
func (t *Timings) Merge(o *Timings) {
	for _, s := range Stages() {
		t.Observe(s, o.Stage(s))
	}
}

// String renders the wire form: `stage=seconds` pairs in canonical order,
// semicolon-separated, seconds as plain ASCII decimals — safe to put in
// an HTTP header and parseable by ParseTimings.
func (t *Timings) String() string {
	var b strings.Builder
	for i, s := range Stages() {
		if i > 0 {
			b.WriteByte(';')
		}
		b.WriteString(s)
		b.WriteByte('=')
		b.WriteString(strconv.FormatFloat(t.Stage(s).Seconds(), 'f', -1, 64))
	}
	return b.String()
}

// Pretty renders a human-readable breakdown for CLI -v output, e.g.
// "profile 12ms, fastforward 0s, warmup 4ms, measure 103ms, aggregate 8µs
// (total 119ms)".
func (t *Timings) Pretty() string {
	var b strings.Builder
	for i, s := range Stages() {
		if i > 0 {
			b.WriteString(", ")
		}
		fmt.Fprintf(&b, "%s %s", s, t.Stage(s).Round(time.Microsecond))
	}
	fmt.Fprintf(&b, " (total %s)", t.Total().Round(time.Microsecond))
	return b.String()
}

// ParseTimings parses the wire form String produces. Unknown stages are
// an error so a format drift between fleet versions fails loudly at the
// parse site instead of silently zeroing a stage.
func ParseTimings(s string) (*Timings, error) {
	t := &Timings{}
	if s == "" {
		return nil, fmt.Errorf("obs: empty timings string")
	}
	for _, part := range strings.Split(s, ";") {
		stage, val, ok := strings.Cut(part, "=")
		if !ok {
			return nil, fmt.Errorf("obs: bad timings segment %q", part)
		}
		secs, err := strconv.ParseFloat(val, 64)
		if err != nil || secs < 0 {
			return nil, fmt.Errorf("obs: bad timings value %q", part)
		}
		if t.cell(stage) == nil {
			return nil, fmt.Errorf("obs: unknown timings stage %q", stage)
		}
		t.Observe(stage, time.Duration(secs*float64(time.Second)))
	}
	return t, nil
}
