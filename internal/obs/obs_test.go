package obs

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"log/slog"
	"maps"
	"runtime/pprof"
	"strings"
	"testing"
	"time"
)

// TestRunIDFormat: run IDs are 16 lowercase hex chars, unique enough that
// a small batch never collides, and accepted by ValidRunID.
func TestRunIDFormat(t *testing.T) {
	seen := map[string]bool{}
	for i := 0; i < 1000; i++ {
		id := NewRunID()
		if len(id) != 16 {
			t.Fatalf("run ID %q has length %d, want 16", id, len(id))
		}
		if !ValidRunID(id) {
			t.Fatalf("NewRunID produced an invalid ID %q", id)
		}
		if seen[id] {
			t.Fatalf("run ID %q repeated within 1000 draws", id)
		}
		seen[id] = true
	}
}

func TestValidRunID(t *testing.T) {
	for _, ok := range []string{"a", "deadbeef00112233", "A-Z_09"} {
		if !ValidRunID(ok) {
			t.Errorf("ValidRunID(%q) = false, want true", ok)
		}
	}
	for _, bad := range []string{"", strings.Repeat("a", 65), "has space", "new\nline", `quo"te`} {
		if ValidRunID(bad) {
			t.Errorf("ValidRunID(%q) = true, want false", bad)
		}
	}
}

// TestLoggerCarriesRunID: Logger picks up both the context logger and the
// context run ID, so downstream layers log correlated lines without
// explicit plumbing.
func TestLoggerCarriesRunID(t *testing.T) {
	var buf bytes.Buffer
	l := slog.New(slog.NewTextHandler(&buf, nil))
	ctx := WithLogger(context.Background(), l)
	ctx = WithRunID(ctx, "cafe0123")
	Logger(ctx).Info("hello", "k", "v")
	line := buf.String()
	if !strings.Contains(line, "run_id=cafe0123") || !strings.Contains(line, "k=v") {
		t.Errorf("log line missing run_id or attrs: %q", line)
	}
	if got := RunID(context.Background()); got != "" {
		t.Errorf("RunID of a bare context = %q, want empty", got)
	}
}

func TestNewLoggerValidation(t *testing.T) {
	if _, err := NewLogger(&bytes.Buffer{}, "xml", "info"); err == nil {
		t.Error("bad format accepted")
	}
	if _, err := NewLogger(&bytes.Buffer{}, "json", "chatty"); err == nil {
		t.Error("bad level accepted")
	}
	var buf bytes.Buffer
	l, err := NewLogger(&buf, "json", "debug")
	if err != nil {
		t.Fatal(err)
	}
	l.Debug("x")
	if !strings.Contains(buf.String(), `"msg":"x"`) {
		t.Errorf("json logger output: %q", buf.String())
	}
}

// TestTimingsRoundTrip: the wire form survives String -> ParseTimings and
// Merge adds stage-wise.
func TestTimingsRoundTrip(t *testing.T) {
	tm := &Timings{}
	tm.Observe(StageWarmup, 1500*time.Millisecond)
	tm.Observe(StageMeasure, 2*time.Second)
	tm.Observe(StageMeasure, time.Second) // accumulates
	tm.Observe("bogus", time.Hour)        // dropped, not panicking

	if got := tm.Stage(StageMeasure); got != 3*time.Second {
		t.Errorf("measure = %s, want 3s", got)
	}
	if got := tm.Total(); got != 4500*time.Millisecond {
		t.Errorf("total = %s, want 4.5s", got)
	}

	parsed, err := ParseTimings(tm.String())
	if err != nil {
		t.Fatalf("ParseTimings(%q): %v", tm.String(), err)
	}
	for _, s := range Stages() {
		if parsed.Stage(s) != tm.Stage(s) {
			t.Errorf("stage %s: parsed %s, want %s", s, parsed.Stage(s), tm.Stage(s))
		}
	}

	other := &Timings{}
	other.Observe(StageWarmup, 500*time.Millisecond)
	tm.Merge(other)
	if got := tm.Stage(StageWarmup); got != 2*time.Second {
		t.Errorf("merged warmup = %s, want 2s", got)
	}
	if !strings.Contains(tm.Pretty(), "total") {
		t.Errorf("Pretty missing total: %q", tm.Pretty())
	}
}

func TestParseTimingsRejectsGarbage(t *testing.T) {
	for _, bad := range []string{"", "warmup", "warmup=-1", "warmup=abc", "unknown=1"} {
		if _, err := ParseTimings(bad); err == nil {
			t.Errorf("ParseTimings(%q) accepted", bad)
		}
	}
}

// TestContextTimings: WithTimings attaches a collector that downstream
// stages fill; a bare context yields nil (the zero-overhead batch path).
func TestContextTimings(t *testing.T) {
	if ContextTimings(context.Background()) != nil {
		t.Fatal("bare context has timings")
	}
	ctx, tm := WithTimings(context.Background())
	ContextTimings(ctx).Observe(StageAggregate, time.Millisecond)
	if got := tm.Stage(StageAggregate); got != time.Millisecond {
		t.Errorf("aggregate = %s, want 1ms", got)
	}
}

// TestHistogramExposition pins the cumulative-bucket rendering.
func TestHistogramExposition(t *testing.T) {
	h := NewHistogram("x_seconds", "Help text.", 0.1, 1, 10)
	h.Observe(0.05)
	h.Observe(0.5)
	h.Observe(0.7)
	h.Observe(99)
	var buf bytes.Buffer
	h.WritePrometheus(&buf)
	want := `# HELP x_seconds Help text.
# TYPE x_seconds histogram
x_seconds_bucket{le="0.1"} 1
x_seconds_bucket{le="1"} 3
x_seconds_bucket{le="10"} 3
x_seconds_bucket{le="+Inf"} 4
x_seconds_sum 100.25
x_seconds_count 4
`
	if buf.String() != want {
		t.Errorf("exposition:\n%s\nwant:\n%s", buf.String(), want)
	}
}

// TestRegistryOrder: collectors render in registration order, the
// property the /metrics golden tests rely on.
func TestRegistryOrder(t *testing.T) {
	r := NewRegistry()
	r.Register(CollectorFunc(func(w io.Writer) { w.Write([]byte("first\n")) }))
	r.Register(CollectorFunc(func(w io.Writer) { w.Write([]byte("second\n")) }))
	var buf bytes.Buffer
	r.WritePrometheus(&buf)
	if buf.String() != "first\nsecond\n" {
		t.Errorf("registry output %q", buf.String())
	}
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

// TestStageLabels: under a run ID a stage window carries stage=<name> on
// top of the job's labels, End bills it and gives the job's labels back,
// and RestoreLabels gives the caller's back.
func TestStageLabels(t *testing.T) {
	caller, tim := WithTimings(WithRunID(context.Background(), "r1"))
	job := LabelJob(caller, "spec06_mcf", "baseline")
	jobLabels := map[string]string{"run_id": "r1", "workload": "spec06_mcf", "config": "baseline"}
	if got := goroutineLabels(t); !maps.Equal(got, jobLabels) {
		t.Fatalf("after LabelJob: labels %v, want %v", got, jobLabels)
	}
	stage := BeginStage(job, StageWarmup)
	want := maps.Clone(jobLabels)
	want["stage"] = StageWarmup
	if got := goroutineLabels(t); !maps.Equal(got, want) {
		t.Fatalf("in the stage: labels %v, want %v", got, want)
	}
	stage.End()
	if got := goroutineLabels(t); !maps.Equal(got, jobLabels) {
		t.Fatalf("after End: labels %v, want %v", got, jobLabels)
	}
	if tim.Stage(StageWarmup) <= 0 {
		t.Error("End billed nothing to the warmup stage")
	}
	RestoreLabels(caller)
	if got := goroutineLabels(t); len(got) != 0 {
		t.Fatalf("after RestoreLabels: labels %v, want none", got)
	}
}

// TestStageWithoutRunIDIsFree: without a run ID a job and its stages set
// no labels and allocate nothing, with or without a timings collector.
func TestStageWithoutRunIDIsFree(t *testing.T) {
	timed, _ := WithTimings(context.Background())
	for _, ctx := range []context.Context{context.Background(), timed} {
		allocs := testing.AllocsPerRun(100, func() {
			job := LabelJob(ctx, "spec06_mcf", "baseline")
			stage := BeginStage(job, StageMeasure)
			stage.End()
			RestoreLabels(ctx)
		})
		if allocs != 0 {
			t.Errorf("a stage without a run ID allocates %v times", allocs)
		}
		job := LabelJob(ctx, "spec06_mcf", "baseline")
		stage := BeginStage(job, StageMeasure)
		if got := goroutineLabels(t); len(got) != 0 {
			t.Errorf("a stage without a run ID set labels %v", got)
		}
		stage.End()
	}
}
