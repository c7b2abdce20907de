package sweep

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"math"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"rfpsim/internal/service"
)

// recordingBackend wraps a backend and records which unit keys it ran.
type recordingBackend struct {
	inner Backend
	mu    sync.Mutex
	ran   map[string]int
}

func (r *recordingBackend) Name() string { return r.inner.Name() }
func (r *recordingBackend) Run(ctx context.Context, u Unit) (*service.SimResponse, error) {
	r.mu.Lock()
	if r.ran == nil {
		r.ran = map[string]int{}
	}
	r.ran[u.Key]++
	r.mu.Unlock()
	return r.inner.Run(ctx, u)
}

func runToCSV(t *testing.T, sum *Summary) []byte {
	t.Helper()
	var b bytes.Buffer
	if err := sum.WriteCSV(&b); err != nil {
		t.Fatal(err)
	}
	return b.Bytes()
}

// TestCrashResumeJournal is the crash-tolerance contract: a journal with a
// truncated final line and a duplicated unit replays to exactly the units
// it fully recorded, -resume re-runs exactly the missing ones, and the
// aggregate CSV matches a from-scratch run byte for byte.
func TestCrashResumeJournal(t *testing.T) {
	spec, err := ParseSpec([]byte(`{
		"name": "crash", "workloads": ["spec06_mcf", "spec06_hmmer"],
		"base": {"rfp": true},
		"axes": [{"knob": "pt_entries", "values": [256, 512, 1024]}],
		"warmup_uops": 2000, "measure_uops": 4000
	}`))
	if err != nil {
		t.Fatal(err)
	}
	units, err := spec.Expand()
	if err != nil {
		t.Fatal(err)
	}
	if len(units) != 6 {
		t.Fatalf("grid is %d units, want 6", len(units))
	}

	// From-scratch reference run (no checkpoint at all).
	ref, err := Run(context.Background(), units, LocalBackend{}, Options{Parallel: 2}, nil)
	if err != nil {
		t.Fatal(err)
	}
	wantCSV := runToCSV(t, ref)

	// Doctor a journal: units 0..2 recorded, unit 1 duplicated, unit 3's
	// line truncated mid-record (the kill -9 case).
	dir := t.TempDir()
	ckpt := filepath.Join(dir, "sweep.ckpt")
	var buf bytes.Buffer
	writeLine := func(u Unit) []byte {
		line, err := json.Marshal(checkpointEntry{Key: u.Key, Label: u.Label, Resp: ref.Results[u.Key]})
		if err != nil {
			t.Fatal(err)
		}
		return append(line, '\n')
	}
	for _, i := range []int{0, 1, 2, 1} {
		buf.Write(writeLine(units[i]))
	}
	torn := writeLine(units[3])
	buf.Write(torn[:len(torn)/2])
	if err := os.WriteFile(ckpt, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}

	st, err := LoadCheckpoint(ckpt)
	if err != nil {
		t.Fatal(err)
	}
	if st.Entries != 4 || st.Duplicates != 1 || !st.TruncatedTail || len(st.Results) != 3 {
		t.Fatalf("checkpoint state = entries %d, dups %d, truncated %t, results %d; want 4/1/true/3",
			st.Entries, st.Duplicates, st.TruncatedTail, len(st.Results))
	}

	// Resume must re-run exactly units 3, 4, 5 — once each.
	rec := &recordingBackend{inner: LocalBackend{}}
	m := &Metrics{}
	sum, err := Run(context.Background(), units, rec, Options{
		Parallel: 2, CheckpointPath: ckpt, Resume: true,
	}, m)
	if err != nil {
		t.Fatal(err)
	}
	if !sum.Complete() || sum.Skipped != 3 {
		t.Fatalf("resume: complete %t, skipped %d; want true/3", sum.Complete(), sum.Skipped)
	}
	wantRan := map[string]int{units[3].Key: 1, units[4].Key: 1, units[5].Key: 1}
	rec.mu.Lock()
	for k, n := range rec.ran {
		if wantRan[k] != n {
			t.Errorf("unit %s ran %d times, want %d", k[:12], n, wantRan[k])
		}
	}
	for k := range wantRan {
		if rec.ran[k] == 0 {
			t.Errorf("missing unit %s was not re-run", k[:12])
		}
	}
	rec.mu.Unlock()
	if m.Done() != 3 || m.Skipped() != 3 {
		t.Errorf("metrics done=%d skipped=%d, want 3/3", m.Done(), m.Skipped())
	}

	if got := runToCSV(t, sum); !bytes.Equal(got, wantCSV) {
		t.Errorf("resumed CSV differs from from-scratch CSV:\n--- resumed\n%s\n--- scratch\n%s", got, wantCSV)
	}

	// A second resume is a no-op: everything satisfied by the checkpoint.
	rec2 := &recordingBackend{inner: LocalBackend{}}
	sum2, err := Run(context.Background(), units, rec2, Options{
		Parallel: 2, CheckpointPath: ckpt, Resume: true,
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(rec2.ran) != 0 || sum2.Skipped != 6 {
		t.Errorf("second resume ran %d units (skipped %d), want 0 (6)", len(rec2.ran), sum2.Skipped)
	}
	if got := runToCSV(t, sum2); !bytes.Equal(got, wantCSV) {
		t.Error("no-op resume CSV differs")
	}
}

// TestInteriorCorruptionFailsLoudly: a mangled line that is NOT the tail
// is real corruption, not a crash artifact, and must not be skipped.
func TestInteriorCorruptionFailsLoudly(t *testing.T) {
	units := testUnits(t)
	ckpt := filepath.Join(t.TempDir(), "bad.ckpt")
	good, err := json.Marshal(checkpointEntry{Key: units[0].Key, Label: units[0].Label, Resp: &service.SimResponse{}})
	if err != nil {
		t.Fatal(err)
	}
	content := append([]byte("{\"key\": \"mangl"), '\n')
	content = append(content, good...)
	content = append(content, '\n')
	if err := os.WriteFile(ckpt, content, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadCheckpoint(ckpt); err == nil {
		t.Fatal("interior corruption loaded without error")
	}
}

// nanBackend answers every unit with an IPC the checkpoint journal cannot
// encode (json.Marshal rejects NaN), and counts its calls.
type nanBackend struct{ calls atomic.Int32 }

func (b *nanBackend) Name() string { return "nan" }
func (b *nanBackend) Run(context.Context, Unit) (*service.SimResponse, error) {
	b.calls.Add(1)
	return &service.SimResponse{IPC: math.NaN()}, nil
}

// TestJournalFailureStopsDispatch: once a checkpoint write fails, the
// sweep dispatches nothing more — at most the units already in flight
// finish — and the error wraps the journal error and names the unit.
func TestJournalFailureStopsDispatch(t *testing.T) {
	units := testUnits(t)
	for _, parallel := range []int{1, 3} {
		be := &nanBackend{}
		ckpt := filepath.Join(t.TempDir(), "nan.ckpt")
		_, err := Run(context.Background(), units, be, Options{Parallel: parallel, CheckpointPath: ckpt}, nil)
		if err == nil {
			t.Fatalf("parallel %d: sweep with an unencodable result succeeded", parallel)
		}
		if n := int(be.calls.Load()); n > 1+parallel {
			t.Errorf("parallel %d: backend ran %d of %d units after the journal failed, want at most %d",
				parallel, n, len(units), 1+parallel)
		}
		var uve *json.UnsupportedValueError
		if !errors.As(err, &uve) {
			t.Errorf("parallel %d: error %v does not wrap the journal's json error", parallel, err)
		}
		named := false
		for _, u := range units[:1+parallel] {
			named = named || strings.Contains(err.Error(), u.Label)
		}
		if !named {
			t.Errorf("parallel %d: error %q names no dispatched unit", parallel, err)
		}
	}
}

// TestSweepAcceptance is the tentpole's end-to-end scenario: a 24-unit
// sweep against two live rfpsimd instances, one of which rejects with 429
// backpressure for part of the run; the orchestrator is killed roughly
// halfway and resumed; the final CSV is byte-identical to the same sweep
// run locally in one uninterrupted shot.
func TestSweepAcceptance(t *testing.T) {
	units := testUnits(t)
	if len(units) < 24 {
		t.Fatalf("acceptance sweep needs >= 24 units, have %d", len(units))
	}

	// Reference: the whole grid in one local shot, no checkpoint.
	ref, err := Run(context.Background(), units, LocalBackend{}, Options{Parallel: 4}, nil)
	if err != nil {
		t.Fatal(err)
	}
	wantCSV := runToCSV(t, ref)

	// Two real daemons; B's first 6 sim POSTs are rejected with 429.
	svcA, err := service.New(service.Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer svcA.Close()
	svcB, err := service.New(service.Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer svcB.Close()
	tsA := httptest.NewServer(svcA.Handler())
	defer tsA.Close()
	flaky, rejects := flakyHandler(svcB.Handler(), 6)
	tsB := httptest.NewServer(flaky)
	defer tsB.Close()

	ckpt := filepath.Join(t.TempDir(), "accept.ckpt")
	newBackend := func(m *Metrics) Backend {
		be, err := NewHTTPBackend([]string{tsA.URL, tsB.URL}, HTTPBackendOptions{
			Metrics: m, BaseBackoff: time.Millisecond, MaxBackoff: 20 * time.Millisecond,
		})
		if err != nil {
			t.Fatal(err)
		}
		return be
	}

	// Phase 1: kill the orchestrator once roughly half the grid is done.
	m1 := &Metrics{}
	ctx, cancel := context.WithCancel(context.Background())
	killer := make(chan struct{})
	go func() {
		defer close(killer)
		for m1.Done() < uint64(len(units))/2 {
			time.Sleep(time.Millisecond)
		}
		cancel()
	}()
	_, err = Run(ctx, units, newBackend(m1), Options{Parallel: 4, CheckpointPath: ckpt}, m1)
	<-killer
	if err == nil {
		t.Fatal("killed run reported success; cancel came too late to matter")
	}

	st, err := LoadCheckpoint(ckpt)
	if err != nil {
		t.Fatal(err)
	}
	if len(st.Results) == 0 || len(st.Results) >= len(units) {
		t.Fatalf("after the kill the journal has %d/%d units; want a partial sweep", len(st.Results), len(units))
	}
	t.Logf("killed after %d/%d units journalled, %d retries, %d rejects consumed",
		len(st.Results), len(units), m1.Retried(), rejects.Load())

	// Phase 2: resume against the same fleet; only missing units run.
	m2 := &Metrics{}
	rec := &recordingBackend{inner: newBackend(m2)}
	sum, err := Run(context.Background(), units, rec, Options{
		Parallel: 4, CheckpointPath: ckpt, Resume: true,
	}, m2)
	if err != nil {
		t.Fatal(err)
	}
	if !sum.Complete() {
		t.Fatalf("resumed sweep incomplete: %d/%d", len(sum.Results), len(units))
	}
	if sum.Skipped != len(st.Results) {
		t.Errorf("resume skipped %d units, journal held %d", sum.Skipped, len(st.Results))
	}
	for k, n := range rec.ran {
		if n != 1 {
			t.Errorf("unit %s ran %d times on resume", k[:12], n)
		}
		if _, done := st.Results[k]; done {
			t.Errorf("unit %s was journalled but re-run", k[:12])
		}
	}
	if got := int(m2.Done()) + sum.Skipped; got != len(units) {
		t.Errorf("done %d + skipped %d != %d units", m2.Done(), sum.Skipped, len(units))
	}

	// The backpressured, killed, resumed, fleet-executed sweep must emit
	// exactly the bytes of the one-shot local run.
	if got := runToCSV(t, sum); !bytes.Equal(got, wantCSV) {
		t.Errorf("distributed+resumed CSV differs from one-shot local CSV:\n--- distributed\n%s\n--- local\n%s", got, wantCSV)
	}
	if rejects.Load() < 6 {
		t.Errorf("flaky endpoint consumed only %d rejects; 429 path not exercised", rejects.Load())
	}
}
