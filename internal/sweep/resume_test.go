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

	"rfpsim/internal/fabric"
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

// openCache opens a sweep result cache over dir with the default cap.
func openCache(t *testing.T, dir string) *fabric.DiskCache {
	t.Helper()
	c, err := fabric.OpenDiskCache(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// cachedKeys returns the keys of units the cache over dir holds.
func cachedKeys(t *testing.T, dir string, units []Unit) map[string]bool {
	t.Helper()
	c := openCache(t, dir)
	held := map[string]bool{}
	for _, u := range units {
		if _, ok := c.Get(u.Key); ok {
			held[u.Key] = true
		}
	}
	return held
}

// TestResumeFromCache is the crash-tolerance contract: a cache left by a
// killed sweep — some units stored, one entry rotted, a temp file from a
// write cut short — serves exactly the intact entries, a rerun over it
// runs exactly the missing units, and the aggregate CSV matches a
// from-scratch run byte for byte.
func TestResumeFromCache(t *testing.T) {
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

	// From-scratch reference run (no cache at all).
	ref, err := Run(context.Background(), units, LocalBackend{}, Options{Parallel: 2}, nil)
	if err != nil {
		t.Fatal(err)
	}
	wantCSV := runToCSV(t, ref)

	// Units 0..2 cached; unit 2's entry then loses its second half, and
	// a write of unit 3 was cut short before its rename.
	dir := t.TempDir()
	if _, err := Run(context.Background(), units[:3], LocalBackend{}, Options{Parallel: 2, Cache: openCache(t, dir)}, nil); err != nil {
		t.Fatal(err)
	}
	rotted := filepath.Join(dir, units[2].Key[:2], units[2].Key)
	raw, err := os.ReadFile(rotted)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(rotted, raw[:len(raw)/2], 0o644); err != nil {
		t.Fatal(err)
	}
	shard := filepath.Join(dir, units[3].Key[:2])
	if err := os.MkdirAll(shard, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(shard, "tmp-1"), []byte("rfpfab1 999 "), 0o644); err != nil {
		t.Fatal(err)
	}

	// The rerun must run exactly units 2..5, once each.
	rec := &recordingBackend{inner: LocalBackend{}}
	m := &Metrics{}
	sum, err := Run(context.Background(), units, rec, Options{Parallel: 2, Cache: openCache(t, dir)}, m)
	if err != nil {
		t.Fatal(err)
	}
	if !sum.Complete() || sum.Skipped != 2 {
		t.Fatalf("resume: complete %t, skipped %d; want true/2", sum.Complete(), sum.Skipped)
	}
	wantRan := map[string]int{units[2].Key: 1, units[3].Key: 1, units[4].Key: 1, units[5].Key: 1}
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
	if m.Done() != 4 || m.Skipped() != 2 {
		t.Errorf("metrics done=%d skipped=%d, want 4/2", m.Done(), m.Skipped())
	}

	if got := runToCSV(t, sum); !bytes.Equal(got, wantCSV) {
		t.Errorf("resumed CSV differs from from-scratch CSV:\n--- resumed\n%s\n--- scratch\n%s", got, wantCSV)
	}

	// A second rerun is a no-op: everything served from the cache.
	rec2 := &recordingBackend{inner: LocalBackend{}}
	sum2, err := Run(context.Background(), units, rec2, Options{Parallel: 2, Cache: openCache(t, dir)}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(rec2.ran) != 0 || sum2.Skipped != 6 {
		t.Errorf("second rerun ran %d units (skipped %d), want 0 (6)", len(rec2.ran), sum2.Skipped)
	}
	if got := runToCSV(t, sum2); !bytes.Equal(got, wantCSV) {
		t.Error("no-op rerun CSV differs")
	}
}

// TestUndecodableCachedResultFailsLoudly: an intact cache entry whose body
// is not a SimResponse is not a result, and must neither be skipped over
// nor silently re-run: the sweep fails before dispatching anything and
// names the unit.
func TestUndecodableCachedResultFailsLoudly(t *testing.T) {
	units := testUnits(t)
	c := openCache(t, t.TempDir())
	if err := c.Put(units[1].Key, []byte("{\"cycles\": \"mangl\n")); err != nil {
		t.Fatal(err)
	}
	rec := &recordingBackend{inner: LocalBackend{}}
	_, err := Run(context.Background(), units, rec, Options{Parallel: 2, Cache: c}, nil)
	if err == nil || !strings.Contains(err.Error(), units[1].Label) {
		t.Fatalf("err = %v, want one naming %s", err, units[1].Label)
	}
	if len(rec.ran) != 0 {
		t.Errorf("backend ran %d units despite the undecodable entry", len(rec.ran))
	}
}

// nanBackend answers every unit with an IPC the cache cannot store
// (json.Marshal rejects NaN), and counts its calls.
type nanBackend struct{ calls atomic.Int32 }

func (b *nanBackend) Name() string { return "nan" }
func (b *nanBackend) Run(context.Context, Unit) (*service.SimResponse, error) {
	b.calls.Add(1)
	return &service.SimResponse{IPC: math.NaN()}, nil
}

// TestCacheWriteFailureStopsDispatch: once a cache write fails, the sweep
// dispatches nothing more — at most the units already in flight finish —
// and the error wraps the write's error and names the unit.
func TestCacheWriteFailureStopsDispatch(t *testing.T) {
	units := testUnits(t)
	for _, parallel := range []int{1, 3} {
		be := &nanBackend{}
		_, err := Run(context.Background(), units, be, Options{Parallel: parallel, Cache: openCache(t, t.TempDir())}, nil)
		if err == nil {
			t.Fatalf("parallel %d: sweep with an unencodable result succeeded", parallel)
		}
		if n := int(be.calls.Load()); n > 1+parallel {
			t.Errorf("parallel %d: backend ran %d of %d units after the cache write failed, want at most %d",
				parallel, n, len(units), 1+parallel)
		}
		var uve *json.UnsupportedValueError
		if !errors.As(err, &uve) {
			t.Errorf("parallel %d: error %v does not wrap the json error", parallel, err)
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
// halfway and rerun over the same cache; the final CSV is byte-identical
// to the same sweep run locally in one uninterrupted shot.
func TestSweepAcceptance(t *testing.T) {
	units := testUnits(t)
	if len(units) < 24 {
		t.Fatalf("acceptance sweep needs >= 24 units, have %d", len(units))
	}

	// Reference: the whole grid in one local shot, no cache.
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

	dir := t.TempDir()
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
	_, err = Run(ctx, units, newBackend(m1), Options{Parallel: 4, Cache: openCache(t, dir)}, m1)
	<-killer
	if err == nil {
		t.Fatal("killed run reported success; cancel came too late to matter")
	}

	cached := cachedKeys(t, dir, units)
	if len(cached) == 0 || len(cached) >= len(units) {
		t.Fatalf("after the kill the cache has %d/%d units; want a partial sweep", len(cached), len(units))
	}
	t.Logf("killed after %d/%d units cached, %d retries, %d rejects consumed",
		len(cached), len(units), m1.Retried(), rejects.Load())

	// Phase 2: rerun against the same fleet; only missing units run.
	m2 := &Metrics{}
	rec := &recordingBackend{inner: newBackend(m2)}
	sum, err := Run(context.Background(), units, rec, Options{Parallel: 4, Cache: openCache(t, dir)}, m2)
	if err != nil {
		t.Fatal(err)
	}
	if !sum.Complete() {
		t.Fatalf("resumed sweep incomplete: %d/%d", len(sum.Results), len(units))
	}
	if sum.Skipped != len(cached) {
		t.Errorf("rerun skipped %d units, cache held %d", sum.Skipped, len(cached))
	}
	for k, n := range rec.ran {
		if n != 1 {
			t.Errorf("unit %s ran %d times on the rerun", k[:12], n)
		}
		if cached[k] {
			t.Errorf("unit %s was cached but re-run", k[:12])
		}
	}
	if got := int(m2.Done()) + sum.Skipped; got != len(units) {
		t.Errorf("done %d + skipped %d != %d units", m2.Done(), sum.Skipped, len(units))
	}

	// The backpressured, killed, rerun, fleet-executed sweep must emit
	// exactly the bytes of the one-shot local run.
	if got := runToCSV(t, sum); !bytes.Equal(got, wantCSV) {
		t.Errorf("distributed+resumed CSV differs from one-shot local CSV:\n--- distributed\n%s\n--- local\n%s", got, wantCSV)
	}
	if rejects.Load() < 6 {
		t.Errorf("flaky endpoint consumed only %d rejects; 429 path not exercised", rejects.Load())
	}
}
