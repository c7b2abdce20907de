package service

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"rfpsim/internal/fabric"
)

// postSimTenant is postSim with a tenant header.
func postSimTenant(t *testing.T, ts *httptest.Server, req SimRequest, tenant string) (*http.Response, []byte) {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	hreq, err := http.NewRequest(http.MethodPost, ts.URL+"/v1/sim", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	hreq.Header.Set("Content-Type", "application/json")
	hreq.Header.Set(TenantHeader, tenant)
	resp, err := http.DefaultClient.Do(hreq)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	out := new(bytes.Buffer)
	out.ReadFrom(resp.Body)
	return resp, out.Bytes()
}

// TestWarmStartFromDiskCache pins the persistence contract end to end: a
// result computed before a daemon restart is served from disk — with the
// disk tier header and a byte-identical body — by the next daemon over
// the same cache directory.
func TestWarmStartFromDiskCache(t *testing.T) {
	dir := t.TempDir()
	opts := Options{Workers: 2, Fabric: fabric.Options{Dir: dir}}

	svc1, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	ts1 := httptest.NewServer(svc1.Handler())
	resp1, body1 := postSim(t, ts1, quickReq())
	if resp1.StatusCode != http.StatusOK {
		t.Fatalf("first POST: %d %s", resp1.StatusCode, body1)
	}
	if got := resp1.Header.Get(CacheHeader); got != "miss" {
		t.Fatalf("first POST cache header = %q, want miss", got)
	}
	ts1.Close()
	svc1.Close() // flushes disk writes

	// "Restart": a fresh daemon (empty memory cache) over the same dir.
	_, ts2 := newTestServer(t, opts)
	resp2, body2 := postSim(t, ts2, quickReq())
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("warm-start POST: %d %s", resp2.StatusCode, body2)
	}
	if got := resp2.Header.Get(CacheHeader); got != "disk" {
		t.Errorf("warm-start cache header = %q, want disk", got)
	}
	if !bytes.Equal(body1, body2) {
		t.Errorf("warm-start body differs from computed body:\n%s\nvs\n%s", body1, body2)
	}
	// Promotion: the disk hit landed in memory, so the next is a memory hit.
	resp3, _ := postSim(t, ts2, quickReq())
	if got := resp3.Header.Get(CacheHeader); got != "hit" {
		t.Errorf("post-promotion cache header = %q, want hit", got)
	}
}

// TestCorruptDiskEntryResimulates pins the fabric safety property at the
// service layer: a corrupted persistent entry is never served — the
// daemon detects it, falls through to simulation, and the recomputed body
// matches the original bytes.
func TestCorruptDiskEntryResimulates(t *testing.T) {
	dir := t.TempDir()
	opts := Options{Workers: 2, Fabric: fabric.Options{Dir: dir}}

	svc1, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	ts1 := httptest.NewServer(svc1.Handler())
	_, body1 := postSim(t, ts1, quickReq())
	ts1.Close()
	svc1.Close()

	// Flip a byte in the single on-disk entry.
	var entryPath string
	filepath.Walk(dir, func(p string, info os.FileInfo, err error) error {
		if err == nil && info.Mode().IsRegular() {
			entryPath = p
		}
		return nil
	})
	if entryPath == "" {
		t.Fatal("no disk entry written")
	}
	raw, err := os.ReadFile(entryPath)
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)-1] ^= 0x01
	if err := os.WriteFile(entryPath, raw, 0o644); err != nil {
		t.Fatal(err)
	}

	svc2, ts2 := newTestServer(t, opts)
	resp, body2 := postSim(t, ts2, quickReq())
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("POST over corrupt entry: %d %s", resp.StatusCode, body2)
	}
	if got := resp.Header.Get(CacheHeader); got != "miss" {
		t.Errorf("cache header = %q, want miss (re-simulated)", got)
	}
	if !bytes.Equal(body1, body2) {
		t.Error("re-simulated body differs from the original computation")
	}
	if svc2.metrics.jobsOK.Load() != 1 {
		t.Errorf("jobs ok = %d, want 1 (one real re-simulation)", svc2.metrics.jobsOK.Load())
	}
}

// TestSingleFlightDedup pins the dedup contract: concurrent identical
// requests simulate once; followers serve the leader's bytes with the
// dedup tier header.
func TestSingleFlightDedup(t *testing.T) {
	svc, ts := newTestServer(t, Options{Workers: 1})
	req := quickReq()
	req.MeasureUops = 60000 // long enough that all posts overlap the one simulation

	const n = 8
	var wg sync.WaitGroup
	tiers := make([]string, n)
	bodies := make([][]byte, n)
	codes := make([]int, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, body := postSim(t, ts, req)
			codes[i], tiers[i], bodies[i] = resp.StatusCode, resp.Header.Get(CacheHeader), body
		}(i)
	}
	wg.Wait()

	misses, dedups := 0, 0
	for i := 0; i < n; i++ {
		if codes[i] != http.StatusOK {
			t.Fatalf("request %d: status %d: %s", i, codes[i], bodies[i])
		}
		switch tiers[i] {
		case "miss":
			misses++
		case "dedup", "hit":
			dedups++
		default:
			t.Errorf("request %d served from unexpected tier %q", i, tiers[i])
		}
		if !bytes.Equal(bodies[i], bodies[0]) {
			t.Errorf("request %d body differs", i)
		}
	}
	if misses != 1 {
		t.Errorf("%d requests simulated, want exactly 1", misses)
	}
	if got := svc.metrics.jobsOK.Load(); got != 1 {
		t.Errorf("jobs ok = %d, want 1", got)
	}
	if svc.metrics.fabricDedup.Load() == 0 {
		t.Error("no request was coalesced — the posts did not overlap?")
	}
}

// TestFairShareInteractiveUnderBulk pins the DRR admission property: with
// one worker saturated by a bulk tenant's queue of heavy jobs, a small
// interactive job from another tenant completes while most of the bulk
// queue is still pending — it does not wait behind the whole backlog.
// The assertion is order-based (pending bulk count at the moment the
// interactive job returns), not timing-based.
func TestFairShareInteractiveUnderBulk(t *testing.T) {
	svc, ts := newTestServer(t, Options{Workers: 1, QueueDepth: 32, TenantQueueDepth: 16})

	bulkReq := func(i int) SimRequest {
		r := quickReq()
		r.MeasureUops = 100000
		r.Config.PTEntries = []int{128, 256, 512, 1024}[i%4]
		r.Seeds = 1 + i/4 // distinct content addresses per job
		return r
	}
	const bulk = 6
	var wg sync.WaitGroup
	for i := 0; i < bulk; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, body := postSimTenant(t, ts, bulkReq(i), "bulk")
			if resp.StatusCode != http.StatusOK {
				t.Errorf("bulk %d: %d %s", i, resp.StatusCode, body)
			}
		}(i)
	}
	defer wg.Wait()

	// Wait until the bulk tenant has the worker busy and a deep queue.
	deadline := time.Now().Add(5 * time.Second)
	for svc.sched.depth() < bulk-1 {
		if time.Now().After(deadline) {
			t.Fatalf("bulk queue never filled: depth %d", svc.sched.depth())
		}
		time.Sleep(time.Millisecond)
	}

	ui := quickReq() // 15K uops against the bulk jobs' 105K each
	resp, body := postSimTenant(t, ts, ui, "interactive")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("interactive job: %d %s", resp.StatusCode, body)
	}
	if pending := svc.sched.depth(); pending < 2 {
		t.Errorf("interactive job done with only %d bulk jobs pending — it waited behind the backlog", pending)
	}
}

// TestTenantQueueBoundIsolates pins per-tenant admission: one tenant
// filling its own queue gets 429s while another tenant's requests are
// still accepted.
func TestTenantQueueBoundIsolates(t *testing.T) {
	svc, ts := newTestServer(t, Options{Workers: 1, QueueDepth: 32, TenantQueueDepth: 2})

	variant := func(seeds int, measure uint64) SimRequest {
		r := quickReq()
		r.Seeds = seeds
		r.MeasureUops = measure
		return r
	}

	// Occupy the worker, then fill tenant A's queue of 2.
	var wg sync.WaitGroup
	post := func(req SimRequest, tenant string) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			postSimTenant(t, ts, req, tenant)
		}()
	}
	post(variant(1, 100000), "bulk")
	deadline := time.Now().Add(5 * time.Second)
	for svc.metrics.jobsRunning.Load() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("first job never started")
		}
		time.Sleep(time.Millisecond)
	}
	post(variant(2, 100000), "bulk")
	post(variant(3, 100000), "bulk")
	for svc.sched.depth() < 2 {
		if time.Now().After(deadline) {
			t.Fatalf("bulk queue never filled: depth %d", svc.sched.depth())
		}
		time.Sleep(time.Millisecond)
	}

	// Tenant A's queue is full: its next job bounces.
	respA, bodyA := postSimTenant(t, ts, variant(4, 100000), "bulk")
	if respA.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("over-quota bulk job: %d %s, want 429", respA.StatusCode, bodyA)
	}
	if respA.Header.Get("Retry-After") == "" {
		t.Error("429 without Retry-After")
	}
	// Another tenant is unaffected by A's saturation.
	respB, bodyB := postSimTenant(t, ts, variant(1, 20000), "other")
	if respB.StatusCode != http.StatusOK {
		t.Fatalf("other tenant's job: %d %s, want 200", respB.StatusCode, bodyB)
	}
	wg.Wait()
}
