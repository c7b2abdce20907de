package service

import (
	"bytes"
	"context"
	"errors"
	"flag"
	"io"
	"log/slog"
	"net/http"
	"os"
	"strings"
	"sync"
	"testing"
	"time"

	"rfpsim/internal/core"
	"rfpsim/internal/obs"
)

var updateGolden = flag.Bool("update", false, "rewrite golden files from the current output")

// TestMetricsExpositionGolden pins the complete /metrics exposition of a
// fresh server — names, HELP/TYPE lines, label sets, histogram buckets,
// ordering — byte for byte. A fresh server's counters are all zero, so the
// output is deterministic. Fleet dashboards parse this format: a diff here
// is an API break, not a cosmetic change.
func TestMetricsExpositionGolden(t *testing.T) {
	_, ts := newTestServer(t, Options{Workers: 1})
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != obs.ContentType {
		t.Errorf("Content-Type = %q, want %q", ct, obs.ContentType)
	}
	got, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}

	const goldenPath = "testdata/metrics.golden"
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("%v (run with -update to regenerate)", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("/metrics exposition drifted from %s (run with -update after deliberate changes)\ngot:\n%s\nwant:\n%s",
			goldenPath, got, want)
	}
}

// TestWedgedJobCounted: a job whose pipeline wedges reaches the worker as
// core.ErrWedged and is counted twice — under status="error" and in
// rfpsimd_jobs_wedged_total — while an ordinary failure counts only as an
// error. No request knob wedges the core, so the test pushes resolved
// jobs straight onto the queue.
func TestWedgedJobCounted(t *testing.T) {
	svc, ts := newTestServer(t, Options{Workers: 1})
	push := func(mutate func(rj *resolvedJob)) error {
		rj, err := resolveRequest(SimRequest{Workload: "spec06_mcf", WarmupUops: 1000, MeasureUops: 1000})
		if err != nil {
			t.Fatal(err)
		}
		mutate(rj)
		j := &job{ctx: context.Background(), resolved: rj, tenant: DefaultTenant,
			enqueued: time.Now(), result: make(chan jobResult, 1)}
		if ok, _ := svc.enqueue(j); !ok {
			t.Fatal("job not admitted")
		}
		return (<-j.result).err
	}
	// Nothing reaches rename within the wedge limit.
	err := push(func(rj *resolvedJob) { rj.job.Config.FrontendLatency = 1 << 20 })
	if !errors.Is(err, core.ErrWedged) {
		t.Fatalf("err = %v, want one wrapping core.ErrWedged", err)
	}
	if err := push(func(rj *resolvedJob) { rj.job.Seeds = 0 }); err == nil || errors.Is(err, core.ErrWedged) {
		t.Fatalf("err = %v, want a non-wedge failure", err)
	}
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"\nrfpsimd_jobs_wedged_total 1\n",
		"\nrfpsimd_jobs_done_total{status=\"error\"} 2\n",
	} {
		if !strings.Contains(string(body), want) {
			t.Errorf("/metrics lacks %q", strings.TrimSpace(want))
		}
	}
}

// syncBuffer lets the handler goroutines and the test body share one log
// sink without racing.
type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

// TestRunIDCorrelatesResponseAndLogs pins the core observability contract:
// the run ID the client reads from the response header is the same ID on
// every log line the job emitted, and a computed response carries a
// parseable per-stage timings header.
func TestRunIDCorrelatesResponseAndLogs(t *testing.T) {
	var logs syncBuffer
	logger := slog.New(slog.NewTextHandler(&logs, &slog.HandlerOptions{Level: slog.LevelDebug}))
	_, ts := newTestServer(t, Options{Workers: 1, Logger: logger})

	resp, _ := postSim(t, ts, SimRequest{
		Workload:    "spec06_mcf",
		WarmupUops:  2000,
		MeasureUops: 4000,
		Seeds:       1,
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}

	runID := resp.Header.Get(RunIDHeader)
	if runID == "" || !obs.ValidRunID(runID) {
		t.Fatalf("%s header = %q, want a valid run ID", RunIDHeader, runID)
	}
	th := resp.Header.Get(TimingsHeader)
	tim, err := obs.ParseTimings(th)
	if err != nil {
		t.Fatalf("%s header %q does not parse: %v", TimingsHeader, th, err)
	}
	if tim.Total() <= 0 {
		t.Errorf("timings header %q reports no elapsed time", th)
	}

	out := logs.String()
	needle := "run_id=" + runID
	if n := strings.Count(out, needle); n < 2 {
		t.Errorf("log contains %q %d times, want >= 2 (accept + done lines):\n%s", needle, n, out)
	}
	for _, line := range strings.Split(strings.TrimSpace(out), "\n") {
		if strings.Contains(line, "job done") && !strings.Contains(line, needle) {
			t.Errorf("job-done log line lacks the response's run ID %q: %s", runID, line)
		}
	}
}

// TestRunIDAdoption pins the cross-process correlation path the sweep HTTP
// backend relies on: a valid client-supplied ID is echoed and used;
// garbage (a log-injection attempt) is replaced with a fresh valid ID.
func TestRunIDAdoption(t *testing.T) {
	var logs syncBuffer
	logger := slog.New(slog.NewTextHandler(&logs, &slog.HandlerOptions{Level: slog.LevelDebug}))
	_, ts := newTestServer(t, Options{Workers: 1, Logger: logger})

	post := func(id string) *http.Response {
		t.Helper()
		req, err := http.NewRequest(http.MethodPost, ts.URL+"/v1/sim",
			strings.NewReader(`{"workload":"spec06_mcf","warmup_uops":2000,"measure_uops":4000,"seeds":1}`))
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set("Content-Type", "application/json")
		if id != "" {
			req.Header.Set(RunIDHeader, id)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { resp.Body.Close() })
		return resp
	}

	resp := post("sweep-unit-0042")
	if got := resp.Header.Get(RunIDHeader); got != "sweep-unit-0042" {
		t.Errorf("valid client run ID not adopted: header = %q", got)
	}
	if !strings.Contains(logs.String(), "run_id=sweep-unit-0042") {
		t.Errorf("adopted run ID missing from logs:\n%s", logs.String())
	}

	// Go's client forbids raw newlines in header values, so the injection
	// vector that reaches the daemon is an ID with other out-of-charset
	// bytes; ValidRunID must reject it and the daemon must mint a fresh ID.
	evil := "FORGED id; status=ok"
	resp = post(evil)
	got := resp.Header.Get(RunIDHeader)
	if got == evil || !obs.ValidRunID(got) {
		t.Errorf("invalid client run ID must be replaced with a fresh valid one, got %q", got)
	}
	if strings.Contains(logs.String(), "FORGED") {
		t.Errorf("out-of-charset run ID leaked into logs:\n%s", logs.String())
	}
}
