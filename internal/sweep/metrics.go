package sweep

import (
	"fmt"
	"io"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"rfpsim/internal/obs"
)

// Metrics aggregates the orchestrator's observability counters: units by
// outcome, retries, and per-backend request latency. It implements
// obs.Collector, so cmd/rfpsweep registers it in an obs.Registry and
// serves it over HTTP (-metrics-addr) exactly the way rfpsimd serves its
// own block; the exposition format is pinned by a golden test.
type Metrics struct {
	total   atomic.Uint64 // gauge: units in the sweep
	done    atomic.Uint64 // counter: units completed this run
	skipped atomic.Uint64 // counter: units satisfied by the checkpoint
	failed  atomic.Uint64 // counter: units terminally failed
	retried atomic.Uint64 // counter: extra backend attempts

	checkViolations atomic.Uint64 // counter: invariant violations (check_diff units)
	diffDivergences atomic.Uint64 // counter: check_diff units whose digests diverged

	mu       sync.Mutex
	backends map[string]*backendStats
}

// backendStats is one backend/endpoint's request ledger.
type backendStats struct {
	requests     uint64
	errors       uint64
	latencyNanos uint64
}

// Done returns the number of units completed by this run so far.
func (m *Metrics) Done() uint64 { return m.done.Load() }

// Failed returns the number of terminally failed units so far.
func (m *Metrics) Failed() uint64 { return m.failed.Load() }

// Retried returns the number of extra backend attempts so far.
func (m *Metrics) Retried() uint64 { return m.retried.Load() }

// Skipped returns the number of units satisfied by the checkpoint.
func (m *Metrics) Skipped() uint64 { return m.skipped.Load() }

// observe records one backend request.
func (m *Metrics) observe(backend string, d time.Duration, failed bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.backends == nil {
		m.backends = map[string]*backendStats{}
	}
	bs := m.backends[backend]
	if bs == nil {
		bs = &backendStats{}
		m.backends[backend] = bs
	}
	bs.requests++
	if failed {
		bs.errors++
	}
	bs.latencyNanos += uint64(d)
}

// WritePrometheus implements obs.Collector (text exposition format).
func (m *Metrics) WritePrometheus(w io.Writer) {
	obs.Gauge(w, "rfpsweep_units_total", "Units in the expanded sweep grid.", m.total.Load())
	obs.Header(w, "rfpsweep_units_done_total", "counter", "Units completed, by how.")
	obs.Sample(w, "rfpsweep_units_done_total", `how="run"`, m.done.Load())
	obs.Sample(w, "rfpsweep_units_done_total", `how="checkpoint"`, m.skipped.Load())
	obs.Counter(w, "rfpsweep_units_failed_total", "Units that exhausted their retries.", m.failed.Load())
	obs.Counter(w, "rfpsweep_unit_retries_total", "Extra backend attempts beyond each unit's first.", m.retried.Load())
	obs.Counter(w, "rfpsim_check_violations_total", "Runtime invariant violations across check_diff units (docs/checking.md).", m.checkViolations.Load())
	obs.Counter(w, "rfpsweep_diff_divergences_total", "check_diff units whose committed digests diverged.", m.diffDivergences.Load())

	m.mu.Lock()
	names := make([]string, 0, len(m.backends))
	for n := range m.backends {
		names = append(names, n)
	}
	sort.Strings(names)
	obs.Header(w, "rfpsweep_backend_requests_total", "counter", "Requests per backend endpoint.")
	for _, n := range names {
		obs.Sample(w, "rfpsweep_backend_requests_total", fmt.Sprintf("backend=%q", n), m.backends[n].requests)
	}
	obs.Header(w, "rfpsweep_backend_errors_total", "counter", "Failed requests per backend endpoint.")
	for _, n := range names {
		obs.Sample(w, "rfpsweep_backend_errors_total", fmt.Sprintf("backend=%q", n), m.backends[n].errors)
	}
	obs.Header(w, "rfpsweep_backend_latency_seconds_sum", "counter", "Cumulative request latency per backend endpoint.")
	for _, n := range names {
		obs.Sample(w, "rfpsweep_backend_latency_seconds_sum", fmt.Sprintf("backend=%q", n), float64(m.backends[n].latencyNanos)/1e9)
	}
	m.mu.Unlock()
}
