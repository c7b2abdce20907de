package service

import (
	"io"
	"sync/atomic"

	"rfpsim/internal/obs"
)

// Metrics aggregates the service's observability counters. All fields are
// atomics so workers and handlers update them without locks; the block
// implements obs.Collector and is registered, together with the job
// latency and queue wait histograms, in the server's obs.Registry — the
// /metrics endpoint renders that registry, nothing else.
type Metrics struct {
	jobsQueued  atomic.Int64 // gauge: jobs accepted but not yet running
	jobsRunning atomic.Int64 // gauge: jobs currently simulating

	jobsOK        atomic.Uint64 // counter: jobs finished successfully
	jobsCancelled atomic.Uint64 // counter: jobs cancelled (timeout/disconnect)
	jobsFailed    atomic.Uint64 // counter: jobs that errored (wedge, bad trace)
	jobsWedged    atomic.Uint64 // counter: the subset of jobsFailed whose pipeline wedged
	jobsRejected  atomic.Uint64 // counter: jobs refused with 429 (queue full)

	cacheHits      atomic.Uint64
	cacheMisses    atomic.Uint64
	cacheEvictions atomic.Uint64 // counter: in-memory LRU evictions
	fabricDedup    atomic.Uint64 // counter: requests coalesced onto an in-flight identical one

	tracesUploaded atomic.Uint64 // counter: traces accepted by POST /v1/traces
	traceRejects   atomic.Uint64 // counter: trace-sourced requests rejected (bad upload, unknown address)

	simCycles    atomic.Uint64 // total simulated cycles across all jobs
	simBusyNanos atomic.Uint64 // total wall time workers spent simulating

	l1pfIssued atomic.Uint64 // L1 hardware prefetches issued across all jobs
	l1pfUseful atomic.Uint64 // L1 hardware prefetches consumed by demand

	clpPredicted   atomic.Uint64 // confident cache-level predictions across all jobs
	clpCorrect     atomic.Uint64 // predictions matching the actual serving level
	clpSkippedDRAM atomic.Uint64 // RFP injections suppressed on a predicted DRAM hit
	clpEarlyArmed  atomic.Uint64 // prefetches armed early on a predicted near hit

	checkViolations atomic.Uint64 // invariant violations across checked jobs
}

// CheckViolations returns the invariant violations observed across all
// jobs that ran with the checker enabled (config.checks on the request).
func (m *Metrics) CheckViolations() uint64 { return m.checkViolations.Load() }

// WritePrometheus implements obs.Collector. The exposition format —
// metric names, label sets, ordering — is pinned by a golden test
// (TestMetricsExpositionGolden); treat any diff there as an API break for
// fleet dashboards.
func (m *Metrics) WritePrometheus(w io.Writer) {
	busy := float64(m.simBusyNanos.Load()) / 1e9
	cyclesPerSec := 0.0
	if busy > 0 {
		cyclesPerSec = float64(m.simCycles.Load()) / busy
	}
	obs.Gauge(w, "rfpsimd_jobs_queued", "Jobs accepted and waiting for a worker.", m.jobsQueued.Load())
	obs.Gauge(w, "rfpsimd_jobs_running", "Jobs currently simulating.", m.jobsRunning.Load())
	obs.Header(w, "rfpsimd_jobs_done_total", "counter", "Finished jobs by outcome.")
	obs.Sample(w, "rfpsimd_jobs_done_total", `status="ok"`, m.jobsOK.Load())
	obs.Sample(w, "rfpsimd_jobs_done_total", `status="cancelled"`, m.jobsCancelled.Load())
	obs.Sample(w, "rfpsimd_jobs_done_total", `status="error"`, m.jobsFailed.Load())
	obs.Counter(w, "rfpsimd_jobs_wedged_total", "Errored jobs whose simulated pipeline wedged (core.ErrWedged); each is also counted under status=\"error\".", m.jobsWedged.Load())
	obs.Counter(w, "rfpsimd_jobs_rejected_total", "Jobs refused with 429 because the queue was full.", m.jobsRejected.Load())
	obs.Counter(w, "rfpsimd_cache_hits_total", "Requests served from the result cache.", m.cacheHits.Load())
	obs.Counter(w, "rfpsimd_cache_misses_total", "Requests that had to simulate.", m.cacheMisses.Load())
	obs.Counter(w, "rfpsimd_cache_evictions_total", "Entries evicted from the in-memory result cache (LRU, docs/fabric.md).", m.cacheEvictions.Load())
	obs.Counter(w, "rfpsimd_fabric_dedup_total", "Requests coalesced onto a concurrent identical in-flight request.", m.fabricDedup.Load())
	obs.Counter(w, "rfpsimd_traces_uploaded_total", "Traces accepted by POST /v1/traces (re-uploads of identical bytes included).", m.tracesUploaded.Load())
	obs.Counter(w, "rfpsimd_trace_rejects_total", "Trace-sourced requests rejected: undecodable uploads and /v1/sim references to unknown trace addresses (docs/traces.md).", m.traceRejects.Load())
	obs.Counter(w, "rfpsimd_sim_cycles_total", "Simulated core cycles across all jobs.", m.simCycles.Load())
	obs.Counter(w, "rfpsimd_l1pf_issued_total", "L1 hardware prefetches issued across all jobs (docs/prefetchers.md).", m.l1pfIssued.Load())
	obs.Counter(w, "rfpsimd_l1pf_useful_total", "L1 hardware prefetches consumed by a demand access across all jobs.", m.l1pfUseful.Load())
	obs.Counter(w, "rfpsimd_clp_predicted_total", "Confident cache-level predictions across all jobs (docs/predictors.md).", m.clpPredicted.Load())
	obs.Counter(w, "rfpsimd_clp_correct_total", "Cache-level predictions matching the actual serving level.", m.clpCorrect.Load())
	obs.Counter(w, "rfpsimd_clp_skipped_dram_total", "RFP injections suppressed because CLP predicted a DRAM access.", m.clpSkippedDRAM.Load())
	obs.Counter(w, "rfpsimd_clp_early_armed_total", "RFP prefetches armed early on a CLP-predicted near hit.", m.clpEarlyArmed.Load())
	obs.Counter(w, "rfpsim_check_violations_total", "Runtime invariant violations across jobs run with the checker enabled (docs/checking.md).", m.checkViolations.Load())
	obs.Gauge(w, "rfpsimd_sim_cycles_per_second", "Simulated cycles per wall-clock second of worker busy time.", cyclesPerSec)

	hits, misses := m.cacheHits.Load(), m.cacheMisses.Load()
	ratio := 0.0
	if hits+misses > 0 {
		ratio = float64(hits) / float64(hits+misses)
	}
	obs.Gauge(w, "rfpsimd_cache_hit_ratio", "Fraction of result-cache lookups served from the cache.", ratio)
}
