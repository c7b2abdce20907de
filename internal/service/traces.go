package service

import (
	"bytes"
	"encoding/json"
	"net/http"
	"strings"

	"rfpsim/internal/fabric"
	"rfpsim/internal/obs"
)

// TraceUploadResponse is the POST /v1/traces result body.
type TraceUploadResponse struct {
	TraceInfo
	// Dedup reports that identical bytes were already stored (in memory
	// or on the disk tier) — the upload was free.
	Dedup bool `json:"dedup"`
}

// handleTraces is POST /v1/traces (upload raw .rfpt bytes, get the
// content address back) and GET /v1/traces (list the in-memory working
// set). Uploads are validated by a full decode before they are stored
// anywhere; rejects count into rfpsimd_trace_rejects_total and return the
// structured JSON error body every other endpoint uses.
func (s *Server) handleTraces(w http.ResponseWriter, r *http.Request) {
	switch r.Method {
	case http.MethodPost:
		runID := r.Header.Get(RunIDHeader)
		if !obs.ValidRunID(runID) {
			runID = obs.NewRunID()
		}
		w.Header().Set(RunIDHeader, runID)
		raw, err := readTraceBody(w, r)
		if err != nil {
			s.metrics.traceRejects.Add(1)
			writeJSONError(w, http.StatusBadRequest, "invalid", "reading trace body: "+err.Error())
			return
		}
		info, dedup, err := s.traces.Add(raw)
		if err != nil {
			s.metrics.traceRejects.Add(1)
			s.logger.With("run_id", runID).Debug("trace upload rejected", "err", err.Error())
			writeJSONError(w, http.StatusBadRequest, "invalid", "bad trace upload: "+err.Error())
			return
		}
		s.metrics.tracesUploaded.Add(1)
		s.logger.With("run_id", runID).Info("trace uploaded",
			"address", info.Address[:12], "bytes", info.Bytes, "uops", info.Uops, "dedup", dedup)
		w.Header().Set("Content-Type", "application/json")
		json.NewEncoder(w).Encode(TraceUploadResponse{TraceInfo: info, Dedup: dedup})
	case http.MethodGet:
		list := s.traces.List()
		if list == nil {
			list = []TraceInfo{}
		}
		w.Header().Set("Content-Type", "application/json")
		json.NewEncoder(w).Encode(list)
	default:
		writeJSONError(w, http.StatusMethodNotAllowed, "invalid", "POST or GET only")
	}
}

// maxTraceBytes caps a trace upload's body.
const maxTraceBytes = 64 << 20

// readTraceBody reads an upload's body, at most maxTraceBytes of it. A
// known Content-Length sizes the buffer once, where io.ReadAll would
// regrow it step by step; a declared length over the cap fails before
// reading, with the error MaxBytesReader gives once it has read past the
// cap.
func readTraceBody(w http.ResponseWriter, r *http.Request) ([]byte, error) {
	if r.ContentLength > maxTraceBytes {
		return nil, &http.MaxBytesError{Limit: maxTraceBytes}
	}
	// MinRead of spare room lets ReadFrom see the end without regrowing.
	buf := bytes.NewBuffer(make([]byte, 0, max(r.ContentLength, 0)+bytes.MinRead))
	_, err := buf.ReadFrom(http.MaxBytesReader(w, r.Body, maxTraceBytes))
	return buf.Bytes(), err
}

// handleTraceByAddr is GET /v1/traces/{addr}: the stored trace's info
// (not its bytes), resolving through the disk tier like a simulation
// would.
func (s *Server) handleTraceByAddr(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeJSONError(w, http.StatusMethodNotAllowed, "invalid", "GET only")
		return
	}
	addr := strings.TrimPrefix(r.URL.Path, "/v1/traces/")
	if !fabric.ValidAddr(addr) {
		writeJSONError(w, http.StatusBadRequest, "invalid", "malformed trace address")
		return
	}
	_, info, ok := s.traces.Get(addr)
	if !ok {
		writeJSONError(w, http.StatusNotFound, "invalid", "no trace stored under this address")
		return
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(info)
}

// Status is a point-in-time operational snapshot of the daemon: the
// queue/worker state, job outcome counters, cache tiers and trace store.
// It exists for embedders that render live state — the browser console's
// status endpoint serves exactly this struct — and mirrors the same
// counters /metrics exposes, so a console chart and a Prometheus
// dashboard can never disagree.
type Status struct {
	// Draining reports a closed (shutting down) server.
	Draining bool `json:"draining"`
	// Workers, QueueDepth and TenantQueueDepth echo the admission limits.
	Workers          int `json:"workers"`
	QueueDepth       int `json:"queue_depth"`
	TenantQueueDepth int `json:"tenant_queue_depth"`
	// TenantsQueued counts tenants with at least one queued job.
	TenantsQueued int `json:"tenants_queued"`
	// JobsQueued and JobsRunning are the live queue/worker gauges.
	JobsQueued  int64 `json:"jobs_queued"`
	JobsRunning int64 `json:"jobs_running"`
	// Job outcome counters (rfpsimd_jobs_done_total by status).
	JobsOK        uint64 `json:"jobs_ok"`
	JobsCancelled uint64 `json:"jobs_cancelled"`
	JobsFailed    uint64 `json:"jobs_failed"`
	JobsRejected  uint64 `json:"jobs_rejected"`
	// Result-cache counters and occupancy.
	CacheHits     uint64  `json:"cache_hits"`
	CacheMisses   uint64  `json:"cache_misses"`
	CacheHitRatio float64 `json:"cache_hit_ratio"`
	CacheEntries  int     `json:"cache_entries"`
	CacheBytes    int64   `json:"cache_bytes"`
	// Dedup counts requests coalesced onto an identical in-flight one.
	Dedup uint64 `json:"dedup"`
	// Trace store counters.
	TracesStored   int    `json:"traces_stored"`
	TracesUploaded uint64 `json:"traces_uploaded"`
	TraceRejects   uint64 `json:"trace_rejects"`
	// Fabric is the disk tier snapshot; nil when no disk cache is
	// configured.
	Fabric *fabric.Snapshot `json:"fabric,omitempty"`
}

// Status snapshots the server's operational state.
func (s *Server) Status() Status {
	s.mu.RLock()
	draining := s.closed
	s.mu.RUnlock()
	hits, misses := s.metrics.cacheHits.Load(), s.metrics.cacheMisses.Load()
	ratio := 0.0
	if hits+misses > 0 {
		ratio = float64(hits) / float64(hits+misses)
	}
	st := Status{
		Draining:         draining,
		Workers:          s.opts.workers(),
		QueueDepth:       s.opts.queueDepth(),
		TenantQueueDepth: s.opts.tenantQueueDepth(),
		TenantsQueued:    s.sched.tenantsQueued(),
		JobsQueued:       s.metrics.jobsQueued.Load(),
		JobsRunning:      s.metrics.jobsRunning.Load(),
		JobsOK:           s.metrics.jobsOK.Load(),
		JobsCancelled:    s.metrics.jobsCancelled.Load(),
		JobsFailed:       s.metrics.jobsFailed.Load(),
		JobsRejected:     s.metrics.jobsRejected.Load(),
		CacheHits:        hits,
		CacheMisses:      misses,
		CacheHitRatio:    ratio,
		CacheEntries:     s.cache.len(),
		CacheBytes:       s.cache.bytes(),
		Dedup:            s.metrics.fabricDedup.Load(),
		TracesStored:     s.traces.Len(),
		TracesUploaded:   s.metrics.tracesUploaded.Load(),
		TraceRejects:     s.metrics.traceRejects.Load(),
	}
	if s.disk != nil {
		snap := s.disk.Snapshot()
		st.Fabric = &snap
	}
	return st
}
