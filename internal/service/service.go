// Package service implements rfpsimd, the long-running simulation daemon:
// an HTTP API that accepts simulation jobs, runs them on a bounded worker
// pool with backpressure, caches results by content address (simulations
// are deterministic pure functions of their job description), and emits
// its telemetry through the shared observability layer (internal/obs):
// every request gets a run ID that correlates the API response with every
// log line the job produced, /metrics is served from an obs.Registry
// holding the daemon's counters and latency histograms, and per-stage
// timing breakdowns ride back on response headers. The batch CLIs and
// this service share the same runner code, so a job submitted over HTTP
// produces bit-identical statistics to the same job run with cmd/rfpsim.
package service

import (
	"context"
	"encoding/csv"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"net/http"
	"runtime"
	"strings"
	"sync"
	"time"

	"rfpsim/internal/core"
	"rfpsim/internal/experiments"
	"rfpsim/internal/fabric"
	"rfpsim/internal/obs"
	"rfpsim/internal/runner"
	"rfpsim/internal/sample"
	"rfpsim/internal/stats"
	"rfpsim/internal/trace"
)

// Response headers carrying per-request observability. They are headers,
// not body fields, because response bodies are deterministic functions of
// the request (byte-identical on cache replay) while run IDs and wall
// times are not.
const (
	// RunIDHeader carries the job's run ID on every /v1/sim response. A
	// client may supply its own valid ID on the request (the sweep HTTP
	// backend does) so daemon logs correlate with client logs; anything
	// invalid is replaced by a fresh ID.
	RunIDHeader = "X-Rfpsimd-Run-Id"
	// TimingsHeader carries the obs.Timings wire form (per-stage
	// wall-clock breakdown) on computed — not cache-replayed — responses.
	TimingsHeader = "X-Rfpsimd-Timings"
	// CacheHeader reports which tier served a /v1/sim response: "hit"
	// (the memory cache), "disk" (the persistent cache), "dedup"
	// (coalesced onto a concurrent identical request's simulation) or
	// "miss" (simulated). The body is byte-identical across all four.
	CacheHeader = "X-Rfpsimd-Cache"
	// TenantHeader names the requesting tenant for fair-share admission
	// (docs/fabric.md). Absent or malformed values fall back to
	// DefaultTenant rather than erroring: fairness is isolation between
	// identified bulk users, not authentication.
	TenantHeader = "X-Rfpsimd-Tenant"
	// DefaultTenant is the tenant bucket for requests with no (valid)
	// tenant header.
	DefaultTenant = "anon"
)

// Options configures the daemon.
type Options struct {
	// Workers bounds concurrent simulations (0 = NumCPU).
	Workers int
	// QueueDepth bounds jobs accepted but not yet running; a full queue
	// rejects new jobs with 429 (0 = 4x Workers).
	QueueDepth int
	// CacheEntries bounds the in-memory result cache's entry count
	// (0 = 4096).
	CacheEntries int
	// CacheBytes bounds the in-memory result cache's total body bytes
	// (0 = 256 MiB). Whichever cap is hit first evicts LRU-wise.
	CacheBytes int64
	// MaxJobUops caps (warmup+measure)*seeds per job so one request cannot
	// monopolize a worker for hours (0 = 50M).
	MaxJobUops uint64
	// DefaultTimeout applies to jobs that do not set timeout_ms (0 = none).
	DefaultTimeout time.Duration
	// Logger receives the daemon's structured logs (nil = slog.Default()).
	Logger *slog.Logger
	// Registry is the metrics registry /metrics renders; the server
	// registers its counter block and histograms into it (nil = a fresh
	// private registry). Pass one in to co-host additional collectors on
	// the same endpoint.
	Registry *obs.Registry
	// Fabric configures the persistent disk cache; the zero value
	// disables it. See docs/fabric.md.
	Fabric fabric.Options
	// TenantQueueDepth bounds each tenant's admission queue
	// (0 = QueueDepth): one tenant's burst 429s against its own bound
	// while other tenants' queues stay open.
	TenantQueueDepth int
}

func (o Options) workers() int {
	if o.Workers > 0 {
		return o.Workers
	}
	return runtime.NumCPU()
}

func (o Options) queueDepth() int {
	if o.QueueDepth > 0 {
		return o.QueueDepth
	}
	return 4 * o.workers()
}

func (o Options) maxJobUops() uint64 {
	if o.MaxJobUops > 0 {
		return o.MaxJobUops
	}
	return 50_000_000
}

func (o Options) tenantQueueDepth() int {
	if o.TenantQueueDepth > 0 {
		return o.TenantQueueDepth
	}
	return o.queueDepth()
}

// SimRequest is the POST /v1/sim body.
type SimRequest struct {
	// Workload names a Table 3 suite entry. Exactly one of Workload and
	// TraceB64 must be set.
	Workload string `json:"workload,omitempty"`
	// TraceB64 is a base64-encoded .rfpt binary trace to simulate instead
	// of a catalog workload (single seed only).
	TraceB64 string `json:"trace_b64,omitempty"`
	// Config selects the core configuration knobs.
	Config ConfigSpec `json:"config"`
	// WarmupUops and MeasureUops are the simulation windows
	// (default 30000/60000, matching the batch tools).
	WarmupUops  uint64 `json:"warmup_uops,omitempty"`
	MeasureUops uint64 `json:"measure_uops,omitempty"`
	// Seeds > 1 averages that many perturbed seed replicas.
	Seeds int `json:"seeds,omitempty"`
	// ColdCaches skips footprint-based cache warming.
	ColdCaches bool `json:"cold_caches,omitempty"`
	// Sampling requests SimPoint-style sampled simulation of the measured
	// window (single seed only; catalog workloads and uploaded traces
	// both work — trace jobs re-decode their bytes per pass). Omitted
	// fields take the documented defaults; the response echoes the
	// normalized spec plus the replay plan summary.
	Sampling *SamplingSpec `json:"sampling,omitempty"`
	// TimeoutMS cancels the job after this many milliseconds of wall time.
	TimeoutMS int64 `json:"timeout_ms,omitempty"`
}

// SamplingSpec is the wire form of a sampling request: runner.Sampling
// itself, whose JSON tags are the wire field names. Zero values select the
// internal/sample defaults (2000-uop intervals, 5 representatives, one
// interval of per-point cycle warmup).
type SamplingSpec = runner.Sampling

// SimResponse is the POST /v1/sim result body. It contains no wall-clock
// or otherwise nondeterministic fields: identical requests produce
// byte-identical bodies, which is what makes the result cache a pure
// replay (the X-Rfpsimd-Cache header, not the body, distinguishes hit
// from miss).
type SimResponse struct {
	// Workload echoes the workload name (or trace digest).
	Workload string `json:"workload"`
	// Config is the resolved configuration name.
	Config string `json:"config"`
	// Seeds is the number of replicas summed into Stats.
	Seeds int `json:"seeds"`
	// WarmupUops/MeasureUops echo the resolved windows.
	WarmupUops  uint64 `json:"warmup_uops"`
	MeasureUops uint64 `json:"measure_uops"`
	// Cycles and Instructions aggregate the measured window across seeds.
	Cycles       uint64 `json:"cycles"`
	Instructions uint64 `json:"instructions"`
	// IPC is the replica-weighted instructions per cycle.
	IPC float64 `json:"ipc"`
	// Sampling echoes the normalized sampling spec of a sampled run
	// (absent for full runs). SampledPoints and SampledUops summarize the
	// replay plan — how many representative intervals were cycle-simulated
	// and their total measured volume — and SamplingErrorBound is the
	// plan's clustering-dispersion confidence signal in [0, 1] (see
	// docs/sampling.md; a heuristic, not a guarantee). For sampled runs
	// Cycles/Instructions/Stats are cluster-weight scaled estimates of the
	// full window.
	Sampling           *SamplingSpec `json:"sampling,omitempty"`
	SampledPoints      int           `json:"sampled_points,omitempty"`
	SampledUops        uint64        `json:"sampled_uops,omitempty"`
	SamplingErrorBound float64       `json:"sampling_error_bound,omitempty"`
	// Stats is the full statistics block (counters summed across seeds).
	Stats *stats.Sim `json:"stats"`
}

// WriteCSVRows writes r's ipc, cycles and instructions rows under label
// in the experiments.MetricsCSVHeader schema. It is the one row renderer
// behind the sweep and console CSVs, so a sweep CSV and a console CSV of
// the same simulations are byte-identical modulo labels.
func (r *SimResponse) WriteCSVRows(cw *csv.Writer, label string) error {
	for _, row := range [...][]string{
		{label, "ipc", experiments.FormatMetric(r.IPC)},
		{label, "cycles", experiments.FormatCount(r.Cycles)},
		{label, "instructions", experiments.FormatCount(r.Instructions)},
	} {
		if err := cw.Write(row); err != nil {
			return err
		}
	}
	return nil
}

// Body encodes r as a /v1/sim response body: its JSON and a newline. It
// is the one encoding of a stored result, so the daemon's cache tiers and
// a sweep's -cache-dir hold the same bytes for the same content address.
func (r *SimResponse) Body() ([]byte, error) {
	body, err := json.Marshal(r)
	if err != nil {
		return nil, err
	}
	return append(body, '\n'), nil
}

// Response assembles the deterministic result body for a completed job.
// The daemon and the sweep orchestrator's local backend share it, so a
// unit executed in-process reports exactly what a POST /v1/sim would.
func Response(job runner.Job, res sample.Result) SimResponse {
	st := res.Stats
	resp := SimResponse{
		Workload:     job.Spec.Name,
		Config:       job.Config.Name,
		Seeds:        job.Seeds,
		WarmupUops:   job.WarmupUops,
		MeasureUops:  job.MeasureUops,
		Cycles:       st.Cycles,
		Instructions: st.Instructions,
		IPC:          st.IPC(),
		Stats:        st,
	}
	if res.Plan != nil {
		norm := sample.Normalized(*job.Sampling)
		resp.Sampling = &norm
		resp.SampledPoints = len(res.Plan.Points)
		resp.SampledUops = res.Plan.MeasuredUops()
		resp.SamplingErrorBound = res.Plan.ErrorBound
	}
	return resp
}

// errorResponse is the JSON body of every non-2xx response.
type errorResponse struct {
	Error  string `json:"error"`
	Status string `json:"status"` // "invalid", "rejected", "cancelled", "error"
}

// resolvedJob is a validated request plus everything needed to execute it.
type resolvedJob struct {
	req      SimRequest
	job      runner.Job
	traceRaw []byte // decoded trace upload, nil until loadTrace for by-reference traces
	key      string
}

type jobResult struct {
	body    []byte
	st      *stats.Sim
	timings *obs.Timings // per-stage breakdown of the computation, nil on error
	err     error
}

type job struct {
	ctx      context.Context
	resolved *resolvedJob
	tenant   string
	cost     uint64         // TotalUops, the DRR scheduling weight
	enqueued time.Time      // when the job entered the queue (queue-wait histogram)
	result   chan jobResult // buffered; the worker never blocks on it
}

// Server is the rfpsimd daemon state: worker pool, fair-share scheduler,
// cache tiers, metrics.
type Server struct {
	opts      Options
	sched     *scheduler
	wg        sync.WaitGroup
	metrics   *Metrics
	cache     *lru[[]byte]
	disk      *fabric.DiskCache // nil without Options.Fabric.Dir
	flights   fabric.FlightGroup
	traces    *TraceStore
	logger    *slog.Logger
	registry  *obs.Registry
	jobSecs   *obs.Histogram // wall-clock execution latency per job
	queueWait *obs.Histogram // time between enqueue and worker pickup

	mu     sync.RWMutex
	closed bool
}

// New starts the worker pool and returns the server. Callers must Close it
// to drain. It fails only when a configured disk cache cannot be opened
// (e.g. an unwritable -cache-dir).
func New(opts Options) (*Server, error) {
	logger := opts.Logger
	if logger == nil {
		logger = slog.Default()
	}
	registry := opts.Registry
	if registry == nil {
		registry = obs.NewRegistry()
	}
	s := &Server{
		opts:     opts,
		sched:    newScheduler(opts.tenantQueueDepth(), opts.queueDepth()),
		metrics:  &Metrics{},
		cache:    newResultCache(opts.CacheEntries, opts.CacheBytes),
		logger:   logger,
		registry: registry,
		jobSecs: obs.NewHistogram("rfpsimd_job_seconds",
			"Wall-clock execution latency of computed (non-cached) jobs.",
			0.001, 0.005, 0.01, 0.05, 0.1, 0.5, 1, 5, 10, 30, 60),
		queueWait: obs.NewHistogram("rfpsimd_queue_wait_seconds",
			"Time jobs spend queued before a worker picks them up.",
			0.0001, 0.001, 0.01, 0.1, 0.5, 1, 5, 10),
	}
	s.cache.onEvict = func() { s.metrics.cacheEvictions.Add(1) }
	var traceTier TraceDiskTier
	if opts.Fabric.Dir != "" {
		d, err := fabric.OpenDiskCache(opts.Fabric.Dir, opts.Fabric.MaxBytes)
		if err != nil {
			return nil, err
		}
		s.disk, traceTier = d, d
	}
	// The uploaded-trace store keeps its default in-memory bounds (64
	// entries / 256 MiB); with a disk cache, evicted and pre-restart
	// traces keep resolving from disk (docs/traces.md).
	s.traces = NewTraceStore(0, 0, traceTier)
	registry.Register(s.metrics)
	registry.Register(s.jobSecs)
	registry.Register(s.queueWait)
	if s.disk != nil {
		registry.Register(s.disk)
	}
	for i := 0; i < opts.workers(); i++ {
		s.wg.Add(1)
		go s.worker()
	}
	return s, nil
}

// Metrics exposes the counter block (for tests and embedding).
func (s *Server) Metrics() *Metrics { return s.metrics }

// Registry exposes the metrics registry /metrics renders, so embedders
// (cmd/rfpsimd) can co-host extra collectors on the same endpoint.
func (s *Server) Registry() *obs.Registry { return s.registry }

// Close drains the service: no new jobs are accepted, queued and running
// jobs finish (their waiting handlers get results), then the workers
// exit. Call http.Server.Shutdown first so no handler is still trying to
// enqueue.
func (s *Server) Close() {
	s.mu.Lock()
	if !s.closed {
		s.closed = true
		s.sched.close()
	}
	s.mu.Unlock()
	s.wg.Wait()
}

// enqueue adds a job to its tenant's queue unless that queue (or the
// total) is full or the server is draining.
func (s *Server) enqueue(j *job) (ok, draining bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if s.closed {
		return false, true
	}
	ok, draining = s.sched.push(j.tenant, j)
	if ok {
		s.metrics.jobsQueued.Add(1)
	}
	return ok, draining
}

func (s *Server) worker() {
	defer s.wg.Done()
	for {
		j, ok := s.sched.next()
		if !ok {
			return
		}
		s.metrics.jobsQueued.Add(-1)
		s.metrics.jobsRunning.Add(1)
		s.queueWait.Observe(time.Since(j.enqueued).Seconds())
		start := time.Now()
		res := s.execute(j.ctx, j.resolved)
		elapsed := time.Since(start)
		s.metrics.simBusyNanos.Add(uint64(elapsed))
		s.jobSecs.Observe(elapsed.Seconds())
		s.metrics.jobsRunning.Add(-1)
		log := obs.Logger(j.ctx).With(
			"workload", j.resolved.job.Spec.Name,
			"config", j.resolved.job.Config.Name,
			"elapsed", elapsed.Round(time.Microsecond))
		switch {
		case res.err == nil:
			s.metrics.jobsOK.Add(1)
			s.metrics.simCycles.Add(res.st.Cycles)
			s.metrics.l1pfIssued.Add(res.st.L1PF.Issued)
			s.metrics.l1pfUseful.Add(res.st.L1PF.Useful)
			s.metrics.clpPredicted.Add(res.st.CLP.PredictedTotal())
			s.metrics.clpCorrect.Add(res.st.CLP.CorrectTotal())
			s.metrics.clpSkippedDRAM.Add(res.st.CLP.SkippedDRAM)
			s.metrics.clpEarlyArmed.Add(res.st.CLP.EarlyArmed)
			if v := res.st.Checks.Total(); v > 0 {
				s.metrics.checkViolations.Add(v)
				log.Warn("invariant violations", "violations", v)
			}
			log.Info("job done", "status", "ok",
				"cycles", res.st.Cycles, "timings", res.timings.String())
		case errors.Is(res.err, context.Canceled) || errors.Is(res.err, context.DeadlineExceeded):
			s.metrics.jobsCancelled.Add(1)
			log.Warn("job cancelled", "status", "cancelled", "err", res.err.Error())
		default:
			s.metrics.jobsFailed.Add(1)
			if errors.Is(res.err, core.ErrWedged) {
				s.metrics.jobsWedged.Add(1)
			}
			log.Error("job failed", "status", "error", "err", res.err.Error())
		}
		j.result <- res
	}
}

// execute runs one resolved job and marshals (and caches) its response.
// The context already carries the request's run ID and logger; a fresh
// timings collector is attached here so runner/sample fill in the
// per-stage breakdown, which rides back in the jobResult.
func (s *Server) execute(ctx context.Context, rj *resolvedJob) jobResult {
	job := rj.job
	tctx, tim := obs.WithTimings(ctx)
	res, err := sample.RunResult(tctx, job)
	if err != nil {
		return jobResult{err: err}
	}
	resp := Response(job, res)
	body, err := resp.Body()
	if err != nil {
		return jobResult{err: err}
	}
	s.cache.put(rj.key, body, int64(len(body)))
	if s.disk != nil {
		// Best effort: a full disk degrades the daemon to memory-only
		// caching, it does not fail requests.
		if err := s.disk.Put(rj.key, body); err != nil {
			obs.Logger(ctx).Warn("disk cache write failed", "key", rj.key[:12], "err", err.Error())
		}
	}
	return jobResult{body: body, st: res.Stats, timings: tim}
}

// resolve validates a request into an executable job with its cache key,
// loading by-reference trace bytes from the store and enforcing this
// server's per-job size ceiling on top of the shared resolution path (see
// address.go). Failures on trace-sourced requests — bad uploads, unknown
// or undecodable addresses — count into rfpsimd_trace_rejects_total so a
// console polluting the daemon with dead references shows up on
// dashboards.
func (s *Server) resolve(req SimRequest) (*resolvedJob, error) {
	rj, err := s.resolveInner(req)
	if err != nil && (req.TraceB64 != "" || strings.HasPrefix(req.Workload, TraceWorkloadPrefix)) {
		s.metrics.traceRejects.Add(1)
	}
	return rj, err
}

func (s *Server) resolveInner(req SimRequest) (*resolvedJob, error) {
	rj, err := resolveRequest(req)
	if err != nil {
		return nil, err
	}
	if err := rj.loadTrace(s.traces); err != nil {
		return nil, err
	}
	if rj.traceRaw != nil {
		// Attach (and thereby header-validate) the generator at resolve
		// time: an undecodable inline trace is the client's fault and must
		// 400 before a worker is spent on it.
		if err := attachTraceGen(&rj.job, rj.traceRaw); err != nil {
			return nil, err
		}
	}
	if total := rj.job.TotalUops(); total > s.opts.maxJobUops() {
		return nil, fmt.Errorf("job size %d uops exceeds the per-job limit of %d", total, s.opts.maxJobUops())
	}
	return rj, nil
}

// Traces exposes the uploaded-trace store (for embedding: the console
// submits through it, tests seed it).
func (s *Server) Traces() *TraceStore { return s.traces }

// Handler returns the HTTP API: POST /v1/sim, POST/GET /v1/traces,
// GET /v1/traces/{addr}, GET /v1/workloads, GET /healthz, GET /metrics.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/sim", s.handleSim)
	mux.HandleFunc("/v1/traces", s.handleTraces)
	mux.HandleFunc("/v1/traces/", s.handleTraceByAddr)
	mux.HandleFunc("/v1/workloads", s.handleWorkloads)
	mux.HandleFunc("/healthz", s.handleHealthz)
	mux.HandleFunc("/metrics", s.handleMetrics)
	return mux
}

// Retry-After advice (in seconds) attached to backpressure responses. A
// full queue clears as soon as a worker frees up, so clients should probe
// again quickly; a draining server is going away, so clients should give
// the replacement time to come up (or move to another endpoint at once).
const (
	retryAfterQueueFull = "1"
	retryAfterDrain     = "30"
)

func writeJSONError(w http.ResponseWriter, code int, status, msg string) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(errorResponse{Error: msg, Status: status})
}

// Admission-rejection sentinels. The single-flight leader resolves its
// flight with one of these when the queue refuses the job, so coalesced
// followers report the same backpressure status the leader did.
var (
	errQueueFull = errors.New("job queue is full, retry later")
	errDraining  = errors.New("server is draining")
)

// tenantFrom sanitizes the fair-share tenant header: 1-64 chars of
// [A-Za-z0-9._-]; anything else (including absence) buckets under
// DefaultTenant. The charset bound keeps tenant names log- and
// label-safe.
func tenantFrom(h string) string {
	if h == "" || len(h) > 64 {
		return DefaultTenant
	}
	for i := 0; i < len(h); i++ {
		c := h[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9',
			c == '.', c == '_', c == '-':
		default:
			return DefaultTenant
		}
	}
	return h
}

// writeResult writes a deterministic result body with its serving-tier
// header.
func writeResult(w http.ResponseWriter, tier string, body []byte) {
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set(CacheHeader, tier)
	w.Write(body)
}

// writeJobError maps a job/flight error onto the response contract shared
// by leaders and coalesced followers.
func writeJobError(w http.ResponseWriter, err error) {
	switch {
	case errors.Is(err, errQueueFull):
		w.Header().Set("Retry-After", retryAfterQueueFull)
		writeJSONError(w, http.StatusTooManyRequests, "rejected", err.Error())
	case errors.Is(err, errDraining):
		w.Header().Set("Retry-After", retryAfterDrain)
		writeJSONError(w, http.StatusServiceUnavailable, "rejected", err.Error())
	case errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded):
		writeJSONError(w, http.StatusRequestTimeout, "cancelled", err.Error())
	default:
		writeJSONError(w, http.StatusInternalServerError, "error", err.Error())
	}
}

// RequestError marks a Do failure as a client error: the request itself
// was invalid (unknown workload, malformed trace, over-limit job), as
// opposed to backpressure or an execution failure. The HTTP layer maps it
// to 400; the console surfaces it synchronously at submit time.
type RequestError struct {
	// Err is the underlying validation error.
	Err error
}

// Error implements error.
func (e *RequestError) Error() string { return e.Err.Error() }

// Unwrap exposes the underlying error to errors.Is/As.
func (e *RequestError) Unwrap() error { return e.Err }

// DoResult is a completed Do call.
type DoResult struct {
	// Body is the deterministic SimResponse JSON (newline-terminated),
	// byte-identical across serving tiers.
	Body []byte
	// Tier reports which tier served the body: "hit", "disk", "dedup"
	// or "miss" (the CacheHeader values).
	Tier string
	// Timings is the per-stage wall-clock breakdown of a computed
	// ("miss") result; nil for cache-replayed tiers.
	Timings *obs.Timings
	// Key is the request's content address.
	Key string
}

// Do resolves and executes one request through the full serving path —
// memory cache, disk tier, single-flight dedup, then fair-share
// admission and simulation — and returns the deterministic
// body with its serving tier. It is the programmatic twin of POST
// /v1/sim: the HTTP handler and the embedded console both call it, so an
// in-process submission hits exactly the tiers, metrics and logs an HTTP
// one would. The context carries cancellation (client disconnect, console
// shutdown) plus the obs run ID/logger; request timeouts are layered on
// top here. Invalid requests return a *RequestError; backpressure returns
// errQueueFull/errDraining (writeJobError maps both for HTTP callers).
func (s *Server) Do(ctx context.Context, req SimRequest, tenant string) (*DoResult, error) {
	log := obs.Logger(ctx)
	rj, err := s.resolve(req)
	if err != nil {
		log.Debug("request rejected", "status", "invalid", "err", err.Error())
		return nil, &RequestError{Err: err}
	}
	if tenant == "" {
		tenant = DefaultTenant
	}
	log = log.With("workload", rj.job.Spec.Name, "config", rj.job.Config.Name, "tenant", tenant)

	// Tier 1: this daemon's memory cache.
	if body, ok := s.cache.get(rj.key); ok {
		s.metrics.cacheHits.Add(1)
		log.Info("job served from cache", "tier", "memory", "key", rj.key[:12])
		return &DoResult{Body: body, Tier: "hit", Key: rj.key}, nil
	}
	// Tier 2: the persistent disk cache (promoted into memory on hit).
	if s.disk != nil {
		if body, ok := s.disk.Get(rj.key); ok {
			s.cache.put(rj.key, body, int64(len(body)))
			log.Info("job served from cache", "tier", "disk", "key", rj.key[:12])
			return &DoResult{Body: body, Tier: "disk", Key: rj.key}, nil
		}
	}

	// Single-flight: concurrent identical requests coalesce onto one
	// computation. Followers wait for the leader's result; the leader is
	// responsible for resolving the flight on EVERY exit path below.
	fl, leader := s.flights.Join(rj.key)
	if !leader {
		s.metrics.fabricDedup.Add(1)
		body, err := fl.Wait(ctx)
		if err != nil {
			return nil, err
		}
		log.Info("job coalesced onto concurrent identical request", "key", rj.key[:12])
		return &DoResult{Body: body, Tier: "dedup", Key: rj.key}, nil
	}
	completed := false
	complete := func(body []byte, err error) {
		if !completed {
			completed = true
			s.flights.Complete(rj.key, fl, body, err)
		}
	}
	defer complete(nil, errors.New("request aborted before completion"))

	// Tier 3: simulate, through fair-share admission.
	s.metrics.cacheMisses.Add(1)
	log.Info("job accepted", "key", rj.key[:12], "total_uops", rj.job.TotalUops())

	// Caller cancellation propagates into the worker, runner and sample
	// layers through the job's context.
	if req.TimeoutMS > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, time.Duration(req.TimeoutMS)*time.Millisecond)
		defer cancel()
	} else if s.opts.DefaultTimeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, s.opts.DefaultTimeout)
		defer cancel()
	}

	j := &job{
		ctx: ctx, resolved: rj, tenant: tenant, cost: rj.job.TotalUops(),
		enqueued: time.Now(), result: make(chan jobResult, 1),
	}
	if ok, draining := s.enqueue(j); !ok {
		s.metrics.jobsRejected.Add(1)
		err := errQueueFull
		if draining {
			err = errDraining
		}
		complete(nil, err)
		return nil, err
	}

	// The worker always replies: cancellation propagates through ctx into
	// the simulation loop, which aborts within a context-poll interval.
	res := <-j.result
	complete(res.body, res.err)
	if res.err != nil {
		return nil, res.err
	}
	return &DoResult{Body: res.body, Tier: "miss", Timings: res.timings, Key: rj.key}, nil
}

func (s *Server) handleSim(w http.ResponseWriter, r *http.Request) {
	// The run ID is minted (or adopted from the client) before anything
	// can fail, so even a 400 response carries the ID its log line has.
	runID := r.Header.Get(RunIDHeader)
	if !obs.ValidRunID(runID) {
		runID = obs.NewRunID()
	}
	w.Header().Set(RunIDHeader, runID)

	if r.Method != http.MethodPost {
		writeJSONError(w, http.StatusMethodNotAllowed, "invalid", "POST only")
		return
	}
	var req SimRequest
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, 64<<20))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		writeJSONError(w, http.StatusBadRequest, "invalid", "bad request body: "+err.Error())
		return
	}

	// Client disconnect cancels the job; the run ID and logger ride the
	// same context into Do and from there into the worker, runner and
	// sample layers.
	ctx := obs.WithLogger(obs.WithRunID(r.Context(), runID), s.logger)
	res, err := s.Do(ctx, req, tenantFrom(r.Header.Get(TenantHeader)))
	if err != nil {
		var reqErr *RequestError
		if errors.As(err, &reqErr) {
			writeJSONError(w, http.StatusBadRequest, "invalid", err.Error())
			return
		}
		writeJobError(w, err)
		return
	}
	if res.Timings != nil {
		w.Header().Set(TimingsHeader, res.Timings.String())
	}
	writeResult(w, res.Tier, res.Body)
}

func (s *Server) handleWorkloads(w http.ResponseWriter, r *http.Request) {
	type entry struct {
		Name     string `json:"name"`
		Category string `json:"category"`
	}
	var out []entry
	for _, c := range trace.Categories() {
		for _, spec := range trace.ByCategory(c) {
			out = append(out, entry{Name: spec.Name, Category: string(spec.Category)})
		}
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(out)
}

// handleHealthz serves the Status snapshot the console polls, plus
// "status": "ok", or "draining" with a 503 and Retry-After.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	st := s.Status()
	status := "ok"
	code := http.StatusOK
	if st.Draining {
		status = "draining"
		code = http.StatusServiceUnavailable
		w.Header().Set("Retry-After", retryAfterDrain)
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(struct {
		State string `json:"status"`
		Status
	}{status, st})
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	s.registry.Handler().ServeHTTP(w, r)
}
