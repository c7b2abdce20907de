package service

import (
	"crypto/sha256"
	"encoding/base64"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"strings"

	"rfpsim/internal/fabric"
	"rfpsim/internal/runner"
	"rfpsim/internal/sample"
	"rfpsim/internal/trace"
	"rfpsim/internal/tracefile"
)

// normalized returns the request with the documented defaults applied:
// 30000/60000-uop windows, a single seed, and the internal/sample
// defaults inside a sampling spec. Content addressing always runs on the
// normalized form, so a request that spells the defaults out and one that
// omits them share a cache entry.
func (req SimRequest) normalized() SimRequest {
	if req.WarmupUops == 0 {
		req.WarmupUops = 30000
	}
	if req.MeasureUops == 0 {
		req.MeasureUops = 60000
	}
	if req.Seeds < 1 {
		req.Seeds = 1
	}
	if req.Sampling != nil {
		norm := sample.Normalized(*req.Sampling)
		req.Sampling = &norm
	}
	return req
}

// resolveRequest validates a request into an executable job plus its
// content address. It is the single resolution path: the daemon, the
// exported ResolveJob/ContentAddress helpers and (through them) the sweep
// orchestrator all agree on what a request means and how it is keyed.
func resolveRequest(req SimRequest) (*resolvedJob, error) {
	if (req.Workload == "") == (req.TraceB64 == "") {
		return nil, errors.New("exactly one of workload and trace_b64 must be set")
	}
	req = req.normalized()
	cfg, err := req.Config.Build()
	if err != nil {
		return nil, err
	}

	rj := &resolvedJob{req: req}
	workloadKey := ""
	switch {
	case req.Workload != "" && strings.HasPrefix(req.Workload, TraceWorkloadPrefix):
		// A reference to a previously uploaded trace (POST /v1/traces).
		// The key is identical to an inline trace_b64 upload of the same
		// bytes — the address IS the content digest — so the two
		// submission paths share cache entries by construction.
		addr := strings.TrimPrefix(req.Workload, TraceWorkloadPrefix)
		if !fabric.ValidAddr(addr) {
			return nil, fmt.Errorf("malformed trace address %q (want the 64-hex sha256 from POST /v1/traces)", addr)
		}
		if req.Seeds > 1 {
			return nil, errors.New("seed replication requires a catalog workload, not an uploaded trace")
		}
		rj.traceAddr = addr
		rj.job.Spec = trace.Spec{Name: TraceWorkloadPrefix + addr[:16], Category: "trace-file"}
		workloadKey = TraceWorkloadPrefix + addr
	case req.Workload != "":
		spec, ok := trace.ByName(req.Workload)
		if !ok {
			return nil, fmt.Errorf("unknown workload %q (GET /v1/workloads lists the suite)", req.Workload)
		}
		rj.job.Spec = spec
		workloadKey = fmt.Sprintf("workload:%s:seed:%d", spec.Name, spec.Seed)
	default:
		raw, err := base64.StdEncoding.DecodeString(req.TraceB64)
		if err != nil {
			return nil, fmt.Errorf("trace_b64 is not valid base64: %w", err)
		}
		if req.Seeds > 1 {
			return nil, errors.New("seed replication requires a catalog workload, not an uploaded trace")
		}
		addr := TraceAddress(raw)
		rj.traceRaw = raw
		rj.traceAddr = addr
		rj.job.Spec = trace.Spec{Name: TraceWorkloadPrefix + addr[:16], Category: "trace-file"}
		workloadKey = TraceWorkloadPrefix + addr
	}
	rj.job.Config = cfg
	rj.job.WarmupUops = req.WarmupUops
	rj.job.MeasureUops = req.MeasureUops
	rj.job.Seeds = req.Seeds
	rj.job.ColdCaches = req.ColdCaches
	rj.job.Sampling = req.Sampling
	if req.Sampling != nil {
		// Trace-sourced jobs sample too: attachTraceGen attaches a NewGen
		// factory that re-decodes the stored bytes, which is the
		// re-instantiable, forkable stream sampling needs
		// (internal/sample), and validates again once it is attached.
		if err := sample.Validate(rj.job); err != nil {
			return nil, err
		}
	}

	// The cache key addresses the simulation's full input: the resolved
	// configuration (digested field by field), the workload spec and base
	// seed (or trace content digest), the windows, the replica count, and
	// cache warming. A sampled request additionally keys the normalized
	// sampling parameters — a sampled result is an estimator with its own
	// bias, so it must never be served from (or poison) the cache entry of
	// the full-window run it approximates. Determinism makes identical
	// keys identical results.
	cfgJSON, err := json.Marshal(cfg)
	if err != nil {
		return nil, err
	}
	h := sha256.New()
	fmt.Fprintf(h, "config:%s|%s|warmup:%d|measure:%d|seeds:%d|cold:%t",
		cfgJSON, workloadKey, req.WarmupUops, req.MeasureUops, req.Seeds, req.ColdCaches)
	if sp := req.Sampling; sp != nil {
		fmt.Fprintf(h, "|sampling:interval:%d:maxk:%d:warmup:%d",
			sp.IntervalUops, sp.MaxK, sp.WarmupUops)
	}
	rj.key = hex.EncodeToString(h.Sum(nil))
	return rj, nil
}

// ResolveJob validates a request into the runner job it would execute and
// the content address the daemon's result cache files it under. Trace
// uploads get their generator attached, so the returned job is directly
// runnable via sample.RunResult (which is runner.Run for full-window jobs);
// callers outside the daemon (cmd/rfpsweep's local backend) therefore
// execute the exact code path a POST /v1/sim would, producing
// bit-identical statistics. Requests referencing an uploaded trace by
// address ("trace:<sha256>") need a store to resolve the bytes — use
// ResolveJobWith.
func ResolveJob(req SimRequest) (runner.Job, string, error) {
	return ResolveJobWith(req, nil)
}

// ResolveJobWith is ResolveJob with a trace store supplying the bytes
// behind "trace:<sha256>" workload references (nil rejects such
// references). The sweep local backend passes its store here so
// trace-sourced sweep units run without a daemon.
func ResolveJobWith(req SimRequest, traces *TraceStore) (runner.Job, string, error) {
	rj, err := resolveRequest(req)
	if err != nil {
		return runner.Job{}, "", err
	}
	if err := rj.loadTrace(traces); err != nil {
		return runner.Job{}, "", err
	}
	job := rj.job
	if rj.traceRaw != nil {
		if err := attachTraceGen(&job, rj.traceRaw); err != nil {
			return runner.Job{}, "", err
		}
	}
	return job, rj.key, nil
}

// loadTrace fills traceRaw for a by-reference trace workload from the
// store (inline trace_b64 uploads already carry their bytes).
func (rj *resolvedJob) loadTrace(traces *TraceStore) error {
	if rj.traceRaw != nil || rj.traceAddr == "" {
		return nil
	}
	if traces == nil {
		return fmt.Errorf("unknown trace address %s (no trace store attached)", rj.traceAddr)
	}
	raw, _, ok := traces.Get(rj.traceAddr)
	if !ok {
		return fmt.Errorf("unknown trace address %s (upload the trace via POST /v1/traces first)", rj.traceAddr)
	}
	rj.traceRaw = raw
	return nil
}

// attachTraceGen attaches a tracefile.Factory over raw as the job's
// generator: every call re-decodes the same bytes and every reader is
// forkable, so sampled execution can profile the stream and then fork a
// replay core at every interval. Seed replicas are structurally
// impossible (the runner rejects NewGen with Seeds > 1). A sampled job is
// re-validated with the factory attached, so a source sampling cannot
// fork fails here, at resolve time.
func attachTraceGen(job *runner.Job, raw []byte) error {
	newGen, err := tracefile.Factory(raw, job.Spec.Name)
	if err != nil {
		return fmt.Errorf("bad trace upload: %w", err)
	}
	job.NewGen = newGen
	return sample.Validate(*job)
}

// ContentAddress returns the daemon's cache key for a request: the SHA-256
// over the fully resolved configuration, the workload identity (catalog
// name and base seed, or the trace digest), the normalized windows, the
// replica count and the cold-caches flag. It is exported so sweep
// deduplication and checkpointing key units exactly the way the rfpsimd
// result cache does — the key format is pinned by a test and must not
// drift.
func ContentAddress(req SimRequest) (string, error) {
	rj, err := resolveRequest(req)
	if err != nil {
		return "", err
	}
	return rj.key, nil
}
