package obs

import (
	"context"
	"net/http"
	"net/http/pprof"
	runtimepprof "runtime/pprof"
)

// RegisterPprof mounts the net/http/pprof handlers under /debug/pprof/ on
// the mux. It is deliberately a separate, opt-in call (rfpsimd's -pprof
// flag) rather than an import side effect on http.DefaultServeMux:
// profiling endpoints expose heap contents and must never be reachable
// unless the operator asked for them.
func RegisterPprof(mux *http.ServeMux) {
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
}

// LabelJob labels the calling goroutine for one job and returns ctx
// carrying the same pprof labels, which the job's stages take: run_id
// (ctx's run ID), workload and, unless config is "", config. A CPU
// profile of a busy daemon then splits by job (go tool pprof -tagfocus
// run_id=<id>), and BeginStage adds the stage. Without a run ID it
// returns ctx and sets nothing, so a batch run pays one context lookup
// and no allocation. The caller restores its own labels with
// RestoreLabels(ctx) when the job returns.
func LabelJob(ctx context.Context, workload, config string) context.Context {
	id := RunID(ctx)
	if id == "" {
		return ctx
	}
	kv := []string{"run_id", id, "workload", workload, "config", config}
	if config == "" {
		kv = kv[:4]
	}
	ctx = runtimepprof.WithLabels(ctx, runtimepprof.Labels(kv...))
	runtimepprof.SetGoroutineLabels(ctx)
	return ctx
}

// RestoreLabels sets the labels ctx carries on the calling goroutine,
// when ctx carries a run ID: a job's caller gets its own labels back.
func RestoreLabels(ctx context.Context) {
	if RunID(ctx) != "" {
		runtimepprof.SetGoroutineLabels(ctx)
	}
}
