package sweep

import (
	"context"
	"time"

	"rfpsim/internal/service"
)

// Backend executes one sweep unit to completion. Implementations own
// their transient-failure handling (the HTTP backend retries and fails
// over internally); an error returned here is terminal for the unit.
type Backend interface {
	// Run executes the unit and returns its deterministic result.
	Run(ctx context.Context, u Unit) (*service.SimResponse, error)
	// Name labels the backend in metrics and progress output.
	Name() string
}

// LocalBackend runs units in-process through internal/sample (which is
// internal/runner for full-window units) — the exact code path a POST
// /v1/sim executes on a daemon, so a sweep run locally and the same sweep
// run against a fleet produce identical CSVs.
//
// When the context carries a family (sweep.Run puts one in each member's
// context), the first call for any of its members runs the whole family
// through sample.RunFamily: one profile and one fast-forward pass for
// all of them. That call, and its context's timings collector, pays for
// the family; the other members' calls return their stored results at
// once.
type LocalBackend struct {
	// Metrics, when set, records per-unit latency under the "local"
	// backend label.
	Metrics *Metrics
	// Traces, when set, supplies the bytes behind "trace:<sha256>"
	// workload references (rfpsweep -traces fills it). Nil makes such
	// units fail resolution with an "unknown trace address" error.
	Traces *service.TraceStore
}

// Name implements Backend.
func (LocalBackend) Name() string { return "local" }

// Run implements Backend.
func (b LocalBackend) Run(ctx context.Context, u Unit) (*service.SimResponse, error) {
	f := contextFamily(ctx)
	if f == nil || !f.has(u.Key) {
		f = newFamily([]Unit{u})
	}
	start := time.Now()
	f.once.Do(func() { f.run(ctx, b.Traces) })
	resp, err := f.resps[u.Key], f.errs[u.Key]
	if b.Metrics != nil {
		b.Metrics.observe(b.Name(), time.Since(start), err != nil)
	}
	return resp, err
}
