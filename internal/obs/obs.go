// Package obs is the shared observability layer: every serving and batch
// surface in the stack (rfpsimd, rfpsweep, rfpsim) emits its
// telemetry through this package so a simulation can be followed across
// process boundaries with one run ID, one metrics registry and one
// per-stage timing breakdown.
//
// It provides five things, all carried through context.Context so the
// core pipeline stays free of observability imports except at its seams:
//
//   - run IDs (NewRunID / WithRunID / RunID): generated at the rfpsimd
//     API boundary (or by the sweep orchestrator per unit) and attached
//     to every log line downstream;
//   - structured logging (Logger / WithLogger / NewLogger): log/slog
//     loggers that automatically pick up the context's run ID;
//   - a Prometheus registry (Registry / Collector / Histogram and the
//     text-exposition helpers): one /metrics code path shared by the
//     daemon and the sweep orchestrator instead of per-package emitters;
//   - per-stage timings (Timings / WithTimings / ContextTimings): the
//     profile / fastforward / warmup / measure / aggregate wall-clock
//     breakdown internal/runner and internal/sample fill in through
//     BeginStage … End, surfaced in rfpsimd response headers, sweep
//     timing CSVs and rfpsim -v;
//   - pprof labels (LabelJob / RestoreLabels, and stage from
//     BeginStage): under a run ID one CPU profile of the daemon
//     (RegisterPprof) splits by job and stage.
//
// See docs/observability.md for the full metric, label and log-field
// inventory and docs/architecture.md for where this layer sits.
package obs

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	mathrand "math/rand"
)

type ctxKey int

const (
	ctxKeyRunID ctxKey = iota
	ctxKeyLogger
	ctxKeyTimings
)

// NewRunID returns a fresh 16-hex-character run identifier. IDs are
// random, not sequential: they correlate log lines across processes, so
// two daemons must never mint the same ID for different jobs.
func NewRunID() string {
	var b [8]byte
	if _, err := rand.Read(b[:]); err != nil {
		// crypto/rand failing is effectively unheard of; fall back to a
		// weaker source rather than refusing to serve.
		for i := range b {
			b[i] = byte(mathrand.Int())
		}
	}
	return hex.EncodeToString(b[:])
}

// ValidRunID reports whether id is acceptable as a caller-supplied run ID
// (propagated from a request header into logs): 1-64 characters from
// [0-9a-zA-Z_-]. Anything else is discarded and replaced by NewRunID so
// log injection through the header is impossible.
func ValidRunID(id string) bool {
	if len(id) == 0 || len(id) > 64 {
		return false
	}
	for i := 0; i < len(id); i++ {
		c := id[i]
		switch {
		case c >= '0' && c <= '9', c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c == '_', c == '-':
		default:
			return false
		}
	}
	return true
}

// WithRunID returns a context carrying the run ID. Logger extracts it, so
// every log line below this point is correlated.
func WithRunID(ctx context.Context, id string) context.Context {
	return context.WithValue(ctx, ctxKeyRunID, id)
}

// RunID returns the context's run ID, or "" when none was attached.
func RunID(ctx context.Context) string {
	id, _ := ctx.Value(ctxKeyRunID).(string)
	return id
}
