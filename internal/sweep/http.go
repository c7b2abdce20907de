package sweep

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"strconv"
	"sync"
	"time"

	"rfpsim/internal/obs"
	"rfpsim/internal/service"
)

// HTTPBackendOptions tunes the remote backend's failover behaviour.
type HTTPBackendOptions struct {
	// MaxAttempts bounds tries per unit across all endpoints (0 = 8).
	MaxAttempts int
	// BaseBackoff seeds the exponential backoff (0 = 100ms).
	BaseBackoff time.Duration
	// MaxBackoff caps a single backoff or Retry-After wait (0 = 10s).
	MaxBackoff time.Duration
	// Client is the HTTP client (nil = a client with no overall timeout;
	// per-unit deadlines come from the request's timeout_ms via ctx).
	Client *http.Client
	// Metrics, when set, records per-endpoint request counts and latency.
	Metrics *Metrics
}

func (o HTTPBackendOptions) maxAttempts() int {
	if o.MaxAttempts > 0 {
		return o.MaxAttempts
	}
	return 8
}

func (o HTTPBackendOptions) baseBackoff() time.Duration {
	if o.BaseBackoff > 0 {
		return o.BaseBackoff
	}
	return 100 * time.Millisecond
}

func (o HTTPBackendOptions) maxBackoff() time.Duration {
	if o.MaxBackoff > 0 {
		return o.MaxBackoff
	}
	return 10 * time.Second
}

// endpoint is one rfpsimd instance plus its health state. An endpoint
// that rejects or errors is put on cooldown — honouring an explicit
// Retry-After when the daemon sent one, exponential in its consecutive
// failures otherwise — so the balancer steers units to healthy endpoints
// instead of hammering a full queue.
type endpoint struct {
	url string

	mu        sync.Mutex
	coolUntil time.Time
	failures  int // consecutive failures, reset on success
}

func (e *endpoint) availableAt() time.Time {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.coolUntil
}

func (e *endpoint) markSuccess() {
	e.mu.Lock()
	e.failures = 0
	e.coolUntil = time.Time{}
	e.mu.Unlock()
}

// markCooldown records a failure and applies the given cooldown (already
// jittered/capped by the caller).
func (e *endpoint) markCooldown(d time.Duration) {
	e.mu.Lock()
	e.failures++
	until := time.Now().Add(d)
	if until.After(e.coolUntil) {
		e.coolUntil = until
	}
	e.mu.Unlock()
}

// HTTPBackend executes units against a fleet of rfpsimd endpoints with
// round-robin load balancing, per-endpoint health tracking, bounded
// retries with jittered exponential backoff, and 429/503 backpressure
// honoured via Retry-After.
type HTTPBackend struct {
	opts      HTTPBackendOptions
	endpoints []*endpoint
	client    *http.Client
	next      uint64
	nextMu    sync.Mutex
}

// NewHTTPBackend builds the backend over one or more rfpsimd base URLs
// (e.g. "http://host:8080").
func NewHTTPBackend(urls []string, opts HTTPBackendOptions) (*HTTPBackend, error) {
	if len(urls) == 0 {
		return nil, errors.New("sweep: http backend needs at least one endpoint")
	}
	b := &HTTPBackend{opts: opts, client: opts.Client}
	if b.client == nil {
		b.client = &http.Client{}
	}
	for _, u := range urls {
		b.endpoints = append(b.endpoints, &endpoint{url: u})
	}
	return b, nil
}

// Name implements Backend.
func (b *HTTPBackend) Name() string { return fmt.Sprintf("http(%d endpoints)", len(b.endpoints)) }

// pick chooses the next endpoint round-robin, preferring ones off
// cooldown. If the whole fleet is cooling down it returns the one that
// recovers soonest plus how long to wait for it.
func (b *HTTPBackend) pick() (*endpoint, time.Duration) {
	b.nextMu.Lock()
	start := b.next
	b.next++
	b.nextMu.Unlock()

	now := time.Now()
	var soonest *endpoint
	var soonestAt time.Time
	for i := 0; i < len(b.endpoints); i++ {
		e := b.endpoints[(start+uint64(i))%uint64(len(b.endpoints))]
		at := e.availableAt()
		if !at.After(now) {
			return e, 0
		}
		if soonest == nil || at.Before(soonestAt) {
			soonest, soonestAt = e, at
		}
	}
	return soonest, time.Until(soonestAt)
}

// backoff returns the jittered exponential cooldown for the n-th
// consecutive failure (n >= 1): base*2^(n-1), x0.5–1.5 jitter, capped.
func (b *HTTPBackend) backoff(n int) time.Duration {
	d := b.opts.baseBackoff() << (n - 1)
	if max := b.opts.maxBackoff(); d > max || d <= 0 {
		d = max
	}
	d = time.Duration(float64(d) * (0.5 + rand.Float64()))
	if max := b.opts.maxBackoff(); d > max {
		d = max
	}
	return d
}

// retryAfter parses a Retry-After header (delta-seconds form) into the
// endpoint cooldown, capped at MaxBackoff; ok is false when absent.
func (b *HTTPBackend) retryAfter(h string) (time.Duration, bool) {
	if h == "" {
		return 0, false
	}
	secs, err := strconv.Atoi(h)
	if err != nil || secs < 0 {
		return 0, false
	}
	d := time.Duration(secs) * time.Second
	if max := b.opts.maxBackoff(); d > max {
		d = max
	}
	return d, true
}

// sleep waits d unless the context ends first.
func sleep(ctx context.Context, d time.Duration) error {
	if d <= 0 {
		return ctx.Err()
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-t.C:
		return nil
	}
}

// errPermanent marks responses that retrying cannot fix (4xx validation).
type errPermanent struct{ err error }

// Error returns the wrapped error's message.
func (e errPermanent) Error() string { return e.err.Error() }

// Unwrap exposes the wrapped error to errors.Is/As.
func (e errPermanent) Unwrap() error { return e.err }

// Run implements Backend: round-robin over healthy endpoints, retrying
// transient failures (429/503 backpressure, 5xx, transport errors) up to
// MaxAttempts times before giving up on the unit.
func (b *HTTPBackend) Run(ctx context.Context, u Unit) (*service.SimResponse, error) {
	body, err := json.Marshal(u.Req)
	if err != nil {
		return nil, err
	}
	var lastErr error
	for attempt := 1; attempt <= b.opts.maxAttempts(); attempt++ {
		if attempt > 1 && b.opts.Metrics != nil {
			b.opts.Metrics.retried.Add(1)
		}
		e, wait := b.pick()
		if err := sleep(ctx, wait); err != nil {
			return nil, err
		}
		resp, err := b.post(ctx, e, body)
		if err == nil {
			return resp, nil
		}
		// Cancellation is terminal, never a retryable endpoint failure:
		// either our own context ended, or the attempt was cancelled
		// mid-flight (the unit's deadline fired inside the transport) —
		// retrying a cancelled unit on another endpoint only duplicates
		// abandoned work.
		if ctx.Err() != nil {
			return nil, ctx.Err()
		}
		if errors.Is(err, context.Canceled) {
			return nil, err
		}
		var perm errPermanent
		if errors.As(err, &perm) {
			return nil, perm.err
		}
		lastErr = err
	}
	return nil, fmt.Errorf("sweep: unit %s failed after %d attempts: %w", u.Label, b.opts.maxAttempts(), lastErr)
}

// post sends the unit to one endpoint and classifies the outcome,
// updating the endpoint's health state.
func (b *HTTPBackend) post(ctx context.Context, e *endpoint, body []byte) (*service.SimResponse, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, e.url+"/v1/sim", bytes.NewReader(body))
	if err != nil {
		return nil, errPermanent{err}
	}
	req.Header.Set("Content-Type", "application/json")
	// Forward the unit's run ID so the daemon's job logs carry the same
	// ID as the orchestrator's unit logs — one grep follows a unit across
	// both processes.
	if id := obs.RunID(ctx); id != "" {
		req.Header.Set(service.RunIDHeader, id)
	}
	start := time.Now()
	resp, err := b.client.Do(req)
	if b.opts.Metrics != nil {
		defer func() { b.opts.Metrics.observe(e.url, time.Since(start), err != nil) }()
	}
	if err != nil {
		// A cancelled request (unit deadline, sweep shutdown) says nothing
		// about the endpoint: report it without touching health state.
		if ctx.Err() != nil {
			return nil, context.Cause(ctx)
		}
		e.mu.Lock()
		n := e.failures + 1
		e.mu.Unlock()
		e.markCooldown(b.backoff(n))
		return nil, fmt.Errorf("%s: %w", e.url, err)
	}
	defer resp.Body.Close()
	raw, readErr := io.ReadAll(io.LimitReader(resp.Body, 64<<20))
	if readErr != nil {
		err = fmt.Errorf("%s: reading response: %w", e.url, readErr)
		e.markCooldown(b.backoff(1))
		return nil, err
	}
	switch resp.StatusCode {
	case http.StatusOK:
		var sr service.SimResponse
		if jsonErr := json.Unmarshal(raw, &sr); jsonErr != nil {
			err = fmt.Errorf("%s: bad response body: %w", e.url, jsonErr)
			return nil, err
		}
		// A computed response carries the daemon's per-stage timing
		// breakdown in a header (cache replays do not — the cost was paid
		// by an earlier request). Merge it into the caller's collector so
		// sweep timing CSVs work identically across backends.
		if t := obs.ContextTimings(ctx); t != nil {
			if h := resp.Header.Get(service.TimingsHeader); h != "" {
				if parsed, perr := obs.ParseTimings(h); perr == nil {
					t.Merge(parsed)
				}
			}
		}
		e.markSuccess()
		return &sr, nil
	case http.StatusTooManyRequests, http.StatusServiceUnavailable:
		// Backpressure: the daemon told us how long to stay away.
		d, ok := b.retryAfter(resp.Header.Get("Retry-After"))
		if !ok {
			e.mu.Lock()
			n := e.failures + 1
			e.mu.Unlock()
			d = b.backoff(n)
		}
		e.markCooldown(d)
		err = fmt.Errorf("%s: %d backpressure: %s", e.url, resp.StatusCode, bytes.TrimSpace(raw))
		return nil, err
	case http.StatusBadRequest, http.StatusMethodNotAllowed, http.StatusNotFound:
		// The fleet will reject this unit everywhere; do not retry.
		err = errPermanent{fmt.Errorf("%s: %d: %s", e.url, resp.StatusCode, bytes.TrimSpace(raw))}
		return nil, err
	default:
		// 408 (cancelled), 500 (sim error) and anything else transient:
		// another endpoint (or a later retry) may still succeed.
		e.mu.Lock()
		n := e.failures + 1
		e.mu.Unlock()
		e.markCooldown(b.backoff(n))
		err = fmt.Errorf("%s: %d: %s", e.url, resp.StatusCode, bytes.TrimSpace(raw))
		return nil, err
	}
}
