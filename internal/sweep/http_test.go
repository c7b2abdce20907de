package sweep

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"
)

// fakeResult is a minimal valid SimResponse body for fake endpoints that
// never run a simulator.
const fakeResult = `{"workload":"spec06_mcf","config":"c","seeds":1,"warmup_uops":1,"measure_uops":1,"cycles":7,"instructions":9,"ipc":1.28}`

// TestRunCancellationIsTerminal pins the satellite contract: a context
// cancelled mid-attempt ends the unit immediately instead of burning the
// remaining retries against other endpoints.
func TestRunCancellationIsTerminal(t *testing.T) {
	var calls atomic.Int32
	started := make(chan struct{}, 8)
	release := make(chan struct{})
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls.Add(1)
		started <- struct{}{}
		select {
		case <-release:
		case <-r.Context().Done():
		}
	}))
	defer ts.Close()
	defer close(release) // before ts.Close: the unread POST body hides client hang-ups from the handler

	be, err := NewHTTPBackend([]string{ts.URL}, HTTPBackendOptions{
		MaxAttempts: 8, BaseBackoff: time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		<-started
		cancel()
	}()
	_, err = be.Run(ctx, testUnits(t)[0])
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("Run returned %v, want context.Canceled", err)
	}
	if got := calls.Load(); got != 1 {
		t.Errorf("cancelled unit made %d attempts, want 1", got)
	}
}

// TestEndpointHealthRecovery pins the health state machine: consecutive
// failures stack cooldown, and one success fully resets the endpoint —
// failure count and cooldown both — so a recovered daemon rejoins the
// rotation at full weight.
func TestEndpointHealthRecovery(t *testing.T) {
	var fails atomic.Int32
	fails.Store(2)
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if fails.Add(-1) >= 0 {
			w.WriteHeader(http.StatusInternalServerError)
			fmt.Fprintln(w, `{"error":"boom","status":"error"}`)
			return
		}
		fmt.Fprint(w, fakeResult)
	}))
	defer ts.Close()

	be, err := NewHTTPBackend([]string{ts.URL}, HTTPBackendOptions{
		BaseBackoff: 10 * time.Millisecond, MaxBackoff: 50 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	e := be.endpoints[0]
	for i := 1; i <= 2; i++ {
		if _, err := be.post(context.Background(), e, []byte(`{}`)); err == nil {
			t.Fatalf("failure %d did not error", i)
		}
		e.mu.Lock()
		failures := e.failures
		e.mu.Unlock()
		if failures != i {
			t.Fatalf("after failure %d: failures = %d", i, failures)
		}
	}
	if !e.availableAt().After(time.Now()) {
		t.Fatal("failing endpoint has no cooldown")
	}
	if _, err := be.post(context.Background(), e, []byte(`{}`)); err != nil {
		t.Fatalf("recovery request: %v", err)
	}
	e.mu.Lock()
	failures := e.failures
	e.mu.Unlock()
	if failures != 0 {
		t.Errorf("failures after recovery = %d, want 0", failures)
	}
	if e.availableAt().After(time.Now()) {
		t.Error("recovered endpoint still on cooldown")
	}
}
