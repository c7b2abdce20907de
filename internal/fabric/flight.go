package fabric

import (
	"context"
	"sync"
)

// Flight is one in-progress computation of a content address. The leader
// (the goroutine that started it) eventually calls FlightGroup.Complete
// exactly once; everyone else blocks on Done and reads the shared result.
type Flight struct {
	done chan struct{}
	body []byte
	err  error
}

// Done is closed when the flight completes.
func (f *Flight) Done() <-chan struct{} { return f.done }

// Result returns the flight's outcome; only valid after Done is closed.
func (f *Flight) Result() ([]byte, error) { return f.body, f.err }

// FlightGroup deduplicates concurrent identical work by content address
// (single-flight): the first Join for an address becomes the leader and
// simulates; later Joins wait for the leader's result instead of
// simulating again.
type FlightGroup struct {
	mu sync.Mutex
	m  map[string]*Flight
}

// Join returns the flight for addr and whether the caller is its leader.
func (g *FlightGroup) Join(addr string) (*Flight, bool) {
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.m == nil {
		g.m = make(map[string]*Flight)
	}
	if f, ok := g.m[addr]; ok {
		return f, false
	}
	f := &Flight{done: make(chan struct{})}
	g.m[addr] = f
	return f, true
}

// Complete resolves the flight and releases every waiter. Only the leader
// calls it, exactly once, on every exit path (success, simulation error,
// admission rejection) — a leaked flight would wedge all its followers.
func (g *FlightGroup) Complete(addr string, f *Flight, body []byte, err error) {
	f.body, f.err = body, err
	g.mu.Lock()
	if g.m[addr] == f {
		delete(g.m, addr)
	}
	g.mu.Unlock()
	close(f.done)
}

// Wait blocks until the flight completes or ctx ends, returning the
// flight result or ctx's error.
func (f *Flight) Wait(ctx context.Context) ([]byte, error) {
	select {
	case <-f.done:
		return f.body, f.err
	case <-ctx.Done():
		return nil, ctx.Err()
	}
}
