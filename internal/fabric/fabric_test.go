package fabric

import (
	"bytes"
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestFlightGroupSingleFlight pins the dedup contract: one leader per
// address, followers all observe the leader's result.
func TestFlightGroupSingleFlight(t *testing.T) {
	var g FlightGroup
	addr := addrFor(3)
	lead, isLeader := g.Join(addr)
	if !isLeader {
		t.Fatal("first join is not leader")
	}

	const followers = 8
	var wg, joined sync.WaitGroup
	joined.Add(followers)
	var leaders atomic.Int64
	results := make([][]byte, followers)
	for i := 0; i < followers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			f, leader := g.Join(addr)
			joined.Done()
			if leader {
				leaders.Add(1)
				return
			}
			body, err := f.Wait(context.Background())
			if err != nil {
				t.Errorf("follower %d: %v", i, err)
			}
			results[i] = body
		}(i)
	}
	// Complete only after every follower has joined the live flight —
	// otherwise a late Join would lead a new flight nobody resolves.
	joined.Wait()
	g.Complete(addr, lead, body(3), nil)
	wg.Wait()
	if leaders.Load() != 0 {
		t.Fatalf("%d extra leaders while a flight was active", leaders.Load())
	}
	for i, r := range results {
		if !bytes.Equal(r, body(3)) {
			t.Errorf("follower %d got %q", i, r)
		}
	}
	// After completion the address is free again: next join leads.
	if _, leader := g.Join(addr); !leader {
		t.Error("address not released after Complete")
	}
}

// TestFlightWaitRespectsContext: a follower whose client disconnects must
// not block forever on a slow leader.
func TestFlightWaitRespectsContext(t *testing.T) {
	var g FlightGroup
	f, _ := g.Join(addrFor(4))
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	if _, err := f.Wait(ctx); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("Wait returned %v, want deadline exceeded", err)
	}
}
