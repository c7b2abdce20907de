package runner

import (
	"fmt"
	"sync/atomic"
	"testing"
	"time"
)

// TestForEachRunsEveryIndexOnce: every index in [0, n) is visited exactly
// once, and the observed concurrency never exceeds parallel.
func TestForEachRunsEveryIndexOnce(t *testing.T) {
	for _, n := range []int{0, 1, 100} {
		for _, parallel := range []int{1, 3, 200} {
			t.Run(fmt.Sprintf("n%d/p%d", n, parallel), func(t *testing.T) {
				calls := make([]atomic.Int32, n)
				var inFlight, peak atomic.Int32
				ForEach(n, parallel, func(i int) {
					cur := inFlight.Add(1)
					for p := peak.Load(); cur > p && !peak.CompareAndSwap(p, cur); p = peak.Load() {
					}
					time.Sleep(50 * time.Microsecond) // let siblings overlap
					calls[i].Add(1)
					inFlight.Add(-1)
				})
				for i := range calls {
					if got := calls[i].Load(); got != 1 {
						t.Errorf("index %d ran %d times, want 1", i, got)
					}
				}
				if p := int(peak.Load()); p > parallel {
					t.Errorf("peak concurrency %d exceeds parallel %d", p, parallel)
				}
			})
		}
	}
}

// TestForEachSerialDispatchOrder: with parallel 1 the calls run one after
// another in index order.
func TestForEachSerialDispatchOrder(t *testing.T) {
	var order []int
	ForEach(50, 1, func(i int) { order = append(order, i) })
	if len(order) != 50 {
		t.Fatalf("ran %d calls, want 50", len(order))
	}
	for i, got := range order {
		if got != i {
			t.Fatalf("call %d ran index %d, want index order: %v", i, got, order)
		}
	}
}
