package runner

import (
	"sync"
	"sync/atomic"
)

// ForEach calls fn once for each index in [0, n), with at most parallel
// calls running at once (parallel < 1 counts as 1), and returns when every
// call has returned. Indices are dispatched in increasing order: a pool of
// min(parallel, n) goroutines pulls them from a shared counter, so with
// parallel 1 the calls run one after another in index order. It is the
// one bounded fan-out behind the experiment harness, sweep.Run and
// sweep.RunCheckDiff. There is no context: fn observes cancellation
// itself, so each caller decides what a cancelled index means (an error
// result, a unit left pending).
func ForEach(n, parallel int, fn func(i int)) {
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < min(max(parallel, 1), n); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				fn(i)
			}
		}()
	}
	wg.Wait()
}
