package sweep

import (
	"context"
	"encoding/csv"
	"encoding/json"
	"fmt"
	"io"
	"strconv"
	"sync"
	"time"

	"rfpsim/internal/experiments"
	"rfpsim/internal/fabric"
	"rfpsim/internal/obs"
	"rfpsim/internal/runner"
	"rfpsim/internal/service"
)

// Options configures one orchestrator run.
type Options struct {
	// Parallel bounds the groups of units in flight (0 = 4; against an
	// HTTP fleet, size it to the fleet's aggregate worker count). A group
	// is one family of sampled units, which share a profile and a
	// fast-forward pass on the local backend and run one after another,
	// or a single unit. When there are fewer families than Parallel,
	// Run splits the largest ones so that every slot has work.
	Parallel int
	// Cache, when set, is the sweep's persistent result store: Run serves
	// every unit whose key it holds without dispatching it, and stores
	// each completed unit under its key. Entries are rfpsimd /v1/sim
	// bodies, so a sweep's cache directory and a daemon's -cache-dir are
	// interchangeable.
	Cache *fabric.DiskCache
	// Progress, when set, receives a one-line progress/ETA report every
	// ProgressEvery (default 5s) and once at the end.
	Progress      io.Writer
	ProgressEvery time.Duration
}

func (o Options) parallel() int {
	if o.Parallel > 0 {
		return o.Parallel
	}
	return 4
}

func (o Options) progressEvery() time.Duration {
	if o.ProgressEvery > 0 {
		return o.ProgressEvery
	}
	return 5 * time.Second
}

// UnitError is one terminally failed unit.
type UnitError struct {
	Unit Unit
	Err  error
}

// Summary is the outcome of an orchestrator run.
type Summary struct {
	// Units is the sweep grid in deterministic order.
	Units []Unit
	// Results maps unit key to result for every completed unit (including
	// ones served from the cache).
	Results map[string]*service.SimResponse
	// Timings maps unit key to the per-stage wall-clock breakdown of
	// units executed by THIS run — units served from the cache have none
	// (their cost was paid by an earlier run). Local-backend timings come
	// straight from the runner; HTTP-backend timings are the executing
	// daemon's, parsed from the response header. Timings are telemetry
	// and deliberately kept out of Results, the cache and the aggregate
	// CSV, all of which are pinned deterministic.
	Timings map[string]*obs.Timings
	// Skipped counts units served from the cache.
	Skipped int
	// Failed lists units that exhausted their retries.
	Failed []UnitError
}

// Complete reports whether every unit has a result.
func (s *Summary) Complete() bool { return len(s.Results) >= len(s.Units) }

// Run executes the sweep: serving cached units, bounded-parallel dispatch
// of the rest to the backend, caching each result, and progress
// reporting. Cancelling ctx stops dispatch and returns ctx's error;
// completed units are already cached, so a later run over the same cache
// picks up exactly the missing ones. Unit failures do not abort the
// sweep — the rest of the grid still runs — but are reported in the
// summary and as an error. A failed cache write does: nothing more is
// dispatched, and the error names the unit whose result could not be
// stored. So does a cached body that does not decode.
func Run(ctx context.Context, units []Unit, backend Backend, opts Options, m *Metrics) (*Summary, error) {
	if m == nil {
		m = &Metrics{}
	}
	m.total.Store(uint64(len(units)))
	sum := &Summary{
		Units:   units,
		Results: make(map[string]*service.SimResponse, len(units)),
		Timings: make(map[string]*obs.Timings, len(units)),
	}

	pending := units
	if opts.Cache != nil {
		pending = make([]Unit, 0, len(units))
		for _, u := range units {
			body, ok := opts.Cache.Get(u.Key)
			if !ok {
				pending = append(pending, u)
				continue
			}
			resp := new(service.SimResponse)
			if err := json.Unmarshal(body, resp); err != nil {
				return nil, fmt.Errorf("sweep: cached result of unit %s does not decode: %w", u.Label, err)
			}
			sum.Results[u.Key] = resp
			sum.Skipped++
		}
		m.skipped.Store(uint64(sum.Skipped))
		if opts.Progress != nil && sum.Skipped > 0 {
			fmt.Fprintf(opts.Progress, "rfpsweep: %d/%d units served from the cache\n", sum.Skipped, len(units))
		}
	}

	start := time.Now()
	progress := func(final bool) {
		done, failed := m.done.Load(), m.failed.Load()
		finished := uint64(sum.Skipped) + done + failed
		pct := 100 * float64(finished) / float64(max(len(units), 1))
		eta := "?"
		if done > 0 && !final {
			remaining := uint64(len(units)) - finished
			eta = (time.Duration(float64(time.Since(start)) / float64(done) * float64(remaining))).Round(time.Second).String()
		}
		if final {
			eta = "done"
		}
		fmt.Fprintf(opts.Progress, "rfpsweep: %d/%d units (%.0f%%), %d skipped, %d failed, %d retries, elapsed %s, eta %s\n",
			finished, len(units), pct, sum.Skipped, failed, m.retried.Load(), time.Since(start).Round(time.Second), eta)
	}
	stopProgress := make(chan struct{})
	var progressWG sync.WaitGroup
	if opts.Progress != nil {
		progressWG.Add(1)
		go func() {
			defer progressWG.Done()
			t := time.NewTicker(opts.progressEvery())
			defer t.Stop()
			for {
				select {
				case <-stopProgress:
					return
				case <-t.C:
					progress(false)
				}
			}
		}()
	}

	var (
		mu       sync.Mutex
		cacheErr error // first failed cache write; dispatch stops
	)
	runUnit := func(ctx context.Context, u Unit) {
		mu.Lock()
		halted := cacheErr != nil
		mu.Unlock()
		if halted || ctx.Err() != nil {
			return // not dispatched: the unit stays pending
		}
		// Each unit gets its own run ID and timings collector. The
		// local backend's runner fills the collector through the
		// context; the HTTP backend forwards the ID to the daemon
		// (whose logs then correlate with ours) and merges the
		// daemon's timings header back into the collector.
		uctx, tim := obs.WithTimings(obs.WithRunID(ctx, obs.NewRunID()))
		ulog := obs.Logger(uctx).With("unit", u.Label, "key", u.Key[:12])
		ulog.Debug("unit start", "backend", backend.Name())
		resp, err := backend.Run(uctx, u)
		if err != nil {
			if ctx.Err() != nil {
				return // cancelled, not failed: the unit stays pending
			}
			ulog.Warn("unit failed", "err", err.Error())
			m.failed.Add(1)
			mu.Lock()
			sum.Failed = append(sum.Failed, UnitError{Unit: u, Err: err})
			mu.Unlock()
			return
		}
		ulog.Debug("unit done", "ipc", resp.IPC, "timings", tim.String())
		if opts.Cache != nil {
			var body []byte
			if body, err = resp.Body(); err == nil {
				err = opts.Cache.Put(u.Key, body)
			}
		}
		mu.Lock()
		defer mu.Unlock()
		sum.Results[u.Key] = resp
		sum.Timings[u.Key] = tim
		if err != nil && cacheErr == nil {
			cacheErr = fmt.Errorf("sweep: caching unit %s: %w", u.Label, err)
		}
		m.done.Add(1)
	}
	groups := families(pending, opts.parallel())
	runner.ForEach(len(groups), opts.parallel(), func(i int) {
		ctx := ctx
		if g := groups[i]; len(g) > 1 {
			ctx = withFamily(ctx, newFamily(g))
		}
		for _, u := range groups[i] {
			runUnit(ctx, u)
		}
	})
	close(stopProgress)
	progressWG.Wait()
	if opts.Progress != nil {
		progress(true)
	}

	if cacheErr != nil {
		return sum, cacheErr
	}
	if err := ctx.Err(); err != nil {
		return sum, err
	}
	if n := len(sum.Failed); n > 0 {
		return sum, fmt.Errorf("sweep: %d of %d units failed; first: %s: %w",
			n, len(units), sum.Failed[0].Unit.Label, sum.Failed[0].Err)
	}
	return sum, nil
}

// WriteCSV renders completed units in deterministic grid order using the
// schema cmd/experiments emits (experiment,metric,value): per unit an
// ipc, a cycles and an instructions row. Two complete runs of the same
// grid — whatever backend executed them, in whatever order, across
// however many crash/resume cycles — produce byte-identical files.
func (s *Summary) WriteCSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	if err := cw.Write(experiments.MetricsCSVHeader); err != nil {
		return err
	}
	for _, u := range s.Units {
		resp, ok := s.Results[u.Key]
		if !ok {
			continue
		}
		if err := resp.WriteCSVRows(cw, u.Label); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// WriteTimingsCSV renders the per-stage wall-clock breakdown of every
// unit this run executed, as experiment,stage,seconds rows in grid order
// with stages in pipeline order. Unlike WriteCSV this output is NOT
// deterministic — it measures this run's wall time — which is exactly why
// it lives in a separate file (rfpsweep -timings) instead of the pinned
// aggregate CSV.
func (s *Summary) WriteTimingsCSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	if err := cw.Write([]string{"experiment", "stage", "seconds"}); err != nil {
		return err
	}
	for _, u := range s.Units {
		tim, ok := s.Timings[u.Key]
		if !ok {
			continue // served from the cache or failed: no cost paid this run
		}
		for _, stage := range obs.Stages() {
			row := []string{u.Label, stage,
				strconv.FormatFloat(tim.Stage(stage).Seconds(), 'f', 6, 64)}
			if err := cw.Write(row); err != nil {
				return err
			}
		}
	}
	cw.Flush()
	return cw.Error()
}
