package sweep

import (
	"context"
	"encoding/csv"
	"fmt"
	"io"
	"strconv"
	"sync"

	"rfpsim/internal/check"
	"rfpsim/internal/config"
	"rfpsim/internal/experiments"
	"rfpsim/internal/obs"
	"rfpsim/internal/runner"
	"rfpsim/internal/service"
)

// DiffUnit is one check_diff grid point: a variant configuration under
// test, paired with the base the diff mode derives from it.
type DiffUnit struct {
	// Label is "<sweep>/<workload>/<knobs>", the CSV "experiment" cell.
	Label string
	// Diff is the fully specified paired run.
	Diff check.Differential
}

// ExpandDiff enumerates the check_diff grid in the same deterministic
// order Expand uses: cartesian product of the axes (first axis slowest),
// workloads innermost. Every grid point's configuration is the VARIANT
// side of a differential; the base side is derived by the spec's
// DiffMode. Knobs the differential harness deliberately ignores are
// rejected rather than silently dropped.
func (s *Spec) ExpandDiff() ([]DiffUnit, error) {
	if !s.CheckDiff() {
		return nil, fmt.Errorf("sweep: ExpandDiff needs mode \"check_diff\", not %q", s.Mode)
	}
	mode := s.DiffMode
	if mode == "" {
		mode = "norfp"
	}
	// The differential digests both sides from stream position 0 and runs
	// a single seed; warmup/seed/cold knobs would silently mean something
	// different than they do for a sim sweep, so they fail loudly.
	if s.WarmupUops != 0 {
		return nil, fmt.Errorf("sweep: check_diff digests start at stream position 0; warmup_uops must be unset")
	}
	if s.Seeds > 1 {
		return nil, fmt.Errorf("sweep: check_diff compares single-seed runs; seeds must be unset")
	}
	if s.ColdCaches {
		return nil, fmt.Errorf("sweep: check_diff warms both sides identically; cold_caches must be unset")
	}
	if s.Sampling != nil && mode != "full" {
		return nil, fmt.Errorf("sweep: sampling only applies to diff_mode \"full\" (sampled vs full), not %q", mode)
	}

	specs, err := s.workloads()
	if err != nil {
		return nil, err
	}
	var units []DiffUnit
	err = s.eachPoint(func(_ service.ConfigSpec, variant config.Core, point string) error {
		base, sampledVsFull, err := check.BaseFor(mode, variant)
		if err != nil {
			return err
		}
		for _, wl := range specs {
			d := check.Differential{
				Base: base, Variant: variant,
				Spec: wl,
				Uops: s.MeasureUops,
			}
			if sampledVsFull {
				sp := runner.Sampling{}
				if s.Sampling != nil {
					sp = *s.Sampling
				}
				d.VariantSampling = &sp
			}
			units = append(units, DiffUnit{Label: s.Name + "/" + wl.Name + "/" + point, Diff: d})
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return units, nil
}

// DiffSummary is the outcome of a check_diff sweep.
type DiffSummary struct {
	// Units is the grid in deterministic order.
	Units []DiffUnit
	// Results maps unit label to outcome for every unit that ran.
	Results map[string]*check.Result
	// Failed lists units whose differential could not run at all (as
	// opposed to running and diverging).
	Failed []UnitError
}

// Clean reports whether every unit ran, no digests diverged and no
// runtime invariant fired — the pass/fail verdict of the sweep.
func (s *DiffSummary) Clean() bool {
	if len(s.Failed) > 0 || len(s.Results) < len(s.Units) {
		return false
	}
	for _, r := range s.Results {
		if r.Diverged || r.BaseViolations != 0 || r.VariantViolations != 0 {
			return false
		}
	}
	return true
}

// RunCheckDiff executes every differential unit with bounded
// parallelism, feeding divergence and violation counts into the metrics
// block (rfpsim_check_violations_total, rfpsweep_diff_divergences_total)
// and, when progress is non-nil, printing each unit's one-line verdict
// the way rfpsim -diff does. Unit failures do not abort the sweep.
func RunCheckDiff(ctx context.Context, units []DiffUnit, parallel int, m *Metrics, progress io.Writer) (*DiffSummary, error) {
	if m == nil {
		m = &Metrics{}
	}
	m.total.Store(uint64(len(units)))
	if parallel <= 0 {
		parallel = 4
	}
	sum := &DiffSummary{
		Units:   units,
		Results: make(map[string]*check.Result, len(units)),
	}
	var mu sync.Mutex
	runner.ForEach(len(units), parallel, func(i int) {
		u := units[i]
		if ctx.Err() != nil {
			return // not dispatched: the unit stays pending
		}
		log := obs.Logger(ctx).With("unit", u.Label)
		res, err := u.Diff.Run(ctx)
		if err != nil {
			if ctx.Err() != nil {
				return
			}
			log.Warn("diff unit failed", "err", err.Error())
			m.failed.Add(1)
			mu.Lock()
			sum.Failed = append(sum.Failed, UnitError{Unit: Unit{Label: u.Label}, Err: err})
			mu.Unlock()
			return
		}
		m.done.Add(1)
		m.checkViolations.Add(res.BaseViolations + res.VariantViolations)
		if res.Diverged {
			m.diffDivergences.Add(1)
			log.Warn("digest divergence", "uop", res.UopIndex, "interval", res.Interval)
		}
		mu.Lock()
		sum.Results[u.Label] = res
		if progress != nil {
			fmt.Fprintf(progress, "%s: %s\n", u.Label, res)
		}
		mu.Unlock()
	})
	if err := ctx.Err(); err != nil {
		return sum, err
	}
	if n := len(sum.Failed); n > 0 {
		return sum, fmt.Errorf("sweep: %d of %d diff units failed to run; first: %s: %w",
			n, len(units), sum.Failed[0].Unit.Label, sum.Failed[0].Err)
	}
	return sum, nil
}

// WriteCSV renders the verdicts in deterministic grid order using the
// experiments CSV schema: per unit a diverged flag (0/1) and the two
// sides' invariant violation totals. Localization detail (first
// divergent uop, interval hashes) is human-facing and goes to the
// progress stream instead, keeping this file byte-deterministic.
func (s *DiffSummary) WriteCSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	if err := cw.Write(experiments.MetricsCSVHeader); err != nil {
		return err
	}
	for _, u := range s.Units {
		res, ok := s.Results[u.Label]
		if !ok {
			continue
		}
		diverged := "0"
		if res.Diverged {
			diverged = "1"
		}
		rows := [][]string{
			{u.Label, "diverged", diverged},
			{u.Label, "base_violations", strconv.FormatUint(res.BaseViolations, 10)},
			{u.Label, "variant_violations", strconv.FormatUint(res.VariantViolations, 10)},
		}
		for _, row := range rows {
			if err := cw.Write(row); err != nil {
				return err
			}
		}
	}
	cw.Flush()
	return cw.Error()
}
