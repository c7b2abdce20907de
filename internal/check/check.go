// Package check is the differential-correctness harness of
// docs/checking.md. Its oracle is RFP-invariance: register file
// prefetching (and the other speculation machinery this simulator
// models) is architecturally invisible — it may change WHEN a load's
// data arrives, never WHAT the program computes. The harness runs the
// same deterministic workload under two configurations, records a
// per-uop content hash of the committed architectural trace on each
// side (core.CommitDigest), and asserts the streams are identical,
// localizing any mismatch to the first divergent interval and uop.
//
// Supported pairings: RFP on/off, value prediction on/off, late
// register allocation on/off, oracle modes, and sampled vs full
// simulation (each replayed interval is compared against the matching
// window of the full run's stream). The runtime invariant layer
// (config.Checks) is force-enabled on both sides, so a differential run
// also reports invariant violations alongside any digest divergence.
package check

import (
	"context"
	"fmt"

	"rfpsim/internal/config"
	"rfpsim/internal/core"
	"rfpsim/internal/isa"
	"rfpsim/internal/runner"
	"rfpsim/internal/sample"
	"rfpsim/internal/stats"
	"rfpsim/internal/trace"
)

// Default window and localization granularity.
const (
	// DefaultUops is the measured window when Differential.Uops is 0.
	DefaultUops = 30000
	// DefaultIntervalUops is the divergence-localization interval when
	// Differential.IntervalUops is 0.
	DefaultIntervalUops = 1000
)

// Differential describes one paired run: the same workload under Base
// and Variant, compared on committed architectural digests.
type Differential struct {
	// Base and Variant are the paired configurations. Base always runs
	// the full window; Variant runs sampled when VariantSampling is set.
	Base, Variant config.Core
	// Spec names the workload (a catalog entry, or a Spec wrapping an
	// uploaded trace via NewGen).
	Spec trace.Spec
	// NewGen, when set, overrides Spec.New as the uop source. It must
	// return a fresh generator producing an identical stream on every
	// call (each side consumes its own; a sampled variant additionally
	// re-instantiates it per profiling and replay pass).
	NewGen func() isa.Generator
	// Uops is the compared window length (default DefaultUops).
	Uops uint64
	// IntervalUops is the divergence-localization interval (default
	// DefaultIntervalUops).
	IntervalUops uint64
	// VariantSampling, when set, runs the Variant side sampled
	// (internal/sample) and compares each replayed interval against the
	// matching window of the Base full run.
	VariantSampling *runner.Sampling
	// BaseFaults and VariantFaults inject named model faults
	// (core.InjectFault) before the measured window on the respective
	// side. Tests only: they exist to prove the oracle catches the bug
	// class it claims to.
	BaseFaults, VariantFaults []string
}

// Result is the outcome of one differential run.
type Result struct {
	// Workload, Base and Variant identify the pairing.
	Workload, Base, Variant string
	// Uops and IntervalUops echo the effective window parameters.
	Uops, IntervalUops uint64
	// Diverged reports whether the digest streams differ anywhere.
	Diverged bool
	// Interval and UopIndex localize the first divergence: UopIndex is
	// the absolute index in the committed stream, Interval is
	// UopIndex/IntervalUops.
	Interval int
	UopIndex uint64
	// BaseHash and VariantHash are the two sides' content hashes over
	// the divergent interval.
	BaseHash, VariantHash uint64
	// BaseViolations and VariantViolations are the runtime invariant
	// violation totals (stats.CheckStats.Total) on each side.
	BaseViolations, VariantViolations uint64
	// BaseStats and VariantStats are the full statistics blocks.
	BaseStats, VariantStats *stats.Sim
}

// String formats the result the way rfpsim -diff prints it.
func (r *Result) String() string {
	if !r.Diverged {
		return fmt.Sprintf("%s: %s vs %s — %d uops identical (%d violations base, %d variant)",
			r.Workload, r.Base, r.Variant, r.Uops, r.BaseViolations, r.VariantViolations)
	}
	return fmt.Sprintf("%s: %s vs %s DIVERGED at uop %d (interval %d): base hash %#016x, variant hash %#016x (%d violations base, %d variant)",
		r.Workload, r.Base, r.Variant, r.UopIndex, r.Interval,
		r.BaseHash, r.VariantHash, r.BaseViolations, r.VariantViolations)
}

// segment is one contiguous digested window of the committed stream:
// the full run produces a single segment at position 0; a sampled run
// produces one per replayed interval.
type segment struct {
	pos  uint64
	digs []uint64
}

type side struct {
	segs []segment
	st   *stats.Sim
}

// Run executes both sides and compares the digest streams.
func (d Differential) Run(ctx context.Context) (*Result, error) {
	uops := d.Uops
	if uops == 0 {
		uops = DefaultUops
	}
	il := d.IntervalUops
	if il == 0 {
		il = DefaultIntervalUops
	}
	base, err := d.runSide(ctx, d.Base, d.BaseFaults, nil, uops, il)
	if err != nil {
		return nil, fmt.Errorf("check: %s base (%s): %w", d.Spec.Name, d.Base.Name, err)
	}
	variant, err := d.runSide(ctx, d.Variant, d.VariantFaults, d.VariantSampling, uops, il)
	if err != nil {
		return nil, fmt.Errorf("check: %s variant (%s): %w", d.Spec.Name, d.Variant.Name, err)
	}

	res := &Result{
		Workload: d.Spec.Name,
		Base:     d.Base.Name, Variant: d.Variant.Name,
		Uops: uops, IntervalUops: il,
		BaseViolations:    base.st.Checks.Total(),
		VariantViolations: variant.st.Checks.Total(),
		BaseStats:         base.st, VariantStats: variant.st,
	}
	baseDigs := base.segs[0].digs
	d.compare(res, baseDigs, variant.segs, il, d.VariantSampling == nil)
	return res, nil
}

// runSide executes one configuration and collects its digest segments.
func (d Differential) runSide(ctx context.Context, cfg config.Core, faults []string, sampling *runner.Sampling, uops, il uint64) (side, error) {
	// The checking layer is part of the harness contract: it is
	// timing-invisible, and a differential run should surface invariant
	// violations next to any divergence.
	cfg.Checks.Enabled = true
	job := runner.Job{
		Config:      cfg,
		Spec:        d.Spec,
		MeasureUops: uops,
		Seeds:       1,
	}
	if d.NewGen != nil {
		// The factory form works on both sides: the full run draws one
		// fresh generator, a sampled variant re-instantiates the stream
		// per profiling/replay pass (runner.Job.NewGen).
		job.NewGen = d.NewGen
	}
	segLimit := uops
	if sampling != nil {
		sp := sample.Normalized(*sampling)
		job.Sampling = &sp
		segLimit = sp.IntervalUops
	}
	var (
		segs    []segment
		digests []*core.CommitDigest
		hookErr error
	)
	job.AfterWarmup = func(c *core.Core) {
		for _, f := range faults {
			if err := c.InjectFault(f); err != nil && hookErr == nil {
				hookErr = err
			}
		}
		segs = append(segs, segment{pos: c.RetiredStreamPos()})
		digests = append(digests, c.EnableCommitDigest(il))
	}
	res, err := sample.RunResult(ctx, job)
	if err != nil {
		return side{}, err
	}
	st := res.Stats
	if hookErr != nil {
		return side{}, hookErr
	}
	// Collect after the run: the digest slices grow during simulation.
	// Run may overshoot its retirement target by up to Width-1 uops, and
	// the overshoot differs between configurations, so every segment is
	// trimmed to the amount both sides are guaranteed to have digested.
	// A sampled interval's warmup overshoots the same way, so the last
	// interval's segment can start a few uops late and run past the
	// compared window; the part past the window is trimmed too.
	for i := range segs {
		digs := digests[i].Digests()
		if uint64(len(digs)) > segLimit {
			digs = digs[:segLimit]
		}
		if segs[i].pos+uint64(len(digs)) > uops {
			digs = digs[:uops-min(segs[i].pos, uops)]
		}
		segs[i].digs = digs
	}
	return side{segs: segs, st: st}, nil
}

// compare walks every variant segment against the base stream and
// records the first divergence. exhaustive marks a full-vs-full
// comparison, where the two streams must also have equal length.
func (d Differential) compare(res *Result, base []uint64, segs []segment, il uint64, exhaustive bool) {
	for _, s := range segs {
		for j, h := range s.digs {
			abs := s.pos + uint64(j)
			if abs >= uint64(len(base)) || base[abs] != h {
				d.markDivergence(res, base, s, abs, il)
				return
			}
		}
		if exhaustive && s.pos+uint64(len(s.digs)) < uint64(len(base)) {
			// The variant stream ended early (generator exhausted under
			// one configuration only) — that is a divergence too.
			d.markDivergence(res, base, s, s.pos+uint64(len(s.digs)), il)
			return
		}
	}
}

// markDivergence fills the localization fields for a divergence at
// absolute stream index abs.
func (d Differential) markDivergence(res *Result, base []uint64, s segment, abs, il uint64) {
	res.Diverged = true
	res.UopIndex = abs
	res.Interval = int(abs / il)
	lo, hi := uint64(res.Interval)*il, uint64(res.Interval+1)*il
	res.BaseHash = foldHash(sliceWindow(base, 0, lo, hi))
	res.VariantHash = foldHash(sliceWindow(s.digs, s.pos, lo, hi))
}

// sliceWindow returns the part of a digest slice (starting at absolute
// stream position pos) that overlaps the absolute window [lo, hi).
func sliceWindow(digs []uint64, pos, lo, hi uint64) []uint64 {
	end := pos + uint64(len(digs))
	if lo < pos {
		lo = pos
	}
	if hi > end {
		hi = end
	}
	if lo >= hi {
		return nil
	}
	return digs[lo-pos : hi-pos]
}

// foldHash folds per-uop digests into one interval content hash, the
// same FNV-1a mix core.CommitDigest.IntervalHash uses.
func foldHash(digs []uint64) uint64 {
	h := uint64(14695981039346656037)
	const prime = 1099511628211
	for _, d := range digs {
		for i := 0; i < 8; i++ {
			h ^= d & 0xFF
			h *= prime
			d >>= 8
		}
	}
	return h
}
