// Package sample implements SimPoint-style sampled simulation: a cheap
// functional pass over a workload's uop stream collects per-interval
// basic-block vectors, a deterministic k-means clusterer picks a handful
// of representative intervals plus weights, and a one-pass replay
// fast-forwards one core through the job's stream and forks it at each of
// those intervals for a cycle-accurate warmup and measure, whose
// statistics are cluster-weight scaled into a full-window estimate. The
// point is to cut cycle-simulated work by ~5x and more while staying
// within a couple of percent of the full-run IPC, which is what makes
// suite-wide parameter sweeps (internal/sweep) tractable. The
// profile/cluster pass bills its wall time to the "profile" stage of the
// context's obs.Timings collector — the one stage a full run never pays.
package sample

import (
	"context"
	"fmt"
	"math"

	"rfpsim/internal/isa"
	"rfpsim/internal/prng"
	"rfpsim/internal/trace"
)

// vectorDims is the dimensionality basic-block vectors are randomly
// projected down to, the same dimension reduction SimPoint applies before
// clustering. Block counts are sparse over an unbounded PC space; a fixed
// ±1 random projection preserves relative distances well at this size
// while keeping k-means cheap and allocation-free per interval.
const vectorDims = 32

// ctxCheckUops is how many functionally generated uops pass between
// context polls during profiling and fast-forward.
const ctxCheckUops = 1 << 16

// Profile is the result of the functional profiling pass: one projected,
// L2-normalized basic-block vector per interval of the measured window.
type Profile struct {
	// Workload names the profiled workload.
	Workload string
	// IntervalUops is the interval length the window was split into.
	IntervalUops uint64
	// Vectors holds one unit-norm vector per interval, in window order.
	Vectors [][vectorDims]float64
}

// Intervals returns the number of profiled intervals.
func (p *Profile) Intervals() int { return len(p.Vectors) }

// bbvAccum builds one interval's basic-block vector. A basic block is the
// straight-line run of uops ending at a branch; its ID is the PC of its
// first uop and its contribution is weighted by the block length, exactly
// the SimPoint construction. Blocks are projected into the fixed-dimension
// vector as they close, so the sparse per-block count map never
// materializes.
type bbvAccum struct {
	vec        [vectorDims]float64
	blockStart uint64
	blockLen   uint64
	haveBlock  bool
}

// note observes one functionally generated uop.
func (a *bbvAccum) note(op *isa.MicroOp) {
	if !a.haveBlock {
		a.blockStart = op.PC
		a.haveBlock = true
	}
	a.blockLen++
	if op.IsBranch() {
		a.close()
	}
}

// close folds the in-progress block into the projected vector.
func (a *bbvAccum) close() {
	if !a.haveBlock || a.blockLen == 0 {
		return
	}
	// Deterministic per-block ±1 projection row derived from the block ID;
	// two prng draws give 128 independent bits, plenty for vectorDims.
	h := prng.New(a.blockStart ^ 0xB10C5EED)
	bits := h.Uint64()
	w := float64(a.blockLen)
	for d := 0; d < vectorDims; d++ {
		if bits&(1<<uint(d)) != 0 {
			a.vec[d] += w
		} else {
			a.vec[d] -= w
		}
	}
	a.blockStart = 0
	a.blockLen = 0
	a.haveBlock = false
}

// finish closes the trailing block and L2-normalizes the vector so
// distances compare interval shapes, not interval lengths.
func (a *bbvAccum) finish() [vectorDims]float64 {
	a.close()
	var norm float64
	for _, v := range a.vec {
		norm += v * v
	}
	if norm > 0 {
		inv := 1 / math.Sqrt(norm)
		for d := range a.vec {
			a.vec[d] *= inv
		}
	}
	return a.vec
}

// ProfileGenerator runs the functional profiling pass over gen: it drains
// skip uops (the job's warmup window), then splits the next measure uops
// into intervals of interval uops each and collects one basic-block
// vector per full interval. A trailing remainder shorter than one
// interval is dropped from the profile (and therefore from the sampled
// estimate). The pass consumes gen.
func ProfileGenerator(ctx context.Context, gen isa.Generator, name string, skip, measure, interval uint64) (*Profile, error) {
	if interval == 0 {
		return nil, fmt.Errorf("sample: interval length is 0")
	}
	if measure < interval {
		return nil, fmt.Errorf("sample: measured window (%d uops) is shorter than one interval (%d uops)", measure, interval)
	}
	if err := drain(ctx, gen, name, skip); err != nil {
		return nil, err
	}
	n := int(measure / interval)
	p := &Profile{
		Workload:     name,
		IntervalUops: interval,
		Vectors:      make([][vectorDims]float64, 0, n),
	}
	var op isa.MicroOp
	var acc bbvAccum
	for i := 0; i < n; i++ {
		if err := ctxErr(ctx, name, "profile"); err != nil {
			return nil, err
		}
		for u := uint64(0); u < interval; u++ {
			if !gen.Next(&op) {
				return nil, fmt.Errorf("sample: %s ended after %d of %d profiled intervals", name, i, n)
			}
			acc.note(&op)
		}
		p.Vectors = append(p.Vectors, acc.finish())
		acc = bbvAccum{}
	}
	return p, nil
}

// ProfileSpec profiles a catalog workload: a fresh generator is
// instantiated from the spec, so the pass does not disturb any generator
// the caller holds.
func ProfileSpec(ctx context.Context, spec trace.Spec, skip, measure, interval uint64) (*Profile, error) {
	return ProfileGenerator(ctx, spec.New(), spec.Name, skip, measure, interval)
}

// drain advances gen by n uops without simulating them — the functional
// fast-forward used both by profiling (to reach the measured window) and
// by replay (to reach a representative interval).
func drain(ctx context.Context, gen isa.Generator, name string, n uint64) error {
	var op isa.MicroOp
	for i := uint64(0); i < n; i++ {
		if i%ctxCheckUops == 0 {
			if err := ctxErr(ctx, name, "fast-forward"); err != nil {
				return err
			}
		}
		if !gen.Next(&op) {
			return fmt.Errorf("sample: %s ended %d uops into a %d-uop fast-forward", name, i, n)
		}
	}
	return nil
}

func ctxErr(ctx context.Context, name, phase string) error {
	select {
	case <-ctx.Done():
		return fmt.Errorf("sample: %s %s cancelled: %w", name, phase, ctx.Err())
	default:
		return nil
	}
}
