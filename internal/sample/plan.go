package sample

import (
	"fmt"
	"sort"
	"strings"
)

// Point is one representative interval of a replay plan.
type Point struct {
	// Index is the interval's position within the measured window; the
	// interval covers uops [Index*IntervalUops, (Index+1)*IntervalUops)
	// of the window.
	Index int
	// Weight is the number of intervals this representative stands for
	// (its cluster's size). Weights sum to the profiled interval count.
	Weight uint64
}

// Plan is a complete replay plan: which intervals to cycle-simulate and
// how to weight their statistics into a full-window estimate.
type Plan struct {
	// Workload names the planned workload.
	Workload string
	// IntervalUops is the interval length shared with the profile.
	IntervalUops uint64
	// Intervals is the number of profiled intervals (the sum of weights).
	Intervals int
	// Points lists the representatives in window order.
	Points []Point
	// ErrorBound is the clustering dispersion mapped to an expected
	// relative error on aggregate metrics: the weighted mean
	// member-to-centroid distance over unit-norm interval vectors,
	// normalized into [0, 1]. It is a heuristic confidence signal — 0
	// means every interval is indistinguishable from its representative,
	// larger values mean the representatives summarize the window less
	// faithfully — not a statistical guarantee.
	ErrorBound float64
}

// BuildPlan clusters a profile into at most maxK representative intervals.
// The seed makes clustering reproducible; callers derive it from the
// workload seed so the same job always replays the same intervals.
func BuildPlan(p *Profile, maxK int, seed uint64) (*Plan, error) {
	if p.Intervals() == 0 {
		return nil, fmt.Errorf("sample: profile of %s has no intervals", p.Workload)
	}
	if maxK < 1 {
		return nil, fmt.Errorf("sample: MaxK must be >= 1, got %d", maxK)
	}
	cl := kMeans(p.Vectors, maxK, seed)
	plan := &Plan{
		Workload:     p.Workload,
		IntervalUops: p.IntervalUops,
		Intervals:    p.Intervals(),
	}
	var weightedDist float64
	for c := 0; c < cl.K; c++ {
		if cl.Size[c] == 0 {
			continue
		}
		plan.Points = append(plan.Points, Point{
			Index:  cl.Representative[c],
			Weight: uint64(cl.Size[c]),
		})
		weightedDist += float64(cl.Size[c]) * cl.AvgDist[c]
	}
	sort.Slice(plan.Points, func(i, j int) bool { return plan.Points[i].Index < plan.Points[j].Index })
	// Unit-norm vectors are at most 2 apart, so dividing the weighted mean
	// dispersion by 2 lands the bound in [0, 1].
	plan.ErrorBound = weightedDist / float64(plan.Intervals) / 2
	return plan, nil
}

// MeasuredUops is the cycle-simulated measurement volume the plan needs —
// the quantity sampling exists to shrink.
func (p *Plan) MeasuredUops() uint64 {
	return uint64(len(p.Points)) * p.IntervalUops
}

// SampledFraction is MeasuredUops over the full profiled window.
func (p *Plan) SampledFraction() float64 {
	if p.Intervals == 0 {
		return 0
	}
	return float64(len(p.Points)) / float64(p.Intervals)
}

// String renders the plan as the simpoint table rfpsim -sample prints.
func (p *Plan) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s: %d intervals x %d uops -> %d simpoints (%.1f%% of window, error bound %.3f)\n",
		p.Workload, p.Intervals, p.IntervalUops, len(p.Points), 100*p.SampledFraction(), p.ErrorBound)
	for _, pt := range p.Points {
		fmt.Fprintf(&b, "  interval %3d  window uops [%d, %d)  weight %d (%.1f%%)\n",
			pt.Index, uint64(pt.Index)*p.IntervalUops, uint64(pt.Index+1)*p.IntervalUops,
			pt.Weight, 100*float64(pt.Weight)/float64(p.Intervals))
	}
	return b.String()
}
