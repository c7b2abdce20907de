package sweep

import (
	"context"
	"slices"
	"sync"
	"time"

	"rfpsim/internal/config"
	"rfpsim/internal/runner"
	"rfpsim/internal/sample"
	"rfpsim/internal/service"
)

// groupKey is what sampled units must share to form a family: the
// workload, the windows, the replica count, cache warming, the
// normalized sampling spec and the configuration's functional key.
type groupKey struct {
	workload        string
	warmup, measure uint64
	seeds           int
	cold            bool
	sampling        runner.Sampling
	functional      config.Core
}

// unitGroupKey returns u's family key, or false for a unit that runs
// alone: a full-window unit, a unit with a timeout (which bounds one
// unit's wall time), an inline trace upload, and a unit whose
// configuration does not build (the backend reports why).
func unitGroupKey(u Unit) (groupKey, bool) {
	req := u.Req
	if req.Sampling == nil || req.TimeoutMS > 0 || req.TraceB64 != "" {
		return groupKey{}, false
	}
	cfg, err := req.Config.Build()
	if err != nil {
		return groupKey{}, false
	}
	return groupKey{
		workload:   req.Workload,
		warmup:     req.WarmupUops,
		measure:    req.MeasureUops,
		seeds:      req.Seeds,
		cold:       req.ColdCaches,
		sampling:   sample.Normalized(*req.Sampling),
		functional: config.FunctionalKey(cfg),
	}, true
}

// families partitions units into the groups Run dispatches: one per
// family, in the order of each family's first unit, with units in their
// given order. While there are fewer groups than parallel, it splits the
// largest group (the first of equal ones) in halves, so that grouping
// never leaves a slot idle that a unit would fill today; it stops when
// every group is one unit.
func families(units []Unit, parallel int) [][]Unit {
	var groups [][]Unit
	index := make(map[groupKey]int)
	for _, u := range units {
		key, ok := unitGroupKey(u)
		if !ok {
			groups = append(groups, []Unit{u})
			continue
		}
		if i, seen := index[key]; seen {
			groups[i] = append(groups[i], u)
			continue
		}
		index[key] = len(groups)
		groups = append(groups, []Unit{u})
	}
	for len(groups) > 0 && len(groups) < parallel {
		big := 0
		for i, g := range groups {
			if len(g) > len(groups[big]) {
				big = i
			}
		}
		g := groups[big]
		if len(g) < 2 {
			break
		}
		half := len(g) / 2
		groups[big] = g[:half:half]
		groups = slices.Insert(groups, big+1, g[half:])
	}
	return groups
}

// family is a group of sweep units that differ only in configuration
// fields outside config.FunctionalKey, and so can share one profile and
// one fast-forward pass (sample.RunFamily); a unit that runs alone is a
// family of one. It holds each member's outcome once the first member's
// call has run it.
type family struct {
	units []Unit
	once  sync.Once
	resps map[string]*service.SimResponse
	errs  map[string]error
}

func newFamily(units []Unit) *family {
	return &family{units: units,
		resps: make(map[string]*service.SimResponse, len(units)),
		errs:  make(map[string]error, len(units))}
}

func (f *family) has(key string) bool {
	for _, u := range f.units {
		if u.Key == key {
			return true
		}
	}
	return false
}

// run resolves and executes every member, filing each one's response or
// error under its key. A member that fails to resolve fails alone.
func (f *family) run(ctx context.Context, traces *service.TraceStore) {
	// Units with a timeout run alone (sweep.Run never groups them), so
	// the timeout bounds exactly one unit's wall time.
	if t := f.units[0].Req.TimeoutMS; t > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, time.Duration(t)*time.Millisecond)
		defer cancel()
	}
	var jobs []runner.Job
	var keys []string
	for _, u := range f.units {
		job, _, err := service.ResolveJobWith(u.Req, traces)
		if err != nil {
			f.errs[u.Key] = err
			continue
		}
		jobs = append(jobs, job)
		keys = append(keys, u.Key)
	}
	res, errs := sample.RunFamily(ctx, jobs)
	for i, key := range keys {
		if errs[i] != nil {
			f.errs[key] = errs[i]
			continue
		}
		resp := service.Response(jobs[i], res[i])
		f.resps[key] = &resp
	}
}

// familyCtxKey is the context key under which sweep.Run passes a unit's
// family to the backend.
type familyCtxKey struct{}

func withFamily(ctx context.Context, f *family) context.Context {
	return context.WithValue(ctx, familyCtxKey{}, f)
}

func contextFamily(ctx context.Context) *family {
	f, _ := ctx.Value(familyCtxKey{}).(*family)
	return f
}
