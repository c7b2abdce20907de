package bench

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"sync"
	"time"

	"rfpsim/internal/obs"
	"rfpsim/internal/prng"
	"rfpsim/internal/service"
	"rfpsim/internal/sweep"
	"rfpsim/internal/trace"
)

// sweepParallel is the orchestrator's parallelism: one unit per CPU of the
// 2-CPU machine the benchmark is sized for.
const sweepParallel = 2

// sweepWarmup is the sampled sweep's cycle-accurate warmup per unit.
const sweepWarmup = 20000

// sweepSeedSalt decorrelates the sweep's window and order choices from
// the catalog seeds.
const sweepSeedSalt = 0x5EE9B3AC

// sampledSweep is sweep.Run on the local backend over the catalog crossed
// with two prefetchers and CLP off/on, every unit sampled. The cycle loop
// does little here: FastForward, the sample profile and k-means, and
// per-point core.New/WarmCaches do most of the work — the set-up-heavy use
// of the same core layer.
func sampledSweep() workload {
	return workload{
		name: "sampled-sweep",
		work: func() string {
			return fmt.Sprintf("workloads=%d warmup=%d measure=%d", size.sweepWorkloads, sweepWarmup, size.sweepMeasure)
		},
		setup: setupSweep,
	}
}

// sweepSpec builds a sweep's JSON spec: the workloads crossed with two
// prefetchers and CLP off/on on top of cfg.
func sweepSpec(workloads []string, cfg service.ConfigSpec, warmup, measure uint64, sampled bool) ([]byte, error) {
	spec := map[string]any{
		"name":      "rfpbench",
		"workloads": workloads,
		"base":      cfg,
		"axes": []map[string]any{
			{"knob": "prefetcher", "values": []string{"stream", "managed"}},
			{"knob": "clp", "values": []bool{false, true}},
		},
		"warmup_uops":  warmup,
		"measure_uops": measure,
	}
	if sampled {
		spec["sampling"] = map[string]any{}
	}
	return json.Marshal(spec)
}

type sweepInstance struct {
	units  []sweep.Unit
	replay *replayInputs
}

func setupSweep(ctx context.Context, e *env) (instance, error) {
	p := prng.New(e.seed ^ sweepSeedSalt)
	measure := size.sweepMeasure + 500*uint64(p.Intn(5))
	var names []string
	var specs []trace.Spec
	for i, sp := range trace.Catalog() {
		if size.sweepWorkloads > 0 && i >= size.sweepWorkloads {
			break
		}
		names = append(names, sp.Name)
		specs = append(specs, sp)
	}
	base := service.ConfigSpec{RFP: true}
	raw, err := sweepSpec(names, base, sweepWarmup, measure, true)
	if err != nil {
		return nil, err
	}
	spec, err := sweep.ParseSpec(raw)
	if err != nil {
		return nil, err
	}
	units, err := spec.Expand()
	if err != nil {
		return nil, err
	}
	// Lazy set-up: the grid's first unit through the backend before
	// timing, the same unit whatever the seed.
	if _, err := (sweep.LocalBackend{}).Run(ctx, units[0]); err != nil {
		return nil, err
	}
	// The seed also picks the dispatch order.
	for i := len(units) - 1; i > 0; i-- {
		j := p.Intn(i + 1)
		units[i], units[j] = units[j], units[i]
	}
	cfgSpec := service.ConfigSpec{RFP: true, CLP: true, Prefetcher: "managed"}
	cfg, err := cfgSpec.Build()
	if err != nil {
		return nil, err
	}
	stream, err := shifted("spec06_gcc", e.seed)
	if err != nil {
		return nil, err
	}
	in := &sweepInstance{units: units, replay: &replayInputs{
		spec: stream, newGen: stream.New, cfg: cfg, cfgSpec: cfgSpec, specs: specs, sweepRaw: raw,
	}}
	for _, u := range units {
		in.replay.requests = append(in.replay.requests, u.Req)
	}
	return in, nil
}

// timedBackend wraps the local backend to time each unit from outside and
// record its span, with the stage children the runner billed to the
// unit's timings collector.
type timedBackend struct {
	inner sweep.LocalBackend
	rec   *recorder

	mu   sync.Mutex
	lat  map[string]time.Duration
	rest map[string]time.Duration
}

func newTimedBackend(rec *recorder) *timedBackend {
	return &timedBackend{rec: rec, lat: map[string]time.Duration{}, rest: map[string]time.Duration{}}
}

// overhead is the orchestrator's own share of a sweep's wall time: the
// wall time minus the units' time divided among the parallel slots.
func (b *timedBackend) overhead(wall time.Duration) time.Duration {
	b.mu.Lock()
	defer b.mu.Unlock()
	var busy time.Duration
	for _, d := range b.lat {
		busy += d
	}
	return wall - busy/sweepParallel
}

// Name implements sweep.Backend.
func (b *timedBackend) Name() string { return b.inner.Name() }

// Run implements sweep.Backend.
func (b *timedBackend) Run(ctx context.Context, u sweep.Unit) (*service.SimResponse, error) {
	sp := b.rec.begin("unit", nil)
	t0 := time.Now()
	resp, err := b.inner.Run(ctx, u)
	lat := time.Since(t0)
	sp.end(1)
	tim := obs.ContextTimings(ctx)
	sp.stages(tim)
	b.mu.Lock()
	b.lat[u.Key] = lat
	if tim != nil {
		b.rest[u.Key] = lat - tim.Total()
	}
	b.mu.Unlock()
	return resp, err
}

func (in *sweepInstance) round(ctx context.Context, e *env, rec *recorder) (*round, error) {
	b := newTimedBackend(rec)
	m := &sweep.Metrics{}
	t0 := time.Now()
	sum, err := sweep.Run(ctx, in.units, b, sweep.Options{Parallel: sweepParallel}, m)
	wall := time.Since(t0)
	if err != nil && (sum == nil || len(sum.Failed) == 0) {
		return nil, err
	}
	r := &round{wall: wall, ops: len(in.units), simWall: wall}
	for _, f := range sum.Failed {
		e.chk.op(fmt.Errorf("unit %s: %w", f.Unit.Label, f.Err))
	}
	for _, u := range in.units {
		resp, ok := sum.Results[u.Key]
		if !ok {
			continue
		}
		body, err := json.Marshal(resp)
		if err != nil {
			return nil, err
		}
		e.chk.op(e.chk.verify("unit:"+u.Label, digest(body), false))
		r.simUops += u.Req.WarmupUops + u.Req.MeasureUops
		r.jobs = append(r.jobs, b.lat[u.Key])
		r.unattributed = append(r.unattributed, b.rest[u.Key])
		r.sims = append(r.sims, resp.Stats)
		r.bodies = append(r.bodies, body)
	}
	var csv bytes.Buffer
	if err := sum.WriteCSV(&csv); err != nil {
		return nil, err
	}
	e.chk.op(e.chk.verify("csv", digest(csv.Bytes()), true))
	r.count("sweep.units_failed", len(sum.Failed))
	r.count("sweep.retried", int(m.Retried()))
	r.sample("sweep", wall)
	r.sample("overhead", b.overhead(wall))
	return r, nil
}

func (in *sweepInstance) inputs() *replayInputs { return in.replay }

func (in *sweepInstance) close() {}
