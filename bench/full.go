package bench

import (
	"context"
	"encoding/json"
	"fmt"
	"time"

	"rfpsim/internal/core"
	"rfpsim/internal/obs"
	"rfpsim/internal/runner"
	"rfpsim/internal/sample"
	"rfpsim/internal/service"
	"rfpsim/internal/stats"
	"rfpsim/internal/trace"
)

// fullWorkload is sequential full-window runner.Run jobs: one round runs
// one job per spec.
type fullWorkload struct {
	name    string
	specs   []string
	cfgSpec service.ConfigSpec
	measure func() uint64
}

// fullMem is low-IPC work: many simulated cycles per uop, DRAM misses and
// three prefetcher candidates training on every access, so Core.step and
// the mem prefetcher layer dominate.
func fullMem() workload {
	return fullWorkload{
		name:    "full-mem",
		specs:   []string{"spec06_mcf", "spec17_mcf", "spec06_omnetpp", "tpce"},
		cfgSpec: service.ConfigSpec{RFP: true, CLP: true, Prefetcher: "managed"},
		measure: func() uint64 { return size.memMeasure },
	}.workload()
}

// fullILP is high-IPC work: nearly every load hits the L1 and many uops
// retire per cycle, so per-uop work (rename/issue/commit, TAGE, the RFP
// table and queue) dominates and the prefetcher code is bypassed.
func fullILP() workload {
	return fullWorkload{
		name:    "full-ilp",
		specs:   []string{"spec06_hmmer", "spec06_bzip2", "spec06_perlbench", "spec17_x264"},
		cfgSpec: service.ConfigSpec{RFP: true},
		measure: func() uint64 { return size.ilpMeasure },
	}.workload()
}

func (f fullWorkload) workload() workload {
	return workload{
		name: f.name,
		work: func() string {
			cfg, _ := json.Marshal(f.cfgSpec)
			return fmt.Sprintf("specs=%v config=%s warmup=%d measure=%d", f.specs, cfg, size.fullWarmup, f.measure())
		},
		setup: f.setup,
	}
}

// shifted returns the catalog spec with its seed moved by the benchmark
// seed, the same perturbation runner.Run applies between replicas.
func shifted(name string, seed uint64) (trace.Spec, error) {
	sp, ok := trace.ByName(name)
	if !ok {
		return trace.Spec{}, fmt.Errorf("unknown catalog workload %q", name)
	}
	sp.Seed += seed * runner.SeedStride
	return sp, nil
}

type fullInstance struct {
	jobs   []runner.Job
	replay *replayInputs
}

// setup builds the jobs and pays each one's lazy set-up once: a core is
// built, its caches warmed and a short warmup run, so the first measured
// round does not absorb first-touch costs.
func (f fullWorkload) setup(ctx context.Context, e *env) (instance, error) {
	cfg, err := f.cfgSpec.Build()
	if err != nil {
		return nil, err
	}
	in := &fullInstance{}
	var specs []trace.Spec
	for _, name := range f.specs {
		sp, err := shifted(name, e.seed)
		if err != nil {
			return nil, err
		}
		specs = append(specs, sp)
		in.jobs = append(in.jobs, runner.Job{Config: cfg, Spec: sp,
			WarmupUops: size.fullWarmup, MeasureUops: f.measure(), Seeds: 1})
		c := core.New(cfg, sp.New())
		c.WarmCaches()
		if err := c.Warmup(ctx, size.fullWarmup/4); err != nil {
			return nil, err
		}
	}
	in.replay = &replayInputs{
		spec: specs[0], newGen: specs[0].New, cfg: cfg, cfgSpec: f.cfgSpec, specs: specs,
	}
	for _, j := range in.jobs {
		in.replay.requests = append(in.replay.requests, service.SimRequest{Workload: j.Spec.Name,
			Config: f.cfgSpec, WarmupUops: j.WarmupUops, MeasureUops: j.MeasureUops, Seeds: 1})
	}
	return in, nil
}

func (in *fullInstance) round(ctx context.Context, e *env, rec *recorder) (*round, error) {
	r := &round{}
	for _, job := range in.jobs {
		jctx, tim := obs.WithTimings(ctx)
		sp := rec.begin("job "+job.Spec.Name, nil)
		t0 := time.Now()
		st, err := runner.Run(jctx, job)
		lat := time.Since(t0)
		sp.end(1)
		sp.stages(tim)
		r.wall += lat
		r.ops++
		if err != nil {
			e.chk.op(fmt.Errorf("job %s: %w", job.Spec.Name, err))
			continue
		}
		d, err := jobDigest(st)
		if err != nil {
			return nil, err
		}
		e.chk.op(e.chk.verify("job:"+job.Spec.Name, d, true))
		r.simUops += job.WarmupUops + job.MeasureUops
		r.simWall += lat
		r.jobs = append(r.jobs, lat)
		r.unattributed = append(r.unattributed, lat-tim.Total())
		body, err := json.Marshal(service.Response(job, sample.Result{Stats: st}))
		if err != nil {
			return nil, err
		}
		r.sims = append(r.sims, st)
		r.bodies = append(r.bodies, body)
	}
	return r, nil
}

// jobDigest identifies a job's result: its cycles, instructions and a
// hash of the whole statistics block.
func jobDigest(st *stats.Sim) (string, error) {
	raw, err := json.Marshal(st)
	if err != nil {
		return "", err
	}
	return fmt.Sprintf("cycles=%d instructions=%d stats=%s", st.Cycles, st.Instructions, digest(raw)), nil
}

func (in *fullInstance) inputs() *replayInputs { return in.replay }

func (in *fullInstance) close() {}
