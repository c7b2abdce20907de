package bench

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"time"

	"rfpsim/internal/champsim"
	"rfpsim/internal/config"
	"rfpsim/internal/core"
	"rfpsim/internal/fabric"
	"rfpsim/internal/isa"
	"rfpsim/internal/mem"
	"rfpsim/internal/predictor"
	"rfpsim/internal/rfp"
	"rfpsim/internal/sample"
	"rfpsim/internal/service"
	"rfpsim/internal/stats"
	"rfpsim/internal/sweep"
	"rfpsim/internal/trace"
	"rfpsim/internal/tracefile"
)

// replayInputs describes a workload to the layer replay.
type replayInputs struct {
	// spec is the catalog spec of the workload's stream, seed-shifted.
	spec trace.Spec
	// newGen returns a fresh copy of the stream the workload simulates.
	newGen func() isa.Generator
	// fromTrace marks a stream decoded from an uploaded trace: the
	// simulator does not footprint-warm those, so neither does the replay.
	fromTrace bool
	// cfg is the configuration whose cycle loop the ladder prices, and
	// cfgSpec its wire form.
	cfg     config.Core
	cfgSpec service.ConfigSpec
	// specs are the catalog workloads the workload runs.
	specs []trace.Spec
	// requests are the workload's operations as /v1/sim requests.
	requests []service.SimRequest
	// sweepRaw is the workload's own sweep spec, when it has one.
	sweepRaw []byte
}

// prefetchers lists the L1 prefetcher settings the replay and the
// cycle-loop matrix cover, "none" first.
var prefetchers = append([]string{"none"}, config.Prefetchers()...)

// replayReps is how many times each layer replay runs; the median is
// reported.
const replayReps = 3

// champsimFixture is the committed ChampSim trace the decode replay reads,
// relative to the repository root.
const champsimFixture = "internal/champsim/testdata/tiny.champsim.gz"

// layerTimer brackets the timed calls of one layer replay with a span.
type layerTimer struct {
	rec  *recorder
	name string
	sp   *span
	t0   time.Time
	d    time.Duration
	ops  int64
}

func (t *layerTimer) start() {
	t.sp = t.rec.begin(t.name, nil)
	t.t0 = time.Now()
}

func (t *layerTimer) stop(ops int64) {
	t.d += time.Since(t.t0)
	t.ops += ops
	t.sp.end(ops)
}

// measureLayer runs one layer replay replayReps times and returns the
// median nanoseconds per operation. fn prepares its inputs, then brackets
// the calls it times with t.start and t.stop.
func measureLayer(rec *recorder, name string, fn func(t *layerTimer) error) (float64, error) {
	var per []float64
	for i := 0; i < replayReps; i++ {
		t := &layerTimer{rec: rec, name: "replay." + name}
		if err := fn(t); err != nil {
			return 0, fmt.Errorf("%s: %w", name, err)
		}
		if t.ops == 0 {
			return 0, fmt.Errorf("%s: the stream gave it nothing to do", name)
		}
		per = append(per, float64(t.d)/float64(t.ops))
	}
	return median(per), nil
}

// layers is the outcome of the layer replay: per-layer metric values plus
// the cycle-loop matrix behind the ladder.
type layers struct {
	values    map[string]float64
	fromTrace bool // the cycle loop's source is the trace decoder
	matrix    []matrixCell
	ladder    *matrixCell // the cell matching the workload's configuration
}

// matrixCell is one cycle-loop measurement.
type matrixCell struct {
	name     string
	pf       string
	clp      bool
	nsPerUop float64
	nsPerCyc float64
	st       stats.Sim
}

// replayLayers replays every layer on the workload's stream, requests and
// result bodies.
func replayLayers(ctx context.Context, e *env, in *replayInputs, bodies [][]byte, rec *recorder) (*layers, error) {
	e.logf("layer replay on %s (%s):\n", in.spec.Name, in.cfg.Name)
	out := &layers{values: map[string]float64{}, fromTrace: in.fromTrace}
	set := func(name string, v float64, err error) error {
		if err != nil {
			return err
		}
		out.values[name] = v
		return nil
	}

	// The stream every micro-replay walks.
	uops := make([]isa.MicroOp, 0, size.replayUops)
	ns, err := measureLayer(rec, "trace.gen", func(t *layerTimer) error {
		uops = uops[:0]
		gen := in.spec.New()
		var op isa.MicroOp
		t.start()
		for len(uops) < size.replayUops && gen.Next(&op) {
			uops = append(uops, op)
		}
		t.stop(int64(len(uops)))
		return nil
	})
	if err := set("trace.gen_ns_per_uop", ns, err); err != nil {
		return nil, err
	}
	if err := replayTracefile(rec, uops, set); err != nil {
		return nil, err
	}
	levels, err := replayMem(rec, in, uops, set)
	if err != nil {
		return nil, err
	}
	if err := replayPredictors(rec, in, uops, levels, set); err != nil {
		return nil, err
	}
	if err := replayChampsim(rec, set); err != nil {
		return nil, err
	}
	if err := replayCore(ctx, rec, in, out); err != nil {
		return nil, err
	}
	if err := replaySample(ctx, rec, in, set); err != nil {
		return nil, err
	}
	if err := replayServing(ctx, e, rec, in, bodies, set); err != nil {
		return nil, err
	}
	return out, nil
}

func replayTracefile(rec *recorder, uops []isa.MicroOp, set func(string, float64, error) error) error {
	var buf bytes.Buffer
	ns, err := measureLayer(rec, "tracefile.encode", func(t *layerTimer) error {
		buf.Reset()
		w := tracefile.NewWriter(&buf)
		t.start()
		for i := range uops {
			if err := w.Write(&uops[i]); err != nil {
				return err
			}
		}
		err := w.Flush()
		t.stop(int64(len(uops)))
		return err
	})
	if err := set("tracefile.encode_ns_per_uop", ns, err); err != nil {
		return err
	}
	ns, err = measureLayer(rec, "tracefile.decode", func(t *layerTimer) error {
		r, err := tracefile.NewReader(bytes.NewReader(buf.Bytes()), "replay")
		if err != nil {
			return err
		}
		var op isa.MicroOp
		n := int64(0)
		t.start()
		for r.Next(&op) {
			n++
		}
		t.stop(n)
		if n != int64(len(uops)) {
			return fmt.Errorf("decoded %d of %d uops: %v", n, len(uops), r.Err())
		}
		return r.Err()
	})
	return set("tracefile.decode_ns_per_uop", ns, err)
}

// newHierarchy builds a hierarchy with the named prefetcher, warmed over
// the stream's footprint the way core.WarmCaches would warm it.
func newHierarchy(in *replayInputs, pf string, st *stats.Sim) *mem.Hierarchy {
	cfg := config.Baseline().Mem
	if pf != "none" {
		cfg.Prefetcher = pf
	}
	h := mem.NewHierarchy(cfg, config.OracleNone, st)
	if in.fromTrace {
		return h
	}
	if g, ok := in.spec.New().(interface{ FootprintRegions() [][2]uint64 }); ok {
		for _, r := range g.FootprintRegions() {
			for a := r[0]; a < r[0]+r[1]; a += isa.CacheLineSize {
				h.Warm(a)
			}
		}
	}
	return h
}

// replayMem drives Hierarchy.Access with every memory uop of the stream,
// one cycle per uop, for each prefetcher. It returns the level that served
// each load without prefetching, which the predictor replays train on.
func replayMem(rec *recorder, in *replayInputs, uops []isa.MicroOp, set func(string, float64, error) error) ([]int, error) {
	var levels []int
	h := newHierarchy(in, "none", nil)
	for i := range uops {
		if op := &uops[i]; op.IsLoad() {
			levels = append(levels, h.Access(op.Addr, op.PC, uint64(i), true).Level)
		} else if op.IsStore() {
			h.Access(op.Addr, op.PC, uint64(i), false)
		}
	}
	for _, pf := range prefetchers {
		ns, err := measureLayer(rec, "mem.access."+pf, func(t *layerTimer) error {
			h := newHierarchy(in, pf, &stats.Sim{})
			n := int64(0)
			t.start()
			for i := range uops {
				if op := &uops[i]; op.IsLoad() || op.IsStore() {
					h.Access(op.Addr, op.PC, uint64(i), op.IsLoad())
					n++
				}
			}
			t.stop(n)
			return nil
		})
		if err := set("mem.access_ns."+pf, ns, err); err != nil {
			return nil, err
		}
	}
	return levels, nil
}

func replayPredictors(rec *recorder, in *replayInputs, uops []isa.MicroOp, levels []int, set func(string, float64, error) error) error {
	ns, err := measureLayer(rec, "predictor.tage", func(t *layerTimer) error {
		p := predictor.NewTAGE()
		n := int64(0)
		t.start()
		for i := range uops {
			if op := &uops[i]; op.IsBranch() {
				p.Predict(op.PC)
				p.Update(op.PC, op.Taken)
				n++
			}
		}
		t.stop(n)
		return nil
	})
	if err := set("predictor.tage_ns_per_branch", ns, err); err != nil {
		return err
	}
	// forLoads walks the loads with the level that served each.
	forLoads := func(fn func(op *isa.MicroOp, level int)) int64 {
		k := 0
		for i := range uops {
			if op := &uops[i]; op.IsLoad() {
				fn(op, levels[k])
				k++
			}
		}
		return int64(k)
	}
	ns, err = measureLayer(rec, "predictor.hitmiss", func(t *layerTimer) error {
		p := predictor.NewHitMiss(12)
		t.start()
		n := forLoads(func(op *isa.MicroOp, level int) {
			p.Predict(op.PC)
			p.Update(op.PC, level == stats.LevelL1)
		})
		t.stop(n)
		return nil
	})
	if err := set("predictor.hitmiss_ns_per_load", ns, err); err != nil {
		return err
	}
	ns, err = measureLayer(rec, "predictor.clp", func(t *layerTimer) error {
		p := predictor.NewCLP(12, stats.NumLevels)
		t.start()
		n := forLoads(func(op *isa.MicroOp, level int) {
			p.Predict(op.PC)
			p.Train(op.PC, level)
		})
		t.stop(n)
		return nil
	})
	if err := set("predictor.clp_ns_per_load", ns, err); err != nil {
		return err
	}

	rfpCfg := config.DefaultRFP()
	rfpCfg.Enabled = true
	if in.cfg.RFP.Enabled {
		rfpCfg = in.cfg.RFP
	}
	ns, err = measureLayer(rec, "rfp.table", func(t *layerTimer) error {
		p := rfp.NewPrefetcher(rfpCfg, 0x5EED0F9F)
		var path uint64
		n := int64(0)
		t.start()
		for i := range uops {
			op := &uops[i]
			switch {
			case op.IsBranch():
				// The core's path hash: three PC bits and the direction.
				step := (op.PC >> 2) & 0x7
				if op.Taken {
					step ^= 1
				}
				path = (path<<4 ^ step) & 0xFFFF
			case op.IsLoad():
				p.Allocate(op.PC, path)
				p.Commit(op.PC, path, op.Addr)
				n++
			}
		}
		t.stop(n)
		return nil
	})
	if err := set("rfp.table_ns_per_load", ns, err); err != nil {
		return err
	}
	ns, err = measureLayer(rec, "rfp.queue", func(t *layerTimer) error {
		q := rfp.NewQueue(rfpCfg.QueueSize)
		t.start()
		// One packet per load, popped once eight are waiting: the queue's
		// steady state under a load every few uops.
		n := forLoads(func(op *isa.MicroOp, _ int) {
			q.Push(rfp.Packet{PC: op.PC, Addr: op.Addr})
			if q.Len() >= 8 {
				q.Pop()
			}
		})
		for q.Len() > 0 {
			q.Pop()
		}
		t.stop(n)
		return nil
	})
	return set("rfp.queue_ns_per_packet", ns, err)
}

// findRepoFile returns rel resolved against the nearest ancestor of the
// working directory that holds it: the command runs from the repository
// root, the tests from bench/.
func findRepoFile(rel string) (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		p := filepath.Join(dir, rel)
		if _, err := os.Stat(p); err == nil {
			return p, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("%s not found above the working directory", rel)
		}
		dir = parent
	}
}

func replayChampsim(rec *recorder, set func(string, float64, error) error) error {
	path, err := findRepoFile(champsimFixture)
	if err != nil {
		return err
	}
	f, err := champsim.OpenFile(path)
	if err != nil {
		return err
	}
	raw, err := io.ReadAll(f)
	f.Close()
	if err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	ns, err := measureLayer(rec, "champsim.decode", func(t *layerTimer) error {
		var r champsim.Record
		n := int64(0)
		t.start()
		for n < int64(size.replayUops) {
			d := champsim.NewDecoder(bytes.NewReader(raw))
			for d.Next(&r) {
				n++
			}
			if err := d.Err(); err != nil {
				return err
			}
			if d.Records() == 0 {
				return errors.New("fixture holds no records")
			}
		}
		t.stop(n)
		return nil
	})
	return set("champsim.decode_ns_per_record", ns, err)
}

// replayCore runs the cycle-loop matrix on the workload's stream and times
// core set-up and fast-forward.
func replayCore(ctx context.Context, rec *recorder, in *replayInputs, out *layers) error {
	warm := size.fullWarmup / 5
	for _, pf := range prefetchers {
		for _, clp := range []bool{false, true} {
			cfg := config.Baseline().WithRFP()
			if clp {
				cfg = cfg.WithCLP()
			}
			if pf != "none" {
				cfg = cfg.WithPrefetcher(pf)
			}
			c := core.New(cfg, in.newGen())
			c.WarmCaches()
			if err := c.Warmup(ctx, warm); err != nil {
				return fmt.Errorf("matrix %s: %w", cfg.Name, err)
			}
			cell := matrixCell{pf: pf, clp: clp, name: fmt.Sprintf("pf-%s.clp-%s", pf, onOff(clp))}
			sp := rec.begin("replay.core.run."+cell.name, nil)
			t0 := time.Now()
			st, err := c.Run(ctx, size.matrixUops)
			d := time.Since(t0)
			if err != nil {
				return fmt.Errorf("matrix %s: %w", cfg.Name, err)
			}
			sp.end(int64(st.Instructions))
			cell.st = *st
			cell.nsPerUop = float64(d) / float64(st.Instructions)
			cell.nsPerCyc = float64(d) / float64(st.Cycles)
			out.matrix = append(out.matrix, cell)
			out.values["core.run_ns_per_uop."+cell.name] = cell.nsPerUop
		}
	}
	want := in.cfg.Mem.ActivePrefetcher()
	if want == "" {
		want = "none"
	}
	for i := range out.matrix {
		if c := &out.matrix[i]; c.pf == want && c.clp == in.cfg.RFP.UseCLP {
			out.ladder = c
		}
	}
	if out.ladder == nil || !in.cfg.RFP.Enabled {
		return fmt.Errorf("configuration %s has no matrix cell", in.cfg.Name)
	}
	out.values["core.run_ns_per_uop"] = out.ladder.nsPerUop
	out.values["core.run_ns_per_cycle"] = out.ladder.nsPerCyc

	// Every job, and every point of a sampled job, builds a core and warms
	// its caches over the workload's footprint, so this is priced on each
	// of the workload's specs and the median reported.
	var builds []float64
	for _, sp := range in.specs {
		s := rec.begin("replay.core.new_warm", nil)
		t0 := time.Now()
		c := core.New(in.cfg, sp.New())
		c.WarmCaches()
		builds = append(builds, float64(time.Since(t0))/1e6)
		s.end(1)
	}
	out.values["core.new_warm_ms"] = median(builds)
	ff := uint64(size.replayUops)
	ns, err := measureLayer(rec, "core.fastforward", func(t *layerTimer) error {
		c := core.New(in.cfg, in.newGen())
		t.start()
		err := c.FastForward(ctx, ff)
		t.stop(int64(ff))
		return err
	})
	if err != nil {
		return err
	}
	out.values["core.fastforward_ns_per_uop"] = ns
	return nil
}

func onOff(b bool) string {
	if b {
		return "on"
	}
	return "off"
}

func replaySample(ctx context.Context, rec *recorder, in *replayInputs, set func(string, float64, error) error) error {
	var prof *sample.Profile
	ns, err := measureLayer(rec, "sample.profile", func(t *layerTimer) error {
		t.start()
		var err error
		prof, err = sample.ProfileGenerator(ctx, in.newGen(), in.spec.Name,
			size.fullWarmup/5, size.profileUops, sample.DefaultIntervalUops)
		t.stop(1)
		return err
	})
	if err := set("sample.profile_ms", ns/1e6, err); err != nil {
		return err
	}
	var plan *sample.Plan
	ns, err = measureLayer(rec, "sample.plan", func(t *layerTimer) error {
		t.start()
		var err error
		plan, err = sample.BuildPlan(prof, sample.DefaultMaxK, in.spec.Seed^sample.PlanSeedSalt)
		t.stop(1)
		return err
	})
	if err := set("sample.plan_ms", ns/1e6, err); err != nil {
		return err
	}
	set("sample.points_per_unit", float64(len(plan.Points)), nil)
	return set("sample.error_bound", plan.ErrorBound, nil)
}

// replayServing prices the serving layers on the workload's own requests
// and result bodies: content addressing, the disk cache, the sweep grid
// and CSV, plus a short service session and a short sweep over the
// workload's catalog specs.
func replayServing(ctx context.Context, e *env, rec *recorder, in *replayInputs, bodies [][]byte, set func(string, float64, error) error) error {
	ns, err := measureLayer(rec, "service.resolve", func(t *layerTimer) error {
		t.start()
		for _, req := range in.requests {
			if _, err := service.ContentAddress(req); err != nil {
				return err
			}
		}
		t.stop(int64(len(in.requests)))
		return nil
	})
	if err := set("service.resolve_us", ns/1e3, err); err != nil {
		return err
	}

	// Small requests over the workload's specs, so the sessions cost
	// little next to the workload itself.
	names := make([]string, 0, size.miniSessions)
	var reqs, dedup []service.SimRequest
	for i, sp := range in.specs {
		if i >= size.miniSessions {
			break
		}
		names = append(names, sp.Name)
		reqs = append(reqs, service.SimRequest{Workload: sp.Name, Config: in.cfgSpec, WarmupUops: 2000, MeasureUops: 6000})
		dedup = append(dedup, service.SimRequest{Workload: sp.Name, Config: in.cfgSpec, WarmupUops: 5000, MeasureUops: 20000})
	}
	if err := replayService(ctx, e, rec, reqs, dedup[:min(2, len(dedup))], set); err != nil {
		return err
	}
	if err := replayDisk(e, rec, bodies, set); err != nil {
		return err
	}
	return replaySweep(ctx, rec, in, names, bodies, set)
}

// replayService runs one short service session; its checks count against
// the replay, not the workload.
func replayService(ctx context.Context, e *env, rec *recorder, reqs, dedupReqs []service.SimRequest, set func(string, float64, error) error) error {
	plan := &svcPlan{hits: size.miniHits}
	for _, req := range reqs {
		r, err := newSvcRequest(req)
		if err != nil {
			return err
		}
		plan.reqs = append(plan.reqs, r)
	}
	for _, req := range dedupReqs {
		r, err := newSvcRequest(req)
		if err != nil {
			return err
		}
		plan.dedup = append(plan.dedup, r)
	}
	se := *e
	se.chk = newChecker("replay", e.seed, "")
	r, err := runSession(ctx, &se, plan, nil, rec)
	if err != nil {
		return fmt.Errorf("service session: %w", err)
	}
	if _, failed := se.chk.totals(); failed > 0 {
		se.chk.printFailures(e.log)
		return fmt.Errorf("service session: %d failed requests", failed)
	}
	us := func(name string) float64 { return median(msOf(r.samples[name])) * 1e3 }
	set("service.hit_us", us("hit"), nil)
	set("service.disk_us", us("disk"), nil)
	set("service.dedup_ms", us("dedup")/1e3, nil)
	set("service.queue_wait_ms", us("queue_wait")/1e3, nil)
	return set("service.miss_overhead_ms", median(msOf(r.unattributed)), nil)
}

// diskOps is how many entries the disk-cache replay stores and reads.
const diskOps = 256

func replayDisk(e *env, rec *recorder, bodies [][]byte, set func(string, float64, error) error) error {
	addrs := make([]string, diskOps)
	for i := range addrs {
		addrs[i] = digest(append([]byte(fmt.Sprint(i)), bodies[i%len(bodies)]...))
	}
	fill := func(t *layerTimer, timed bool) (*fabric.DiskCache, error) {
		dir, err := e.scratch("disk")
		if err != nil {
			return nil, err
		}
		dc, err := fabric.OpenDiskCache(dir, 0)
		if err != nil {
			return nil, err
		}
		if timed {
			t.start()
		}
		for i, a := range addrs {
			if err := dc.Put(a, bodies[i%len(bodies)]); err != nil {
				return nil, err
			}
		}
		if timed {
			t.stop(diskOps)
		}
		return dc, nil
	}
	ns, err := measureLayer(rec, "fabric.disk_put", func(t *layerTimer) error {
		_, err := fill(t, true)
		return err
	})
	if err := set("fabric.disk_put_us", ns/1e3, err); err != nil {
		return err
	}
	ns, err = measureLayer(rec, "fabric.disk_get", func(t *layerTimer) error {
		dc, err := fill(t, false)
		if err != nil {
			return err
		}
		t.start()
		for _, a := range addrs {
			if _, ok := dc.Get(a); !ok {
				return fmt.Errorf("entry %s missing", a[:12])
			}
		}
		t.stop(diskOps)
		return nil
	})
	return set("fabric.disk_get_us", ns/1e3, err)
}

// replaySweep times expanding the workload's sweep grid and writing its
// CSV, and measures the orchestrator's own overhead on a short sweep.
func replaySweep(ctx context.Context, rec *recorder, in *replayInputs, names []string, bodies [][]byte, set func(string, float64, error) error) error {
	raw := in.sweepRaw
	if raw == nil {
		var err error
		var all []string
		for _, sp := range in.specs {
			all = append(all, sp.Name)
		}
		if raw, err = sweepSpec(all, in.cfgSpec, sweepWarmup, size.sweepMeasure, true); err != nil {
			return err
		}
	}
	var units []sweep.Unit
	ns, err := measureLayer(rec, "sweep.expand", func(t *layerTimer) error {
		t.start()
		spec, err := sweep.ParseSpec(raw)
		if err == nil {
			units, err = spec.Expand()
		}
		t.stop(1)
		return err
	})
	if err := set("sweep.expand_ms", ns/1e6, err); err != nil {
		return err
	}
	sum := &sweep.Summary{Units: units, Results: map[string]*service.SimResponse{}}
	for i, u := range units {
		var resp service.SimResponse
		if err := json.Unmarshal(bodies[i%len(bodies)], &resp); err != nil {
			return err
		}
		sum.Results[u.Key] = &resp
	}
	ns, err = measureLayer(rec, "sweep.write_csv", func(t *layerTimer) error {
		t.start()
		err := sum.WriteCSV(io.Discard)
		t.stop(1)
		return err
	})
	if err := set("sweep.write_csv_ms", ns/1e6, err); err != nil {
		return err
	}

	mini, err := sweepSpec(names, in.cfgSpec, 2000, 6000, false)
	if err != nil {
		return err
	}
	spec, err := sweep.ParseSpec(mini)
	if err != nil {
		return err
	}
	miniUnits, err := spec.Expand()
	if err != nil {
		return err
	}
	var overheads []float64
	for i := 0; i < replayReps; i++ {
		b := newTimedBackend(rec)
		sp := rec.begin("replay.sweep.run", nil)
		t0 := time.Now()
		if _, err := sweep.Run(ctx, miniUnits, b, sweep.Options{Parallel: sweepParallel}, nil); err != nil {
			return fmt.Errorf("sweep replay: %w", err)
		}
		wall := time.Since(t0)
		sp.end(int64(len(miniUnits)))
		overheads = append(overheads, b.overhead(wall).Seconds())
	}
	return set("sweep.orchestrator_overhead_s", median(overheads), nil)
}
