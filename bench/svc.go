package bench

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"rfpsim/internal/fabric"
	"rfpsim/internal/isa"
	"rfpsim/internal/obs"
	"rfpsim/internal/prng"
	"rfpsim/internal/service"
	"rfpsim/internal/trace"
	"rfpsim/internal/tracefile"
)

// svcClients is the closed loop's client count: each client sends its
// next request only after the previous one completed, over at most this
// many connections. The daemon runs as many workers.
const svcClients = 2

// svcSeedSalt decorrelates the request choices from the catalog seeds.
const svcSeedSalt = 0x5E41CEB3

// svcTraceSpec is the catalog workload the uploaded trace is generated
// from.
const svcTraceSpec = "spark"

// serviceMix is an in-process rfpsimd behind httptest driven by a closed
// loop of two clients: a miss phase of distinct requests (a quarter of
// them sampled jobs on an uploaded trace), a hit phase replaying them, a
// daemon restart on the same cache directory with one more pass (the disk
// tier), and a dedup phase where both clients send each fresh request at
// once. The simulator core hardly matters here; service, fabric, tracefile
// decoding and the JSON/content-address path do.
func serviceMix() workload {
	return workload{
		name: "service-mix",
		work: func() string {
			return fmt.Sprintf("misses=%d hits=%d dedup=%d measure=%d trace=%s:%d",
				size.svcMisses, size.svcHits, size.svcDedup, size.svcMeasure, svcTraceSpec, size.svcTraceUops)
		},
		setup: setupService,
	}
}

// svcRequest is one prepared /v1/sim request.
type svcRequest struct {
	req  service.SimRequest
	body []byte // the marshalled request
	addr string // its content address
}

// svcPlan is the traffic of one service session.
type svcPlan struct {
	trace []byte
	reqs  []svcRequest // the miss, hit and disk phases
	dedup []svcRequest
	hits  int
}

func newSvcRequest(req service.SimRequest) (svcRequest, error) {
	body, err := json.Marshal(req)
	if err != nil {
		return svcRequest{}, err
	}
	addr, err := service.ContentAddress(req)
	if err != nil {
		return svcRequest{}, fmt.Errorf("request %s: %w", body, err)
	}
	return svcRequest{req: req, body: body, addr: addr}, nil
}

// genTrace encodes n uops of the spec as an .rfpt trace.
func genTrace(sp trace.Spec, n int) ([]byte, error) {
	var buf bytes.Buffer
	w := tracefile.NewWriter(&buf)
	gen := sp.New()
	var op isa.MicroOp
	for i := 0; i < n; i++ {
		if !gen.Next(&op) {
			return nil, fmt.Errorf("%s ended after %d uops", sp.Name, i)
		}
		if err := w.Write(&op); err != nil {
			return nil, err
		}
	}
	if err := w.Flush(); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// daemon is one in-process rfpsimd behind an httptest server.
type daemon struct {
	dir    string
	srv    *service.Server
	hs     *httptest.Server
	client *http.Client
}

// bootDaemon starts a daemon with 2 workers on the cache directory dir.
// It logs at info level into io.Discard, so log formatting stays on the
// request path.
func bootDaemon(dir string) (*daemon, error) {
	logger := slog.New(slog.NewTextHandler(io.Discard, &slog.HandlerOptions{Level: slog.LevelInfo}))
	srv, err := service.New(service.Options{Workers: svcClients, Logger: logger, Fabric: fabric.Options{Dir: dir}})
	if err != nil {
		return nil, err
	}
	hs := httptest.NewServer(srv.Handler())
	tr := &http.Transport{MaxConnsPerHost: svcClients, MaxIdleConnsPerHost: svcClients}
	return &daemon{dir: dir, srv: srv, hs: hs, client: &http.Client{Transport: tr}}, nil
}

func (d *daemon) close() {
	d.client.CloseIdleConnections()
	d.hs.Close()
	d.srv.Close()
}

// reply is one /v1/sim response as the client saw it.
type reply struct {
	status  int
	tier    string
	timings string
	body    []byte
	lat     time.Duration
}

func (d *daemon) do(ctx context.Context, method, path string, body []byte) (reply, error) {
	req, err := http.NewRequestWithContext(ctx, method, d.hs.URL+path, bytes.NewReader(body))
	if err != nil {
		return reply{}, err
	}
	t0 := time.Now()
	resp, err := d.client.Do(req)
	if err != nil {
		return reply{}, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	rep := reply{status: resp.StatusCode, tier: resp.Header.Get(service.CacheHeader),
		timings: resp.Header.Get(service.TimingsHeader), body: b, lat: time.Since(t0)}
	return rep, err
}

// upload stores the trace on the daemon and returns its workload name.
func (d *daemon) upload(ctx context.Context, raw []byte) (string, error) {
	rep, err := d.do(ctx, http.MethodPost, "/v1/traces", raw)
	if err != nil {
		return "", err
	}
	if rep.status != http.StatusOK {
		return "", fmt.Errorf("trace upload: HTTP %d: %s", rep.status, rep.body)
	}
	var up service.TraceUploadResponse
	if err := json.Unmarshal(rep.body, &up); err != nil {
		return "", fmt.Errorf("trace upload: %w", err)
	}
	return up.Workload, nil
}

// scrape reads the queue-wait histogram and the rejection counter from
// /metrics.
func (d *daemon) scrape(ctx context.Context) (waitSum float64, waitCount, rejected int, err error) {
	rep, err := d.do(ctx, http.MethodGet, "/metrics", nil)
	if err != nil {
		return 0, 0, 0, err
	}
	sc := bufio.NewScanner(bytes.NewReader(rep.body))
	for sc.Scan() {
		name, val, ok := strings.Cut(sc.Text(), " ")
		if !ok {
			continue
		}
		v, perr := strconv.ParseFloat(val, 64)
		if perr != nil {
			continue
		}
		switch name {
		case "rfpsimd_queue_wait_seconds_sum":
			waitSum = v
		case "rfpsimd_queue_wait_seconds_count":
			waitCount = int(v)
		case "rfpsimd_jobs_rejected_total":
			rejected = int(v)
		}
	}
	return waitSum, waitCount, rejected, sc.Err()
}

// closedLoop hands indices 0..n-1 to svcClients goroutines, each calling
// fn for its next index once the previous call returned, and waits for
// all of them.
func closedLoop(n int, fn func(i int)) {
	var next atomic.Int64
	var wg sync.WaitGroup
	for c := 0; c < svcClients; c++ {
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

type svcInstance struct {
	plan   *svcPlan
	d      *daemon // booted at set-up for the first round; nil after
	replay *replayInputs
}

func setupService(ctx context.Context, e *env) (instance, error) {
	stream, err := shifted(svcTraceSpec, e.seed)
	if err != nil {
		return nil, err
	}
	raw, err := genTrace(stream, size.svcTraceUops)
	if err != nil {
		return nil, err
	}
	dir, err := e.scratch("svc")
	if err != nil {
		return nil, err
	}
	d, err := bootDaemon(dir)
	if err != nil {
		return nil, err
	}
	traceName, err := d.upload(ctx, raw)
	if err != nil {
		d.close()
		return nil, err
	}
	plan, specs, err := servicePlan(e.seed, raw, traceName)
	if err != nil {
		d.close()
		return nil, err
	}
	cfgSpec := service.ConfigSpec{RFP: true}
	cfg, err := cfgSpec.Build()
	if err != nil {
		d.close()
		return nil, err
	}
	newGen := func() isa.Generator {
		r, err := tracefile.NewReader(bytes.NewReader(raw), stream.Name)
		if err != nil {
			panic("bench: generated trace failed to decode: " + err.Error())
		}
		return r
	}
	in := &svcInstance{plan: plan, d: d, replay: &replayInputs{
		spec: stream, newGen: newGen, fromTrace: true, cfg: cfg, cfgSpec: cfgSpec, specs: specs,
	}}
	for _, r := range plan.reqs {
		in.replay.requests = append(in.replay.requests, r.req)
	}
	return in, nil
}

// servicePlan builds the service-mix traffic. A request cannot carry a
// workload seed, so the seed picks window lengths and request order. The
// workloads and configurations are fixed, so every seed costs about the
// same.
func servicePlan(seed uint64, raw []byte, traceName string) (*svcPlan, []trace.Spec, error) {
	p := prng.New(seed ^ svcSeedSalt)
	catalog := trace.Catalog()
	cfgs := []service.ConfigSpec{{RFP: true}, {RFP: true, CLP: true, Prefetcher: "stream"}}
	plan := &svcPlan{trace: raw, hits: size.svcHits}
	nTrace := size.svcMisses / 4
	nCat := size.svcMisses - nTrace
	var specs []trace.Spec
	for i := 0; i < nCat; i++ {
		sp := catalog[i%len(catalog)]
		if i < len(catalog) {
			specs = append(specs, sp)
		}
		req := service.SimRequest{Workload: sp.Name, Config: cfgs[(i/len(catalog))%2],
			WarmupUops: 5000, MeasureUops: size.svcMeasure + 20*uint64(p.Intn(50))}
		r, err := newSvcRequest(req)
		if err != nil {
			return nil, nil, err
		}
		plan.reqs = append(plan.reqs, r)
	}
	for i := 0; i < nTrace; i++ {
		req := service.SimRequest{Workload: traceName, Config: cfgs[i%2], Sampling: &service.SamplingSpec{},
			WarmupUops: 5000, MeasureUops: size.svcMeasure*2/3 + 1000*uint64(i) + 10*uint64(p.Intn(100))}
		r, err := newSvcRequest(req)
		if err != nil {
			return nil, nil, err
		}
		plan.reqs = append(plan.reqs, r)
	}
	for i := len(plan.reqs) - 1; i > 0; i-- {
		j := p.Intn(i + 1)
		plan.reqs[i], plan.reqs[j] = plan.reqs[j], plan.reqs[i]
	}
	managed := service.ConfigSpec{RFP: true, Prefetcher: "managed"}
	for i := 0; i < size.svcDedup; i++ {
		sp := catalog[(7*i+3)%len(catalog)]
		req := service.SimRequest{Workload: sp.Name, Config: managed,
			WarmupUops: 5000, MeasureUops: size.svcMeasure/2 + 20*uint64(p.Intn(50))}
		r, err := newSvcRequest(req)
		if err != nil {
			return nil, nil, err
		}
		plan.dedup = append(plan.dedup, r)
	}
	return plan, specs, nil
}

func (in *svcInstance) round(ctx context.Context, e *env, rec *recorder) (*round, error) {
	d := in.d
	in.d = nil
	return runSession(ctx, e, in.plan, d, rec)
}

func (in *svcInstance) inputs() *replayInputs { return in.replay }

func (in *svcInstance) close() {
	if in.d != nil {
		in.d.close()
	}
}

// runSession runs one service session of the plan on d, or on a freshly
// booted daemon when d is nil, and closes it. Daemon boots and the
// restart are not operations: the round's wall time covers the four
// request phases only.
func runSession(ctx context.Context, e *env, plan *svcPlan, d *daemon, rec *recorder) (*round, error) {
	if d == nil {
		dir, err := e.scratch("svc")
		if err != nil {
			return nil, err
		}
		if d, err = bootDaemon(dir); err != nil {
			return nil, err
		}
		if plan.trace != nil {
			if _, err := d.upload(ctx, plan.trace); err != nil {
				d.close()
				return nil, err
			}
		}
	}
	defer func() {
		if d != nil {
			d.close()
		}
	}()
	r := &round{}
	var waitSum float64
	var waitCount, rejected int
	scrape := func(d *daemon) error {
		s, c, rj, err := d.scrape(ctx)
		waitSum += s
		waitCount += c
		rejected += rj
		return err
	}

	miss := make([]reply, len(plan.reqs))
	errs := make([]error, len(plan.reqs))
	t0 := time.Now()
	closedLoop(len(plan.reqs), func(i int) {
		sp := rec.begin("request.miss", nil)
		miss[i], errs[i] = d.do(ctx, http.MethodPost, "/v1/sim", plan.reqs[i].body)
		sp.end(1)
		if tim, err := obs.ParseTimings(miss[i].timings); err == nil {
			sp.stages(tim)
		}
	})
	r.simWall = time.Since(t0)
	r.wall += r.simWall
	for i, rep := range miss {
		r.ops++
		req := plan.reqs[i]
		if err := expect(rep, errs[i], "miss"); err != nil {
			e.chk.op(fmt.Errorf("miss %s: %w", req.addr[:12], err))
			miss[i].body = nil
			continue
		}
		e.chk.op(e.chk.verify(req.addr, digest(rep.body), true))
		r.count("service.tier_"+rep.tier, 1)
		r.jobs = append(r.jobs, rep.lat)
		r.sample("miss", rep.lat)
		r.simUops += req.req.WarmupUops + req.req.MeasureUops
		var resp service.SimResponse
		if err := json.Unmarshal(rep.body, &resp); err != nil {
			return nil, fmt.Errorf("miss body: %w", err)
		}
		r.sims = append(r.sims, resp.Stats)
		r.bodies = append(r.bodies, rep.body)
		if tim, err := obs.ParseTimings(rep.timings); err == nil {
			r.unattributed = append(r.unattributed, rep.lat-tim.Total())
		}
	}

	// replays checks that every request of a phase is served by tier with
	// the miss body, byte for byte.
	replays := func(phase, tier string, n int) {
		lat := make([]time.Duration, n)
		errs := make([]error, n)
		t0 := time.Now()
		closedLoop(n, func(i int) {
			j := i % len(plan.reqs)
			sp := rec.begin("request."+phase, nil)
			rep, err := d.do(ctx, http.MethodPost, "/v1/sim", plan.reqs[j].body)
			sp.end(1)
			lat[i] = rep.lat
			if err = expect(rep, err, tier); err == nil && !bytes.Equal(rep.body, miss[j].body) {
				err = errors.New("body differs from the miss body")
			}
			if err != nil {
				errs[i] = fmt.Errorf("%s %s: %w", phase, plan.reqs[j].addr[:12], err)
			}
		})
		r.wall += time.Since(t0)
		for i := range lat {
			r.ops++
			e.chk.op(errs[i])
			if errs[i] == nil {
				r.count("service.tier_"+tier, 1)
				r.sample(phase, lat[i])
			}
		}
	}
	replays("hit", "hit", plan.hits)

	if err := scrape(d); err != nil {
		return nil, err
	}
	dir := d.dir
	d.close()
	var err error
	if d, err = bootDaemon(dir); err != nil {
		return nil, fmt.Errorf("restart: %w", err)
	}
	replays("disk", "disk", len(plan.reqs))

	t0 = time.Now()
	for _, req := range plan.dedup {
		var pair [svcClients]reply
		var perr [svcClients]error
		var wg sync.WaitGroup
		start := make(chan struct{})
		for c := range pair {
			wg.Add(1)
			go func() {
				defer wg.Done()
				<-start
				sp := rec.begin("request.dedup", nil)
				pair[c], perr[c] = d.do(ctx, http.MethodPost, "/v1/sim", req.body)
				sp.end(1)
			}()
		}
		close(start)
		wg.Wait()
		for c, rep := range pair {
			r.ops++
			err := expect(rep, perr[c], "")
			if err == nil && !bytes.Equal(rep.body, pair[0].body) {
				err = errors.New("the two bodies differ")
			}
			if err == nil {
				err = e.chk.verify(req.addr, digest(rep.body), true)
			}
			if err != nil {
				e.chk.op(fmt.Errorf("dedup %s: %w", req.addr[:12], err))
				continue
			}
			e.chk.op(nil)
			r.count("service.tier_"+rep.tier, 1)
			// The request that did not simulate: coalesced onto the other,
			// or a hit when it arrived after the other finished.
			if rep.tier != "miss" {
				r.sample("dedup", rep.lat)
			}
		}
	}
	r.wall += time.Since(t0)

	if err := scrape(d); err != nil {
		return nil, err
	}
	if waitCount > 0 {
		r.sample("queue_wait", time.Duration(waitSum/float64(waitCount)*float64(time.Second)))
	}
	r.count("service.rejected", rejected)
	return r, nil
}

// expect checks a reply's transport error, status and (unless tier is
// empty) serving tier.
func expect(rep reply, err error, tier string) error {
	switch {
	case err != nil:
		return err
	case rep.status != http.StatusOK:
		return fmt.Errorf("HTTP %d: %s", rep.status, bytes.TrimSpace(rep.body))
	case tier != "" && rep.tier != tier:
		return fmt.Errorf("served by tier %q, want %q", rep.tier, tier)
	}
	return nil
}
