// Package bench is rfpbench, the end-to-end benchmark of the simulator
// and its serving tiers. One run executes one workload in a fresh process:
// it sets the workload up several times (reporting the median as
// setup_s), then repeats fixed rounds of work for the requested number of
// seconds, checks every result against committed goldens and against the
// run's own earlier rounds, and reports the end-to-end metrics named in
// BENCHMARK.json. A traced run splits the time between an untraced and a
// traced half, records spans around every public call it makes, and then
// replays each simulator layer on the workload's own seeded uop stream to
// report the per-layer metrics and the ns-per-uop ladder.
//
// Everything is measured from outside: the benchmark times calls into the
// simulator's public packages and never edits them. Simulated statistics
// start after footprint cache warming plus a cycle-accurate warmup. The
// model is unvalidated against hardware, so no accuracy figure is given.
package bench

import (
	"context"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"

	"rfpsim/internal/stats"
)

// Options selects one benchmark run.
type Options struct {
	// Workload is one of Workloads().
	Workload string
	// Seed selects the workload's inputs; the same seed gives the same
	// inputs. Seeds 0 and 1 have committed goldens.
	Seed uint64
	// Seconds is how long the measured rounds run.
	Seconds float64
	// Trace selects the traced run: per-layer metrics instead of
	// end-to-end ones.
	Trace bool
	// SpansPath, when set on a traced run, receives the recorded spans.
	SpansPath string
	// GoldenDir, when set, receives this run's result digests as the
	// golden file for (Workload, Seed).
	GoldenDir string
	// TempDir holds the run's scratch files (service cache directories,
	// disk-cache replays). The caller creates and removes it.
	TempDir string
	// Log receives the human-readable report.
	Log io.Writer
}

// Metric is one reported value with its unit.
type Metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// Report is the outcome of one run.
type Report struct {
	// Attempted and Failed count the checked operations of the measured
	// rounds; a failed operation is an error, a non-2xx response, or a
	// golden, determinism or cross-tier mismatch.
	Attempted, Failed int
	// EndToEnd holds every end-to-end metric.
	EndToEnd map[string]Metric
	// PerLayer holds every per-layer metric; it is nil unless the run was
	// traced.
	PerLayer map[string]Metric
	// Trace records whether the run was traced.
	Trace bool
}

// Result is the final JSON line a run prints.
type Result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]Metric `json:"metrics"`
}

// Result selects the metrics the run reports: per-layer ones for a traced
// run, end-to-end ones otherwise.
func (r *Report) Result() Result {
	m := r.EndToEnd
	if r.Trace {
		m = r.PerLayer
	}
	return Result{Correct: r.Failed == 0, Attempted: r.Attempted, Failed: r.Failed, Metrics: m}
}

// metricDef names one reported metric.
type metricDef struct {
	name, unit, better string
}

// endToEnd lists the end-to-end metrics every workload reports. They are
// generic on purpose — every workload must report every one — and each
// workload defines the job and the operation it times:
//
//	full-mem, full-ilp: a job is one runner.Run; an operation is a job.
//	sampled-sweep:      a job is one sweep unit; an operation is a unit.
//	service-mix:        a job is one miss-tier POST /v1/sim; an operation
//	                    is any request, whatever tier serves it.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower"},
	{"sim_uops_per_s", "1/s", "higher"},
	{"job_p50_ms", "ms", "lower"},
	{"ops_per_s", "1/s", "higher"},
	{"peak_rss_mb", "MB", "lower"},
}

// sizes holds the work counts of every workload. Tests shrink them; the
// command never changes them, so a run's work is fixed by this source.
type sizes struct {
	fullWarmup, memMeasure, ilpMeasure uint64

	sweepWorkloads int // catalog prefix swept; 0 = the whole catalog
	sweepMeasure   uint64

	svcMisses, svcHits, svcDedup int
	svcMeasure                   uint64
	svcTraceUops                 int

	replayUops   int    // uops generated for the layer replays
	matrixUops   uint64 // measured uops per cycle-loop matrix cell
	profileUops  uint64 // measured window of the sample-profile replay
	miniSessions int    // distinct requests in the service and sweep replays
	miniHits     int    // hit requests in the service replay
}

func defaultSizes() sizes {
	return sizes{
		fullWarmup: 100_000, memMeasure: 200_000, ilpMeasure: 1_200_000,
		sweepMeasure: 100_000,
		svcMisses:    80, svcHits: 50_000, svcDedup: 10,
		svcMeasure: 40_000, svcTraceUops: 250_000,
		replayUops: 200_000, matrixUops: 200_000, profileUops: 100_000,
		miniSessions: 8, miniHits: 2_000,
	}
}

// size is the work of every workload; see sizes.
var size = defaultSizes()

// setupRepeats is how many times a run sets its workload up; setup_s is
// the median.
const setupRepeats = 5

// round is the outcome of one fixed unit of a workload's work.
type round struct {
	wall    time.Duration // wall time of the round's operations
	ops     int           // operations completed
	simUops uint64        // uop window the round's jobs simulated
	simWall time.Duration // wall time of those jobs
	jobs    []time.Duration
	// unattributed holds, per job, its wall time minus the stage timings
	// the program exported for it.
	unattributed []time.Duration
	// samples and counts are workload-specific report lines.
	samples map[string][]time.Duration
	counts  map[string]int
	// sims and bodies are the distinct results of the round.
	sims   []*stats.Sim
	bodies [][]byte
}

func (r *round) sample(name string, d time.Duration) {
	if r.samples == nil {
		r.samples = map[string][]time.Duration{}
	}
	r.samples[name] = append(r.samples[name], d)
}

func (r *round) count(name string, n int) {
	if r.counts == nil {
		r.counts = map[string]int{}
	}
	r.counts[name] += n
}

// instance is a set-up workload ready to run rounds.
type instance interface {
	// round runs one fixed unit of work; rec is nil on untraced rounds.
	round(ctx context.Context, env *env, rec *recorder) (*round, error)
	// inputs describes the workload to the layer replay.
	inputs() *replayInputs
	close()
}

// workload is one benchmark workload.
type workload struct {
	name string
	// work fingerprints the work sizes, so a golden recorded for other
	// sizes is not applied.
	work  func() string
	setup func(ctx context.Context, env *env) (instance, error)
}

// Workloads lists the workload names in presentation order.
func Workloads() []string {
	var names []string
	for _, w := range workloads() {
		names = append(names, w.name)
	}
	return names
}

func workloads() []workload {
	return []workload{fullMem(), fullILP(), sampledSweep(), serviceMix()}
}

// env is the per-run state shared by set-up, rounds and replay.
type env struct {
	seed uint64
	tmp  string
	log  io.Writer
	chk  *checker
	dirs int // scratch directories handed out so far
}

// scratch returns a fresh directory under the run's temp dir.
func (e *env) scratch(prefix string) (string, error) {
	e.dirs++
	dir := filepath.Join(e.tmp, fmt.Sprintf("%s-%d", prefix, e.dirs))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", fmt.Errorf("scratch dir: %w", err)
	}
	return dir, nil
}

func (e *env) logf(format string, args ...any) {
	fmt.Fprintf(e.log, format, args...)
}

// phase is the rounds of one measured phase.
type phase struct {
	rounds []*round
}

// measure runs rounds until less than half a round of the budget
// remains, always at least one.
func measure(ctx context.Context, e *env, inst instance, budget time.Duration, rec *recorder) (*phase, error) {
	ph := &phase{}
	start := time.Now()
	for {
		r, err := inst.round(ctx, e, rec)
		if err != nil {
			return nil, err
		}
		ph.rounds = append(ph.rounds, r)
		elapsed := time.Since(start)
		e.logf("  round %d: %d ops in %.3f s\n", len(ph.rounds), r.ops, r.wall.Seconds())
		if elapsed+elapsed/time.Duration(2*len(ph.rounds)) >= budget {
			return ph, nil
		}
	}
}

func (ph *phase) totals() (ops int, wall time.Duration, simUops uint64, simWall time.Duration) {
	for _, r := range ph.rounds {
		ops += r.ops
		wall += r.wall
		simUops += r.simUops
		simWall += r.simWall
	}
	return
}

func (ph *phase) durations(pick func(*round) []time.Duration) []time.Duration {
	var out []time.Duration
	for _, r := range ph.rounds {
		out = append(out, pick(r)...)
	}
	return out
}

// endToEndMetrics derives the end-to-end metrics of a phase.
func endToEndMetrics(ph *phase, setups []float64) map[string]Metric {
	// Each metric is the median of its per-round values, so a burst of
	// interference from outside the process spoils a round, not the run.
	perRound := func(f func(r *round) float64) float64 {
		var xs []float64
		for _, r := range ph.rounds {
			xs = append(xs, f(r))
		}
		return median(xs)
	}
	return map[string]Metric{
		"setup_s":        {median(setups), "s"},
		"sim_uops_per_s": {perRound(func(r *round) float64 { return float64(r.simUops) / r.simWall.Seconds() }), "1/s"},
		"job_p50_ms":     {perRound(func(r *round) float64 { return median(msOf(r.jobs)) }), "ms"},
		"ops_per_s":      {perRound(func(r *round) float64 { return float64(r.ops) / r.wall.Seconds() }), "1/s"},
		"peak_rss_mb":    {peakRSSMB(), "MB"},
	}
}

// Run executes one benchmark run.
func Run(ctx context.Context, opts Options) (*Report, error) {
	var w *workload
	for _, c := range workloads() {
		if c.name == opts.Workload {
			w = &c
			break
		}
	}
	if w == nil {
		return nil, fmt.Errorf("unknown workload %q (valid: %s)", opts.Workload, strings.Join(Workloads(), ", "))
	}
	if opts.Seconds <= 0 {
		return nil, fmt.Errorf("seconds must be positive, got %v", opts.Seconds)
	}
	e := &env{
		seed: opts.Seed, tmp: opts.TempDir, log: opts.Log,
		chk: newChecker(w.name, opts.Seed, w.work()),
	}
	if opts.GoldenDir != "" {
		e.chk.golden = nil
		e.chk.note = "recording a new one; checking determinism and cross-tier agreement only"
	}
	e.logf("rfpbench: workload %s, seed %d, %.0f s, trace %t, GOMAXPROCS %d, %s\n",
		w.name, opts.Seed, opts.Seconds, opts.Trace, runtime.GOMAXPROCS(0), runtime.Version())
	e.logf("golden: %s\n", e.chk.note)

	var inst instance
	var setups []float64
	for i := 0; i < setupRepeats; i++ {
		if inst != nil {
			inst.close()
		}
		t0 := time.Now()
		var err error
		if inst, err = w.setup(ctx, e); err != nil {
			return nil, fmt.Errorf("%s set-up: %w", w.name, err)
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	defer inst.close()
	e.logf("set-up: %.4f s (median %.4f s)\n", setups, median(setups))

	budget := time.Duration(opts.Seconds * float64(time.Second))
	if opts.Trace {
		budget /= 2
	}
	e.logf("untraced rounds:\n")
	plain, err := measure(ctx, e, inst, budget, nil)
	if err != nil {
		return nil, err
	}
	rep := &Report{Trace: opts.Trace, EndToEnd: endToEndMetrics(plain, setups)}
	reportPhase(e, plain)

	if opts.Trace {
		rec := newRecorder()
		e.logf("traced rounds:\n")
		traced, err := measure(ctx, e, inst, budget, rec)
		if err != nil {
			return nil, err
		}
		reportPhase(e, traced)
		layers, err := replayLayers(ctx, e, inst.inputs(), traced.rounds[0].bodies, rec)
		if err != nil {
			return nil, fmt.Errorf("layer replay: %w", err)
		}
		rep.PerLayer = perLayerMetrics(e, plain, traced, layers, rec)
		printSelfTimes(e, rec)
		if opts.SpansPath != "" {
			if err := rec.write(opts.SpansPath, w.name, opts.Seed); err != nil {
				return nil, err
			}
			e.logf("spans: %d written to %s\n", rec.len(), opts.SpansPath)
		}
	}

	printMetrics(e, "end-to-end", endToEnd, rep.EndToEnd)
	if rep.PerLayer != nil {
		printMetrics(e, "per-layer", perLayer, rep.PerLayer)
	}
	rep.Attempted, rep.Failed = e.chk.totals()
	e.chk.printFailures(e.log)
	e.logf("checks: %d operations, %d failed\n", rep.Attempted, rep.Failed)
	if opts.GoldenDir != "" {
		if rep.Failed > 0 {
			return nil, fmt.Errorf("not writing a golden from a run with %d failed operations", rep.Failed)
		}
		path, err := e.chk.writeGolden(opts.GoldenDir)
		if err != nil {
			return nil, err
		}
		e.logf("golden written to %s\n", path)
	}
	return rep, nil
}

// reportPhase prints a phase's workload-specific latency sets and counts.
func reportPhase(e *env, ph *phase) {
	ops, wall, simUops, simWall := ph.totals()
	e.logf("  %d rounds, %d ops in %.3f s; %d simulated uops in %.3f s of jobs\n",
		len(ph.rounds), ops, wall.Seconds(), simUops, simWall.Seconds())
	sets := map[string][]time.Duration{"job": ph.durations(func(r *round) []time.Duration { return r.jobs })}
	counts := map[string]int{}
	for _, r := range ph.rounds {
		for k, v := range r.samples {
			sets[k] = append(sets[k], v...)
		}
		for k, v := range r.counts {
			counts[k] += v
		}
	}
	for _, k := range sortedKeys(sets) {
		ms := msOf(sets[k])
		e.logf("  %-10s n=%-7d p50 %.4f ms  p90 %.4f ms  p99 %.4f ms\n",
			k, len(ms), median(ms), percentile(ms, 0.90), percentile(ms, 0.99))
	}
	for _, k := range sortedKeys(counts) {
		e.logf("  %-24s %d\n", k, counts[k])
	}
}

func printMetrics(e *env, title string, defs []metricDef, m map[string]Metric) {
	e.logf("%s metrics:\n", title)
	for _, d := range defs {
		if v, ok := m[d.name]; ok {
			e.logf("  %-40s %14.6g %s\n", d.name, v.Value, v.Unit)
		}
	}
}

// peakRSSMB reports the process's peak resident set (VmHWM), falling
// back to the Go runtime's total reservation where /proc is absent.
func peakRSSMB() float64 {
	if b, err := os.ReadFile("/proc/self/status"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
				kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
				if err == nil {
					return kb / 1024
				}
			}
		}
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.Sys) / (1 << 20)
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
