package experiments

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"rfpsim/internal/config"
	"rfpsim/internal/stats"
	"rfpsim/internal/trace"
)

// tiny returns fast options for unit tests: a handful of workloads and
// short windows. The shape assertions here are deliberately loose — the
// full-suite checks live in the repro (shape) test below and in
// cmd/experiments output.
func tiny() Options {
	names := []string{
		"spec06_hmmer", "spec06_mcf", "spec06_xalancbmk",
		"spec06_wrf", "spec17_deepsjeng", "spark",
	}
	var specs []trace.Spec
	for _, n := range names {
		s, ok := trace.ByName(n)
		if !ok {
			panic("missing workload " + n)
		}
		specs = append(specs, s)
	}
	return Options{WarmupUops: 8000, MeasureUops: 15000, Workloads: specs}
}

func TestAllExperimentsHaveUniqueIDs(t *testing.T) {
	seen := map[string]bool{}
	for _, e := range All() {
		if e.ID == "" || e.Title == "" || e.Run == nil {
			t.Errorf("experiment %+v incomplete", e.ID)
		}
		if seen[e.ID] {
			t.Errorf("duplicate experiment id %q", e.ID)
		}
		seen[e.ID] = true
	}
	if len(seen) < 19 {
		t.Errorf("only %d experiments registered; every paper artifact needs one", len(seen))
	}
}

func TestByID(t *testing.T) {
	if _, ok := ByID("fig10"); !ok {
		t.Error("fig10 missing")
	}
	if _, ok := ByID("nonsense"); ok {
		t.Error("found nonsense experiment")
	}
}

func TestOptionsDefaults(t *testing.T) {
	d := Default()
	if d.WarmupUops == 0 || d.MeasureUops == 0 {
		t.Error("default windows must be positive")
	}
	if len(d.workloads()) != 65 {
		t.Errorf("default workload set = %d, want 65", len(d.workloads()))
	}
	q := Quick()
	if len(q.workloads()) >= 65 || len(q.workloads()) == 0 {
		t.Errorf("quick subset size = %d", len(q.workloads()))
	}
	if d.parallel() <= 0 {
		t.Error("parallel must be positive")
	}
}

// runOK runs cfg on a fresh suite and fails the test on a simulation
// error.
func runOK(t *testing.T, ctx context.Context, cfg config.Core, opts Options) []Run {
	t.Helper()
	su := newSuite(ctx, opts)
	runs := su.run(cfg)
	if su.err != nil {
		t.Fatal(su.err)
	}
	return runs
}

func TestRunConfigProducesStats(t *testing.T) {
	runs := runOK(t, context.Background(), config.Baseline(), tiny())
	if len(runs) != 6 {
		t.Fatalf("got %d runs", len(runs))
	}
	for _, r := range runs {
		if r.Stats.Instructions == 0 || r.Stats.IPC() <= 0 {
			t.Errorf("%s: empty stats", r.Spec.Name)
		}
	}
}

// TestPairRunsZipsInOrder: pairs follow the run sets workload by
// workload, and a run set paired with itself shows no speedup.
func TestPairRunsZipsInOrder(t *testing.T) {
	a := runOK(t, context.Background(), config.Baseline(), tiny())
	pairs := pairRuns(a, a)
	if len(pairs) != len(a) {
		t.Fatalf("%d pairs from %d runs", len(pairs), len(a))
	}
	for i, p := range pairs {
		if p.spec.Name != a[i].Spec.Name || p.base != a[i].Stats || p.feat != a[i].Stats {
			t.Errorf("pair %d is %s, want %s's runs", i, p.spec.Name, a[i].Spec.Name)
		}
	}
	if sp := geomeanSpeedup(pairs); sp != 0 {
		t.Errorf("self speedup = %v, want 0", sp)
	}
}

func TestTableExperimentsNeedNoSimulation(t *testing.T) {
	for _, id := range []string{"table1", "table2", "table3"} {
		e, _ := ByID(id)
		res, err := e.Run(context.Background(), Options{})
		if err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		if res.Text == "" {
			t.Errorf("%s produced no text", id)
		}
	}
}

func TestTable1MatchesPaperStorage(t *testing.T) {
	e, _ := ByID("table1")
	res, err := e.Run(context.Background(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	// Table 1: 1K-entry PT = 6.5KB (52 bits/entry), PAT 64x44b, 128 RS bits.
	if res.Metrics["pt_bits_1k"] != 1024*52 {
		t.Errorf("PT bits = %v", res.Metrics["pt_bits_1k"])
	}
	if res.Metrics["pat_bits"] != 64*44 {
		t.Errorf("PAT bits = %v", res.Metrics["pat_bits"])
	}
	if res.Metrics["rs_bits"] != 128 {
		t.Errorf("RS bits = %v", res.Metrics["rs_bits"])
	}
}

func TestTable3Lists65(t *testing.T) {
	e, _ := ByID("table3")
	res, err := e.Run(context.Background(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Metrics["total"] != 65 {
		t.Errorf("table3 lists %v workloads, want 65", res.Metrics["total"])
	}
	if !strings.Contains(res.Text, "mcf") || !strings.Contains(res.Text, "lammps") {
		t.Error("table3 missing expected workloads")
	}
}

func TestFig2Shape(t *testing.T) {
	e, _ := ByID("fig2")
	res, err := e.Run(context.Background(), tiny())
	if err != nil {
		t.Fatal(err)
	}
	l1 := res.Metrics["frac_L1"]
	if l1 < 0.5 {
		t.Errorf("L1 fraction = %v, implausibly low even for the tiny subset", l1)
	}
	sum := 0.0
	for l := 0; l < stats.NumLevels; l++ {
		sum += res.Metrics["frac_"+stats.LevelName(l)]
	}
	if sum < 0.99 || sum > 1.01 {
		t.Errorf("fractions sum to %v", sum)
	}
}

func TestFig10Shape(t *testing.T) {
	e, _ := ByID("fig10")
	res, err := e.Run(context.Background(), tiny())
	if err != nil {
		t.Fatal(err)
	}
	if res.Metrics["speedup"] <= 0 {
		t.Errorf("RFP speedup = %v, must be positive", res.Metrics["speedup"])
	}
	if cov := res.Metrics["coverage"]; cov < 0.15 || cov > 0.9 {
		t.Errorf("coverage = %v, out of plausible range", cov)
	}
	if !strings.Contains(res.Text, "ALL") {
		t.Error("fig10 table missing aggregate row")
	}
}

func TestFig13FunnelMonotone(t *testing.T) {
	e, _ := ByID("fig13")
	res, err := e.Run(context.Background(), tiny())
	if err != nil {
		t.Fatal(err)
	}
	inj, ex, use := res.Metrics["injected"], res.Metrics["executed"], res.Metrics["useful"]
	if !(inj >= ex && ex >= use && use > 0) {
		t.Errorf("funnel not monotone: injected %v >= executed %v >= useful %v > 0", inj, ex, use)
	}
}

func TestFig16WaterfallMonotone(t *testing.T) {
	e, _ := ByID("fig16")
	res, err := e.Run(context.Background(), tiny())
	if err != nil {
		t.Fatal(err)
	}
	ap := res.Metrics["address_predictable"]
	hc := res.Metrics["high_confidence"]
	nf := res.Metrics["no_fwd"]
	pl := res.Metrics["probe_launched"]
	pt := res.Metrics["probe_in_time"]
	if !(ap >= hc && hc >= nf && nf >= pl && pl >= pt) {
		t.Errorf("waterfall not monotone: %v %v %v %v %v", ap, hc, nf, pl, pt)
	}
	if ap == 0 {
		t.Error("no address-predictable loads at all")
	}
}

func TestFig17ConfidenceTradeoff(t *testing.T) {
	e, _ := ByID("fig17")
	res, err := e.Run(context.Background(), tiny())
	if err != nil {
		t.Fatal(err)
	}
	// Wider confidence must reduce both coverage and wrong prefetches
	// (the paper's core trade-off).
	if res.Metrics["coverage_4bit"] >= res.Metrics["coverage_1bit"] {
		t.Errorf("4-bit coverage %v not below 1-bit %v",
			res.Metrics["coverage_4bit"], res.Metrics["coverage_1bit"])
	}
	if res.Metrics["wrong_4bit"] >= res.Metrics["wrong_1bit"] {
		t.Errorf("4-bit wrong %v not below 1-bit %v",
			res.Metrics["wrong_4bit"], res.Metrics["wrong_1bit"])
	}
}

func TestEffectivenessSplit(t *testing.T) {
	e, _ := ByID("effectiveness")
	res, err := e.Run(context.Background(), tiny())
	if err != nil {
		t.Fatal(err)
	}
	if res.Metrics["fully_hidden"] <= 0 {
		t.Error("no fully hidden prefetches")
	}
	if res.Metrics["partial"] < 0 {
		t.Error("negative partial fraction")
	}
}

func TestPATStorageSaving(t *testing.T) {
	e, _ := ByID("pat")
	res, err := e.Run(context.Background(), tiny())
	if err != nil {
		t.Fatal(err)
	}
	if s := res.Metrics["storage_saving"]; s < 0.35 || s > 0.6 {
		t.Errorf("PAT storage saving = %v, want ~0.44 (paper ~50%%)", s)
	}
}

func TestSortedMetricKeys(t *testing.T) {
	keys := sortedMetricKeys(map[string]float64{"b": 1, "a": 2, "c": 3})
	if len(keys) != 3 || keys[0] != "a" || keys[2] != "c" {
		t.Errorf("keys = %v", keys)
	}
}

func TestRankCorrelationBounds(t *testing.T) {
	if r := rankCorrelation(nil); r != 0 {
		t.Errorf("empty correlation = %v", r)
	}
	// Perfectly correlated synthetic pairs.
	mk := func(ipcRatio, cov float64) pair {
		base := &stats.Sim{Cycles: 1000, Instructions: 1000}
		feat := &stats.Sim{Cycles: 1000, Instructions: uint64(1000 * ipcRatio)}
		feat.Loads = 1000
		feat.RFP.Useful = uint64(1000 * cov)
		return pair{base: base, feat: feat}
	}
	pairs := []pair{mk(1.01, 0.1), mk(1.02, 0.2), mk(1.03, 0.3), mk(1.04, 0.4)}
	if r := rankCorrelation(pairs); r < 0.99 {
		t.Errorf("perfect correlation = %v, want ~1", r)
	}
	// Perfectly anti-correlated.
	pairs = []pair{mk(1.04, 0.1), mk(1.03, 0.2), mk(1.02, 0.3), mk(1.01, 0.4)}
	if r := rankCorrelation(pairs); r > -0.99 {
		t.Errorf("perfect anticorrelation = %v, want ~-1", r)
	}
}

// TestPaperShapeQuick is the repro gate: on a quarter of the suite with
// reduced windows, the qualitative claims of the paper must hold. The full
// suite (cmd/experiments -run all) is the real reproduction; this keeps CI
// honest without hour-long runs.
func TestPaperShapeQuick(t *testing.T) {
	if testing.Short() {
		t.Skip("long")
	}
	opts := Quick()

	fig10, err := ByIDMust("fig10").Run(context.Background(), opts)
	if err != nil {
		t.Fatal(err)
	}
	if sp := fig10.Metrics["speedup"]; sp < 0.005 || sp > 0.12 {
		t.Errorf("RFP speedup = %v, want positive low single digits (paper 3.1%%)", sp)
	}
	if cov := fig10.Metrics["coverage"]; cov < 0.25 || cov > 0.8 {
		t.Errorf("RFP coverage = %v (paper 43.4%%)", cov)
	}

	fig1, err := ByIDMust("fig1").Run(context.Background(), opts)
	if err != nil {
		t.Fatal(err)
	}
	l1rf := fig1.Metrics["speedup_L1->RF"]
	l2l1 := fig1.Metrics["speedup_L2->L1"]
	memllc := fig1.Metrics["speedup_Mem->LLC"]
	if l1rf <= l2l1 {
		t.Errorf("L1->RF headroom (%v) must exceed L2->L1 (%v): the paper's motivation", l1rf, l2l1)
	}
	if l1rf <= 0.01 || memllc <= 0.01 {
		t.Errorf("outer walls too small: L1->RF %v, Mem->LLC %v", l1rf, memllc)
	}
}

// ByIDMust panics when the experiment is missing (test helper).
func ByIDMust(id string) Experiment {
	e, ok := ByID(id)
	if !ok {
		panic("missing experiment " + id)
	}
	return e
}

func TestPowerExperimentShape(t *testing.T) {
	res, err := ByIDMust("power").Run(context.Background(), tiny())
	if err != nil {
		t.Fatal(err)
	}
	if res.Metrics["epu_baseline"] <= 0 {
		t.Fatal("baseline energy must be positive")
	}
	// Flush waste must burden the flush-prone schemes more than RFP.
	if res.Metrics["flush_epp"] < res.Metrics["flush_rfp"] {
		t.Errorf("EPP flush waste %v below RFP %v", res.Metrics["flush_epp"], res.Metrics["flush_rfp"])
	}
	// RFP must not blow up the energy budget (paper: no significant
	// power overhead).
	if res.Metrics["epu_rfp"] > 1.1*res.Metrics["epu_baseline"] {
		t.Errorf("RFP energy/uop %v vs baseline %v", res.Metrics["epu_rfp"], res.Metrics["epu_baseline"])
	}
}

func TestBandwidthExperimentShape(t *testing.T) {
	res, err := ByIDMust("bandwidth").Run(context.Background(), tiny())
	if err != nil {
		t.Fatal(err)
	}
	base := res.Metrics["l1apu_baseline"]
	if base <= 0 {
		t.Fatal("baseline L1 traffic must be positive")
	}
	// Neither scheme should come close to doubling L1 traffic (the
	// two-accesses-per-load failure mode of naive address prediction).
	for _, k := range []string{"l1apu_rfp", "l1apu_dlvp"} {
		if res.Metrics[k] > 1.5*base {
			t.Errorf("%s = %v vs baseline %v: traffic explosion", k, res.Metrics[k], base)
		}
	}
}

func TestCriticalExperimentShape(t *testing.T) {
	res, err := ByIDMust("critical").Run(context.Background(), tiny())
	if err != nil {
		t.Fatal(err)
	}
	if res.Metrics["injected_critical"] >= res.Metrics["injected_full"] {
		t.Error("criticality targeting must reduce prefetch traffic")
	}
	if res.Metrics["injected_critical"] <= 0 {
		t.Error("criticality targeting injected nothing")
	}
}

func TestHWPrefetchExperimentShape(t *testing.T) {
	res, err := ByIDMust("hwprefetch").Run(context.Background(), tiny())
	if err != nil {
		t.Fatal(err)
	}
	// RFP must retain a meaningful gain on top of the cache prefetcher
	// (it targets latency, not misses).
	if res.Metrics["speedup_rfp_on_hw"] <= 0 {
		t.Errorf("RFP on top of HW prefetching = %v, want positive", res.Metrics["speedup_rfp_on_hw"])
	}
}

// TestPrefZooShape checks the prefetcher-zoo experiment's plumbing on the
// tiny subset: every scheme reports sane coverage/accuracy fractions, the
// cache-prefetching schemes actually issue prefetches, and the managed
// adaptivity score is a fraction.
func TestPrefZooShape(t *testing.T) {
	res, err := ByIDMust("prefzoo").Run(context.Background(), tiny())
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range []string{"stream", "spp", "sisb", "managed"} {
		if res.Metrics["issued_kuop_"+k] <= 0 {
			t.Errorf("%s issued no prefetches", k)
		}
		cov, acc := res.Metrics["coverage_"+k], res.Metrics["accuracy_"+k]
		if cov < 0 || cov > 1 || acc < 0 || acc > 1 {
			t.Errorf("%s coverage/accuracy out of range: %v / %v", k, cov, acc)
		}
	}
	// The no-prefetcher scheme must report zero L1PF activity.
	if res.Metrics["issued_kuop_none"] != 0 || res.Metrics["coverage_none"] != 0 {
		t.Errorf("scheme 'none' reports prefetch activity: %v issued/kuop",
			res.Metrics["issued_kuop_none"])
	}
	if wf := res.Metrics["managed_wins_frac"]; wf < 0 || wf > 1 {
		t.Errorf("managed_wins_frac = %v", wf)
	}
}

// TestRunConfigDeterministicUnderParallelism guards against shared-state
// races between concurrently simulated workloads: two independent parallel
// sweeps must produce identical cycle counts.
func TestRunConfigDeterministicUnderParallelism(t *testing.T) {
	opts := tiny()
	opts.Parallel = 6
	a := runOK(t, context.Background(), config.Baseline().WithRFP(), opts)
	b := runOK(t, context.Background(), config.Baseline().WithRFP(), opts)
	for i := range a {
		if a[i].Stats.Cycles != b[i].Stats.Cycles {
			t.Errorf("%s: nondeterministic cycles %d vs %d",
				a[i].Spec.Name, a[i].Stats.Cycles, b[i].Stats.Cycles)
		}
	}
}

// TestEveryExperimentRunsAtMicroScale executes all experiments on a
// two-workload, tiny-window configuration so every Run function's plumbing
// (config construction, pairing, metric assembly) is exercised in CI. It
// then runs them all again in one memoized invocation, as cmd/experiments
// does: the reports must match the standalone ones exactly (an experiment
// that mutated shared statistics or sorted a shared slice would break
// this), and the memo must simulate each distinct job once.
func TestEveryExperimentRunsAtMicroScale(t *testing.T) {
	if testing.Short() {
		t.Skip("long")
	}
	var micro Options
	for _, name := range []string{"spec06_hmmer", "spec06_mcf"} {
		s, ok := trace.ByName(name)
		if !ok {
			t.Fatal("missing workload")
		}
		micro.Workloads = append(micro.Workloads, s)
	}
	micro.WarmupUops = 3000
	micro.MeasureUops = 6000
	alone := map[string]*Result{}
	for _, e := range All() {
		res, err := e.Run(context.Background(), micro)
		if err != nil {
			t.Errorf("%s: %v", e.ID, err)
			continue
		}
		alone[e.ID] = res
		if res.ID != e.ID {
			t.Errorf("%s returned result id %q", e.ID, res.ID)
		}
		if res.Text == "" {
			t.Errorf("%s produced no output", e.ID)
		}
		for k, v := range res.Metrics {
			if v != v { // NaN guard
				t.Errorf("%s metric %s is NaN", e.ID, k)
			}
		}
	}

	ctx := WithMemo(context.Background())
	for _, e := range All() {
		res, err := e.Run(ctx, micro)
		if err != nil {
			t.Errorf("%s memoized: %v", e.ID, err)
			continue
		}
		want := alone[e.ID]
		if want == nil {
			continue
		}
		if res.Text != want.Text {
			t.Errorf("%s: memoized report differs from the standalone one:\n%s\nwant:\n%s", e.ID, res.Text, want.Text)
		}
		if !reflect.DeepEqual(res.Metrics, want.Metrics) {
			t.Errorf("%s: memoized metrics differ from the standalone ones", e.ID)
		}
	}
	// The distinct configurations across the -run all list.
	const configs = 46
	m := ctx.Value(memoKey{}).(*memo)
	if want := configs * len(micro.Workloads); len(m.sims) != want || m.runs != want {
		t.Errorf("memo simulated %d jobs under %d keys, want each of %d keys once", m.runs, len(m.sims), want)
	}
}

// TestMemoStoresOnlyCompletedRuns: a cancelled run leaves nothing in the
// memo, so a later call simulates the job; a stored job is not simulated
// again, and each call gets its own statistics.
func TestMemoStoresOnlyCompletedRuns(t *testing.T) {
	opts := tiny()
	opts.Workloads = opts.Workloads[:2]
	ctx := WithMemo(context.Background())
	m := ctx.Value(memoKey{}).(*memo)
	cancelled, cancel := context.WithCancel(ctx)
	cancel()
	su := newSuite(cancelled, opts)
	su.run(config.Baseline())
	if su.err == nil {
		t.Fatal("cancelled run succeeded")
	}
	if len(m.sims) != 0 {
		t.Fatalf("memo stored %d cancelled runs", len(m.sims))
	}
	first := runOK(t, ctx, config.Baseline(), opts)
	simulated := m.runs
	second := runOK(t, ctx, config.Baseline(), opts)
	if m.runs != simulated {
		t.Errorf("memoized jobs simulated again: %d runs, want %d", m.runs, simulated)
	}
	for i := range first {
		if first[i].Stats == second[i].Stats || *first[i].Stats != *second[i].Stats {
			t.Errorf("%s: want equal statistics in distinct copies", first[i].Spec.Name)
		}
	}
}

// TestSeedReplication: Seeds > 1 must aggregate counters across replicas
// (instructions roughly scale with the replica count) and remain
// deterministic.
func TestSeedReplication(t *testing.T) {
	opts := tiny()
	opts.Workloads = opts.Workloads[:2]
	opts.Seeds = 3
	a := runOK(t, context.Background(), config.Baseline(), opts)
	b := runOK(t, context.Background(), config.Baseline(), opts)
	for i := range a {
		want := 3 * opts.MeasureUops
		if a[i].Stats.Instructions < want || a[i].Stats.Instructions > want+30 {
			t.Errorf("%s: %d instructions across 3 replicas, want ~%d",
				a[i].Spec.Name, a[i].Stats.Instructions, want)
		}
		if a[i].Stats.Cycles != b[i].Stats.Cycles {
			t.Errorf("%s: seed replication nondeterministic", a[i].Spec.Name)
		}
	}
	// Replicas are genuinely different dynamic instances.
	opts.Seeds = 1
	single := runOK(t, context.Background(), config.Baseline(), opts)
	if a[0].Stats.Cycles == 3*single[0].Stats.Cycles {
		t.Log("replica cycles happen to be an exact multiple; acceptable but unusual")
	}
}

func TestResultMetricKeysSorted(t *testing.T) {
	r := &Result{Metrics: map[string]float64{"z": 1, "a": 2}}
	keys := r.MetricKeys()
	if len(keys) != 2 || keys[0] != "a" {
		t.Errorf("keys = %v", keys)
	}
}

// TestRunConfigCancellation: a cancelled context fails the suite with an
// error that wraps context.Canceled and names the first workload and the
// configuration; every run carries zero statistics — no partial seed
// totals leak into downstream averaging — and later calls simulate
// nothing and keep the first error.
func TestRunConfigCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	su := newSuite(ctx, tiny())
	cfg := config.Baseline()
	for range 2 {
		runs := su.run(cfg)
		if len(runs) != len(tiny().Workloads) {
			t.Fatalf("got %d runs", len(runs))
		}
		for _, r := range runs {
			if *r.Stats != (stats.Sim{}) {
				t.Errorf("%s: cancelled run carries stats %+v, want zero", r.Spec.Name, r.Stats)
			}
		}
		cfg = cfg.WithRFP()
	}
	if !errors.Is(su.err, context.Canceled) {
		t.Errorf("err = %v, want wrapped context.Canceled", su.err)
	}
	if msg := fmt.Sprint(su.err); !strings.Contains(msg, "spec06_hmmer on baseline:") {
		t.Errorf("err = %q, want it to name the first workload and the baseline config", msg)
	}
}

// TestFailedSimulationFailsExperiment: every experiment that simulates
// returns an error and no result — and does not panic on the zero
// statistics its body sees — when its simulations are cancelled or
// rejected. A cancelled experiment leaves nothing in the memo.
func TestFailedSimulationFailsExperiment(t *testing.T) {
	opts := tiny()
	opts.Workloads = opts.Workloads[:2]
	cancelled, cancel := context.WithCancel(WithMemo(context.Background()))
	cancel()
	rejected := opts
	rejected.MeasureUops = 0
	cases := []struct {
		name string
		ctx  context.Context
		opts Options
		want error
	}{
		{"cancelled", cancelled, opts, context.Canceled},
		{"rejected", context.Background(), rejected, nil},
	}
	simulatesNothing := map[string]bool{"table1": true, "table2": true, "table3": true}
	for _, c := range cases {
		for _, e := range All() {
			t.Run(c.name+"/"+e.ID, func(t *testing.T) {
				res, err := e.Run(c.ctx, c.opts)
				switch {
				case simulatesNothing[e.ID]:
					if err != nil {
						t.Errorf("simulates nothing, yet failed: %v", err)
					}
				case err == nil:
					t.Errorf("returned nil error and result %+v", res)
				case res != nil:
					t.Errorf("returned a result alongside %v", err)
				case c.want != nil && !errors.Is(err, c.want):
					t.Errorf("err = %v, want wrapped %v", err, c.want)
				case !strings.Contains(err.Error(), opts.Workloads[0].Name+" on "):
					t.Errorf("err = %v, want it to name the failed workload", err)
				}
			})
		}
	}
	if m := cancelled.Value(memoKey{}).(*memo); len(m.sims) != 0 {
		t.Errorf("memo stored %d cancelled runs", len(m.sims))
	}
}
