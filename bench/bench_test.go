package bench

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// smallSizes shrinks every workload so that a traced run of all four
// takes a few seconds.
func smallSizes() sizes {
	return sizes{
		fullWarmup: 5000, memMeasure: 5000, ilpMeasure: 20000,
		sweepWorkloads: 3, sweepMeasure: 10000,
		svcMisses: 8, svcHits: 200, svcDedup: 2, svcMeasure: 5000, svcTraceUops: 30000,
		replayUops: 20000, matrixUops: 5000, profileUops: 10000,
		miniSessions: 2, miniHits: 50,
	}
}

// benchmarkMetrics reads the metric names and units BENCHMARK.json
// promises.
func benchmarkMetrics(t *testing.T) (endToEnd, perLayer map[string]string) {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	endToEnd, perLayer = map[string]string{}, map[string]string{}
	for _, m := range doc.EndToEnd {
		endToEnd[m.Name] = m.Unit
	}
	for _, m := range doc.PerLayer {
		perLayer[m.Name] = m.Unit
	}
	return endToEnd, perLayer
}

func checkMetrics(t *testing.T, kind string, got map[string]Metric, want map[string]string) {
	t.Helper()
	for name, unit := range want {
		m, ok := got[name]
		switch {
		case !ok:
			t.Errorf("%s metric %s not emitted", kind, name)
		case m.Unit != unit:
			t.Errorf("%s metric %s in %q, BENCHMARK.json says %q", kind, name, m.Unit, unit)
		case math.IsNaN(m.Value) || math.IsInf(m.Value, 0):
			t.Errorf("%s metric %s = %v", kind, name, m.Value)
		}
	}
	for name := range got {
		if _, ok := want[name]; !ok {
			t.Errorf("%s metric %s is not in BENCHMARK.json", kind, name)
		}
	}
}

// TestSmokeEveryWorkload runs each workload traced at a reduced size: the
// untraced half yields the end-to-end metrics and the traced half plus the
// layer replay the per-layer ones, so one run checks both sets against
// BENCHMARK.json.
func TestSmokeEveryWorkload(t *testing.T) {
	defer func(s sizes) { size = s }(size)
	size = smallSizes()
	endToEnd, perLayer := benchmarkMetrics(t)
	if len(Workloads()) != 4 {
		t.Fatalf("workloads %v", Workloads())
	}
	for _, w := range Workloads() {
		t.Run(w, func(t *testing.T) {
			var log bytes.Buffer
			spans := filepath.Join(t.TempDir(), "spans.json")
			rep, err := Run(context.Background(), Options{
				Workload: w, Seed: 0, Seconds: 0.01, Trace: true,
				SpansPath: spans, TempDir: t.TempDir(), Log: &log,
			})
			if err != nil {
				t.Fatalf("%v\n%s", err, log.String())
			}
			// Failed == 0 also means every hit, disk and dedup body matched
			// the miss body for its address byte for byte: the service
			// session counts any difference as a failed operation.
			if rep.Attempted == 0 || rep.Failed != 0 {
				t.Fatalf("attempted %d, failed %d\n%s", rep.Attempted, rep.Failed, log.String())
			}
			checkMetrics(t, "end-to-end", rep.EndToEnd, endToEnd)
			checkMetrics(t, "per-layer", rep.PerLayer, perLayer)
			if r := rep.PerLayer["core.residual_ns_per_uop"].Value; r < 0 {
				t.Errorf("core.residual_ns_per_uop = %v, want >= 0", r)
			}
			for _, line := range []string{"ladder:", "cycle-loop matrix", "tracing overhead:", "self time by span"} {
				if !strings.Contains(log.String(), line) {
					t.Errorf("report lacks %q", line)
				}
			}
			if _, err := os.Stat(spans); err != nil {
				t.Errorf("spans not written: %v", err)
			}
			if res := rep.Result(); len(res.Metrics) != len(perLayer) || !res.Correct {
				t.Errorf("traced result reports %d metrics, correct %t", len(res.Metrics), res.Correct)
			}
		})
	}
}

// TestServiceTiers checks the service-mix session served each phase from
// the tier it exercises.
func TestServiceTiers(t *testing.T) {
	defer func(s sizes) { size = s }(size)
	size = smallSizes()
	var log bytes.Buffer
	e := &env{tmp: t.TempDir(), log: &log, chk: newChecker("service-mix", 0, "")}
	inst, err := serviceMix().setup(context.Background(), e)
	if err != nil {
		t.Fatal(err)
	}
	defer inst.close()
	r, err := inst.round(context.Background(), e, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, failed := e.chk.totals(); failed != 0 {
		e.chk.printFailures(&log)
		t.Fatalf("%d failed requests\n%s", failed, log.String())
	}
	want := map[string]int{
		"service.tier_miss": size.svcMisses + size.svcDedup,
		"service.tier_disk": size.svcMisses,
	}
	for tier, n := range want {
		if r.counts[tier] != n {
			t.Errorf("%s = %d, want %d", tier, r.counts[tier], n)
		}
	}
	// A dedup follower that arrives after its leader finished is a hit.
	if got := r.counts["service.tier_hit"] + r.counts["service.tier_dedup"]; got != size.svcHits+size.svcDedup {
		t.Errorf("hit+dedup = %d, want %d", got, size.svcHits+size.svcDedup)
	}
}
