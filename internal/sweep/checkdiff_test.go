package sweep

import (
	"bytes"
	"context"
	"fmt"
	"strings"
	"testing"

	"rfpsim/internal/runner"
	"rfpsim/internal/service"
	"rfpsim/internal/tracefile"
)

const diffSpecJSON = `{
	"name": "diffsweep",
	"mode": "check_diff",
	"workloads": ["spec06_mcf"],
	"base": {"rfp": true},
	"axes": [{"knob": "pt_entries", "values": [128, 256]}],
	"measure_uops": 3000
}`

// TestCheckDiffSweep runs a small differential sweep end to end: every
// grid point pairs RFP-on against the derived RFP-off base, digests
// must agree, and the CSV carries one verdict block per unit in grid
// order.
func TestCheckDiffSweep(t *testing.T) {
	spec, err := ParseSpec([]byte(diffSpecJSON))
	if err != nil {
		t.Fatal(err)
	}
	if !spec.CheckDiff() {
		t.Fatal("spec should be in check_diff mode")
	}
	units, err := spec.ExpandDiff(nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(units) != 2 {
		t.Fatalf("got %d units, want 2", len(units))
	}
	for _, u := range units {
		if u.Diff.Base.RFP.Enabled || !u.Diff.Variant.RFP.Enabled {
			t.Fatalf("unit %s: default diff mode must pair RFP-off base against RFP-on variant", u.Label)
		}
	}

	m := &Metrics{}
	var progress bytes.Buffer
	sum, err := RunCheckDiff(context.Background(), units, 2, m, &progress)
	if err != nil {
		t.Fatal(err)
	}
	if !sum.Clean() {
		t.Fatalf("differential sweep not clean: %+v", sum.Results)
	}
	if m.Done() != 2 || m.checkViolations.Load() != 0 || m.diffDivergences.Load() != 0 {
		t.Fatalf("metrics: done=%d violations=%d divergences=%d",
			m.Done(), m.checkViolations.Load(), m.diffDivergences.Load())
	}
	if n := strings.Count(progress.String(), "identical"); n != 2 {
		t.Fatalf("progress reported %d identical units, want 2:\n%s", n, progress.String())
	}

	var csvOut bytes.Buffer
	if err := sum.WriteCSV(&csvOut); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(csvOut.String()), "\n")
	if lines[0] != "experiment,metric,value" {
		t.Fatalf("header = %q", lines[0])
	}
	if len(lines)-1 != len(units)*3 {
		t.Fatalf("got %d data rows, want %d", len(lines)-1, len(units)*3)
	}
	for i, u := range units {
		if want := u.Label + ",diverged,0"; lines[1+3*i] != want {
			t.Fatalf("row %d = %q, want %q", 1+3*i, lines[1+3*i], want)
		}
	}
}

// TestCheckDiffSpecValidation pins the loud-failure contract of the
// mode/diff_mode knobs.
func TestCheckDiffSpecValidation(t *testing.T) {
	bad := []string{
		`{"name": "x", "workloads": ["spec06_mcf"], "mode": "bogus"}`,
		`{"name": "x", "workloads": ["spec06_mcf"], "diff_mode": "norfp"}`,
	}
	for _, js := range bad {
		if _, err := ParseSpec([]byte(js)); err == nil {
			t.Errorf("spec %s should not parse", js)
		}
	}

	spec, err := ParseSpec([]byte(diffSpecJSON))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := spec.Expand(); err == nil {
		t.Error("Expand must reject a check_diff spec")
	}

	reject := func(mutate func(*Spec)) {
		t.Helper()
		s, err := ParseSpec([]byte(diffSpecJSON))
		if err != nil {
			t.Fatal(err)
		}
		mutate(s)
		if _, err := s.ExpandDiff(nil); err == nil {
			t.Errorf("ExpandDiff should reject the mutated spec")
		}
	}
	reject(func(s *Spec) { s.WarmupUops = 1000 })
	reject(func(s *Spec) { s.Seeds = 3 })
	reject(func(s *Spec) { s.ColdCaches = true })
	reject(func(s *Spec) { s.DiffMode = "nonsense" })
}

// TestCheckDiffTraceWorkload: a "trace:<sha256>" entry in a check_diff
// sweep runs the registered trace on both sides — the base side's
// statistics equal a plain run of the same bytes — and is labelled with
// the shortened address. An address the store does not hold, or no store
// at all, fails at expand time instead of comparing some other stream.
func TestCheckDiffTraceWorkload(t *testing.T) {
	store := service.NewTraceStore(0, 0, nil)
	raw := traceRFPT(t, 4000)
	info, _, err := store.Add(raw)
	if err != nil {
		t.Fatal(err)
	}
	spec, err := ParseSpec([]byte(fmt.Sprintf(`{
		"name": "trdiff", "mode": "check_diff",
		"workloads": [%q], "base": {"rfp": true}, "measure_uops": 2000
	}`, info.Workload)))
	if err != nil {
		t.Fatal(err)
	}
	for _, st := range []*service.TraceStore{nil, service.NewTraceStore(0, 0, nil)} {
		if _, err := spec.ExpandDiff(st); err == nil || !strings.Contains(err.Error(), "unknown trace address") {
			t.Errorf("expanding from store %p: err = %v, want an unknown trace address", st, err)
		}
	}
	units, err := spec.ExpandDiff(store)
	if err != nil {
		t.Fatal(err)
	}
	if want := "trdiff/" + info.Workload[:len("trace:")+16] + "/base"; len(units) != 1 || units[0].Label != want {
		t.Fatalf("units = %+v, want one labelled %s", units, want)
	}
	res, err := units[0].Diff.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if res.Diverged || res.BaseViolations+res.VariantViolations != 0 {
		t.Errorf("trace differential not clean: %s", res)
	}

	newGen, err := tracefile.Factory(raw, "direct")
	if err != nil {
		t.Fatal(err)
	}
	cfg := units[0].Diff.Base
	cfg.Checks.Enabled = true
	want, err := runner.Run(context.Background(), runner.Job{
		Config: cfg, Spec: units[0].Diff.Spec, NewGen: newGen, MeasureUops: 2000, Seeds: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := res.BaseStats; got.Cycles != want.Cycles || got.Loads != want.Loads || got.Instructions != want.Instructions {
		t.Errorf("base side ran %d cycles, %d loads, %d uops; the trace runs %d, %d, %d",
			got.Cycles, got.Loads, got.Instructions, want.Cycles, want.Loads, want.Instructions)
	}
}
