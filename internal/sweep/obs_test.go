package sweep

import (
	"bytes"
	"context"
	"strings"
	"testing"

	"rfpsim/internal/obs"
)

// TestSweepMetricsZeroStateGolden pins the zero-state exposition format
// byte for byte — names, HELP/TYPE lines, label sets, ordering — the same
// way the service's golden test pins rfpsimd's. Dashboards scrape this via
// rfpsweep -metrics-addr; a diff here is an API break.
func TestSweepMetricsZeroStateGolden(t *testing.T) {
	const want = `# HELP rfpsweep_units_total Units in the expanded sweep grid.
# TYPE rfpsweep_units_total gauge
rfpsweep_units_total 0
# HELP rfpsweep_units_done_total Units completed, by how.
# TYPE rfpsweep_units_done_total counter
rfpsweep_units_done_total{how="run"} 0
rfpsweep_units_done_total{how="cache"} 0
# HELP rfpsweep_units_failed_total Units that exhausted their retries.
# TYPE rfpsweep_units_failed_total counter
rfpsweep_units_failed_total 0
# HELP rfpsweep_unit_retries_total Extra backend attempts beyond each unit's first.
# TYPE rfpsweep_unit_retries_total counter
rfpsweep_unit_retries_total 0
# HELP rfpsim_check_violations_total Runtime invariant violations across check_diff units (docs/checking.md).
# TYPE rfpsim_check_violations_total counter
rfpsim_check_violations_total 0
# HELP rfpsweep_diff_divergences_total check_diff units whose committed digests diverged.
# TYPE rfpsweep_diff_divergences_total counter
rfpsweep_diff_divergences_total 0
# HELP rfpsweep_backend_requests_total Requests per backend endpoint.
# TYPE rfpsweep_backend_requests_total counter
# HELP rfpsweep_backend_errors_total Failed requests per backend endpoint.
# TYPE rfpsweep_backend_errors_total counter
# HELP rfpsweep_backend_latency_seconds_sum Cumulative request latency per backend endpoint.
# TYPE rfpsweep_backend_latency_seconds_sum counter
`
	var b strings.Builder
	(&Metrics{}).WritePrometheus(&b)
	if b.String() != want {
		t.Errorf("zero-state exposition drifted:\ngot:\n%s\nwant:\n%s", b.String(), want)
	}
}

// smallSpecJSON is a 1-workload, 2-point grid small enough to execute
// in-process in a test.
const smallSpecJSON = `{
	"name": "timsweep",
	"workloads": ["spec06_mcf"],
	"base": {"rfp": true},
	"axes": [{"knob": "pt_entries", "values": [128, 256]}],
	"warmup_uops": 2000,
	"measure_uops": 4000
}`

// TestTimingsCSV runs a small local sweep and checks the -timings CSV:
// one row per (executed unit, stage) in grid order, with a positive
// measure-stage wall time for every unit the runner actually simulated.
func TestTimingsCSV(t *testing.T) {
	spec, err := ParseSpec([]byte(smallSpecJSON))
	if err != nil {
		t.Fatal(err)
	}
	units, err := spec.Expand()
	if err != nil {
		t.Fatal(err)
	}
	sum, err := Run(context.Background(), units, LocalBackend{}, Options{Parallel: 2}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(sum.Timings) != len(units) {
		t.Fatalf("collected timings for %d units, want %d", len(sum.Timings), len(units))
	}

	var buf bytes.Buffer
	if err := sum.WriteTimingsCSV(&buf); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if lines[0] != "experiment,stage,seconds" {
		t.Fatalf("header = %q", lines[0])
	}
	wantRows := len(units) * len(obs.Stages())
	if len(lines)-1 != wantRows {
		t.Fatalf("got %d data rows, want %d (%d units x %d stages)", len(lines)-1, wantRows, len(units), len(obs.Stages()))
	}
	// Rows follow grid order with the stage cycle repeating per unit.
	stages := obs.Stages()
	for i, line := range lines[1:] {
		cols := strings.Split(line, ",")
		if len(cols) != 3 {
			t.Fatalf("row %d: %q", i, line)
		}
		wantUnit := units[i/len(stages)].Label
		if cols[0] != wantUnit {
			t.Errorf("row %d experiment = %q, want %q", i, cols[0], wantUnit)
		}
		if cols[1] != stages[i%len(stages)] {
			t.Errorf("row %d stage = %q, want %q", i, cols[1], stages[i%len(stages)])
		}
	}
	// Every executed unit simulated something, so its measure time is > 0.
	for _, u := range units {
		if sum.Timings[u.Key].Stage(obs.StageMeasure) <= 0 {
			t.Errorf("unit %s has no measure-stage wall time", u.Label)
		}
	}
}

// TestTimingsExcludedFromPinnedOutputs guards the determinism contract:
// the aggregate CSV must not change because timings were collected.
func TestTimingsExcludedFromPinnedOutputs(t *testing.T) {
	spec, err := ParseSpec([]byte(smallSpecJSON))
	if err != nil {
		t.Fatal(err)
	}
	units, err := spec.Expand()
	if err != nil {
		t.Fatal(err)
	}
	sum, err := Run(context.Background(), units, LocalBackend{}, Options{Parallel: 2}, nil)
	if err != nil {
		t.Fatal(err)
	}
	var csv bytes.Buffer
	if err := sum.WriteCSV(&csv); err != nil {
		t.Fatal(err)
	}
	for _, stage := range obs.Stages() {
		if strings.Contains(csv.String(), ","+stage+",") {
			t.Errorf("aggregate CSV leaked timing stage %q:\n%s", stage, csv.String())
		}
	}
}
