package sweep

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"rfpsim/internal/obs"
	"rfpsim/internal/service"
)

// familyUnits expands a small sampled sweep: the workloads crossed with
// the stream and managed prefetchers and CLP off and on, on top of RFP.
func familyUnits(t *testing.T, workloads ...string) []Unit {
	t.Helper()
	quoted := make([]string, len(workloads))
	for i, w := range workloads {
		quoted[i] = fmt.Sprintf("%q", w)
	}
	spec, err := ParseSpec([]byte(`{
		"name": "fam", "workloads": [` + strings.Join(quoted, ",") + `],
		"base": {"rfp": true},
		"axes": [{"knob": "prefetcher", "values": ["stream", "managed"]},
		         {"knob": "clp", "values": [false, true]}],
		"warmup_uops": 2000, "measure_uops": 6000,
		"sampling": {"interval_uops": 1000}
	}`))
	if err != nil {
		t.Fatal(err)
	}
	units, err := spec.Expand()
	if err != nil {
		t.Fatal(err)
	}
	if len(units) != 4*len(workloads) {
		t.Fatalf("grid is %d units, want %d", len(units), 4*len(workloads))
	}
	return units
}

// groupSizes renders the sizes of groups, e.g. "[2 2]".
func groupSizes(groups [][]Unit) string {
	sizes := make([]int, len(groups))
	for i, g := range groups {
		sizes[i] = len(g)
	}
	return fmt.Sprint(sizes)
}

// TestFamiliesGrouping pins how Run groups pending units: one group per
// workload of a sampled grid, in first-unit order; full-window and
// timed-out units alone; and the largest family split in halves while
// there are fewer groups than parallel slots.
func TestFamiliesGrouping(t *testing.T) {
	units := familyUnits(t, "spec06_mcf", "spec06_gcc")
	full, timed := units[0], units[1]
	full.Req.Sampling = nil
	timed.Req.TimeoutMS = 60000
	mixed := append(append([]Unit{}, units...), full, timed)

	groups := families(mixed, 1)
	if got := groupSizes(groups); got != "[4 4 1 1]" {
		t.Fatalf("groups = %s, want [4 4 1 1]", got)
	}
	for i, g := range groups[:2] {
		for _, u := range g {
			if u.Req.Workload != g[0].Req.Workload {
				t.Errorf("group %d mixes workloads %s and %s", i, g[0].Req.Workload, u.Req.Workload)
			}
		}
	}
	if groups[0][0].Key != units[0].Key {
		t.Error("groups are not in the order of their first unit")
	}

	one := familyUnits(t, "spec06_mcf")
	for parallel, want := range map[int]string{1: "[4]", 2: "[2 2]", 3: "[1 1 2]", 4: "[1 1 1 1]", 8: "[1 1 1 1]"} {
		groups := families(one, parallel)
		if got := groupSizes(groups); got != want {
			t.Errorf("parallel %d: groups = %s, want %s", parallel, got, want)
		}
		var order []string
		for _, g := range groups {
			for _, u := range g {
				order = append(order, u.Key)
			}
		}
		for i, u := range one {
			if order[i] != u.Key {
				t.Errorf("parallel %d: splitting reordered the units", parallel)
				break
			}
		}
	}
	if groups := families(nil, 4); len(groups) != 0 {
		t.Errorf("an empty grid makes %d groups", len(groups))
	}
}

// gateBackend holds every call until want calls are in flight at once,
// and fails a call that waits too long for them.
type gateBackend struct {
	want     int32
	inflight atomic.Int32
	release  chan struct{}
	once     sync.Once
}

func (b *gateBackend) Name() string { return "gate" }

func (b *gateBackend) Run(ctx context.Context, u Unit) (*service.SimResponse, error) {
	n := b.inflight.Add(1)
	defer b.inflight.Add(-1)
	if n >= b.want {
		b.once.Do(func() { close(b.release) })
	}
	select {
	case <-b.release:
		return &service.SimResponse{Workload: u.Req.Workload, Seeds: 1, Cycles: 2, Instructions: 1, IPC: 0.5}, nil
	case <-time.After(2 * time.Second):
		return nil, fmt.Errorf("only %d calls in flight, want %d", n, b.want)
	}
}

// TestFamiliesKeepParallelBusy is the starvation guard: a one-workload
// sampled grid of four configurations is one family, yet at Parallel 4
// its four units must still be in flight at once, as they were before
// grouping.
func TestFamiliesKeepParallelBusy(t *testing.T) {
	units := familyUnits(t, "spec06_mcf")
	b := &gateBackend{want: 4, release: make(chan struct{})}
	sum, err := Run(context.Background(), units, b, Options{Parallel: 4}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(sum.Results) != 4 {
		t.Fatalf("%d of 4 units completed", len(sum.Results))
	}
}

// perUnitBodies runs every unit alone on the local backend, outside any
// family, and returns each response body by key.
func perUnitBodies(t *testing.T, units []Unit, b Backend) map[string]string {
	t.Helper()
	bodies := make(map[string]string, len(units))
	for _, u := range units {
		resp, err := b.Run(context.Background(), u)
		if err != nil {
			t.Fatalf("%s alone: %v", u.Label, err)
		}
		bodies[u.Key] = responseBody(t, resp)
	}
	return bodies
}

func responseBody(t *testing.T, resp *service.SimResponse) string {
	t.Helper()
	js, err := json.Marshal(resp)
	if err != nil {
		t.Fatal(err)
	}
	return string(js)
}

// TestFamilySweepMatchesPerUnit: a sampled sweep run in families gives
// every unit the body it gets alone. The first member's collector holds
// the family's stage times and the siblings' are empty.
func TestFamilySweepMatchesPerUnit(t *testing.T) {
	units := familyUnits(t, "spec06_mcf", "spec06_gcc", "tpce")
	want := perUnitBodies(t, units, LocalBackend{})
	sum, err := Run(context.Background(), units, LocalBackend{}, Options{Parallel: 2}, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, u := range units {
		resp, ok := sum.Results[u.Key]
		if !ok {
			t.Fatalf("%s has no result", u.Label)
		}
		if got := responseBody(t, resp); got != want[u.Key] {
			t.Errorf("%s: family body differs from the unit run alone\nfamily: %s\nalone:  %s", u.Label, got, want[u.Key])
		}
	}
	billed := make(map[string]bool)
	for _, u := range units {
		tim := sum.Timings[u.Key]
		first := !billed[u.Req.Workload] // a family runs in grid order
		billed[u.Req.Workload] = true
		if got := tim.Stage(obs.StageProfile) > 0; got != first {
			t.Errorf("%s: profile billed = %t, want %t", u.Label, got, first)
		}
		if !first && tim.Total() != 0 {
			t.Errorf("%s: a sibling's timings are not empty: %s", u.Label, tim)
		}
	}
}

// TestFamilyResumeMidFamily: with a cache that holds two of a family's
// four units, a rerun over it runs only the other two, and the CSV equals
// a from-scratch run's byte for byte.
func TestFamilyResumeMidFamily(t *testing.T) {
	units := familyUnits(t, "spec06_omnetpp")
	ref, err := Run(context.Background(), units, LocalBackend{}, Options{Parallel: 1}, nil)
	if err != nil {
		t.Fatal(err)
	}
	wantCSV := runToCSV(t, ref)

	dir := t.TempDir()
	if _, err := Run(context.Background(), []Unit{units[1], units[3]}, LocalBackend{}, Options{Parallel: 1, Cache: openCache(t, dir)}, nil); err != nil {
		t.Fatal(err)
	}
	rec := &recordingBackend{inner: LocalBackend{}}
	sum, err := Run(context.Background(), units, rec, Options{Parallel: 1, Cache: openCache(t, dir)}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if sum.Skipped != 2 || len(rec.ran) != 2 || rec.ran[units[0].Key] != 1 || rec.ran[units[2].Key] != 1 {
		t.Fatalf("resume skipped %d and ran %v, want units 0 and 2 run once each", sum.Skipped, rec.ran)
	}
	if got := runToCSV(t, sum); string(got) != string(wantCSV) {
		t.Errorf("resumed CSV differs from a from-scratch run\nresumed:\n%s\nscratch:\n%s", got, wantCSV)
	}
}

// failingBackend fails one unit without running it and passes the rest
// to the local backend, context and all.
type failingBackend struct {
	fail string
}

func (b failingBackend) Name() string { return "failing" }

func (b failingBackend) Run(ctx context.Context, u Unit) (*service.SimResponse, error) {
	if u.Key == b.fail {
		return nil, errors.New("injected failure")
	}
	return LocalBackend{}.Run(ctx, u)
}

// TestFamilyFailures: a member that fails on its own fails alone and its
// siblings' bodies are unchanged, even when it is the member whose call
// would have run the family; a failure in a stage the family shares
// fails every member; and cancellation leaves every member pending.
func TestFamilyFailures(t *testing.T) {
	t.Run("member", func(t *testing.T) {
		units := familyUnits(t, "spec06_gcc")
		want := perUnitBodies(t, units, LocalBackend{})
		sum, err := Run(context.Background(), units, failingBackend{fail: units[0].Key}, Options{Parallel: 1}, nil)
		if err == nil || len(sum.Failed) != 1 || sum.Failed[0].Unit.Key != units[0].Key {
			t.Fatalf("err = %v, failed = %v, want unit 0 failed alone", err, sum.Failed)
		}
		for _, u := range units[1:] {
			resp, ok := sum.Results[u.Key]
			if !ok {
				t.Fatalf("sibling %s has no result", u.Label)
			}
			if responseBody(t, resp) != want[u.Key] {
				t.Errorf("sibling %s's body changed", u.Label)
			}
		}
	})

	t.Run("shared", func(t *testing.T) {
		// The trace ends inside the measured window, so the family's
		// profile fails.
		store := service.NewTraceStore(0, 0, nil)
		info, _, err := store.Add(traceRFPT(t, 5000))
		if err != nil {
			t.Fatal(err)
		}
		units := familyUnits(t, info.Workload)
		sum, err := Run(context.Background(), units, LocalBackend{Traces: store}, Options{Parallel: 1}, nil)
		if err == nil || len(sum.Failed) != 4 || len(sum.Results) != 0 {
			t.Fatalf("err = %v, %d failed, %d completed; want all 4 failed", err, len(sum.Failed), len(sum.Results))
		}
		for _, f := range sum.Failed {
			if errors.Unwrap(f.Err).Error() != errors.Unwrap(sum.Failed[0].Err).Error() {
				t.Errorf("members fail with different causes: %v and %v", sum.Failed[0].Err, f.Err)
			}
		}
	})

	t.Run("cancelled", func(t *testing.T) {
		units := familyUnits(t, "spec06_gcc")
		ctx, cancel := context.WithCancel(context.Background())
		b := cancellingBackend{cancel: cancel}
		sum, err := Run(ctx, units, b, Options{Parallel: 1}, nil)
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("err = %v, want context.Canceled", err)
		}
		if len(sum.Results) != 0 || len(sum.Failed) != 0 {
			t.Fatalf("%d completed and %d failed, want all 4 pending", len(sum.Results), len(sum.Failed))
		}
	})
}

// cancellingBackend cancels the sweep as the family starts running.
type cancellingBackend struct{ cancel context.CancelFunc }

func (b cancellingBackend) Name() string { return "cancelling" }

func (b cancellingBackend) Run(ctx context.Context, u Unit) (*service.SimResponse, error) {
	b.cancel()
	return LocalBackend{}.Run(ctx, u)
}
