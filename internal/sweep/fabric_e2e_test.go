package sweep

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"regexp"
	"strconv"
	"testing"

	"rfpsim/internal/fabric"
	"rfpsim/internal/service"
)

// scrapeCounter fetches url/metrics and returns the value of the exactly
// named sample line (name plus optional label set).
func scrapeCounter(t *testing.T, url, sample string) float64 {
	t.Helper()
	resp, err := http.Get(url + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	re := regexp.MustCompile(`(?m)^` + regexp.QuoteMeta(sample) + ` ([0-9.e+-]+)$`)
	m := re.FindSubmatch(raw)
	if m == nil {
		t.Fatalf("%s/metrics has no sample %q", url, sample)
	}
	v, err := strconv.ParseFloat(string(m[1]), 64)
	if err != nil {
		t.Fatal(err)
	}
	return v
}

// TestDaemonRestartServesSweepFromDisk is the disk tier's acceptance test
// through the HTTP backend: a daemon with a cache directory runs a sweep,
// is closed, and a fresh daemon (empty memory cache) over the same
// directory reruns it. The rerun must simulate nothing — every unit is a
// disk hit — and produce a byte-identical aggregate CSV.
func TestDaemonRestartServesSweepFromDisk(t *testing.T) {
	if testing.Short() {
		t.Skip("daemon e2e")
	}
	dir := t.TempDir()
	units := testUnits(t) // 24 distinct units

	boot := func() (*service.Server, *httptest.Server) {
		svc, err := service.New(service.Options{Workers: 2, Fabric: fabric.Options{Dir: dir}})
		if err != nil {
			t.Fatal(err)
		}
		return svc, httptest.NewServer(svc.Handler())
	}
	runSweep := func(url string) string {
		be, err := NewHTTPBackend([]string{url}, HTTPBackendOptions{Metrics: &Metrics{}})
		if err != nil {
			t.Fatal(err)
		}
		sum, err := Run(context.Background(), units, be, Options{Parallel: 6}, nil)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := sum.WriteCSV(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.String()
	}

	svc1, ts1 := boot()
	csv1 := runSweep(ts1.URL)
	ts1.Close()
	svc1.Close()

	// Restart: a new Server over the same cache directory.
	svc2, ts2 := boot()
	defer svc2.Close()
	defer ts2.Close()
	csv2 := runSweep(ts2.URL)
	if csv2 != csv1 {
		t.Errorf("aggregate CSV differs between runs:\nrun1:\n%s\nrun2:\n%s", csv1, csv2)
	}
	if sim := scrapeCounter(t, ts2.URL, `rfpsimd_jobs_done_total{status="ok"}`); sim != 0 {
		t.Errorf("restarted daemon simulated %g units, want 0", sim)
	}
	if hits := scrapeCounter(t, ts2.URL, "rfpsimd_fabric_disk_hits_total"); hits != float64(len(units)) {
		t.Errorf("restarted daemon served %g disk hits, want %d", hits, len(units))
	}
}

// TestSweepCacheIsDaemonCache: a sweep's cache directory and a daemon's
// -cache-dir are one store, in both directions. On a full-window grid and
// a sampled family grid, a daemon over the directory a local sweep filled
// serves every unit from its disk tier with the body the sweep computed;
// and a sweep over the directory a daemon filled calls no backend and
// writes the same CSV.
func TestSweepCacheIsDaemonCache(t *testing.T) {
	spec, err := ParseSpec([]byte(smallSpecJSON))
	if err != nil {
		t.Fatal(err)
	}
	units, err := spec.Expand()
	if err != nil {
		t.Fatal(err)
	}
	units = append(units, familyUnits(t, "spec06_omnetpp")...)
	ctx := context.Background()

	// Sweep -> daemon.
	dir := t.TempDir()
	sum, err := Run(ctx, units, LocalBackend{}, Options{Parallel: 2, Cache: openCache(t, dir)}, nil)
	if err != nil {
		t.Fatal(err)
	}
	wantCSV := runToCSV(t, sum)
	svc, err := service.New(service.Options{Workers: 1, Fabric: fabric.Options{Dir: dir}})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	for _, u := range units {
		res, err := svc.Do(ctx, u.Req, "")
		if err != nil {
			t.Fatal(err)
		}
		want, err := json.Marshal(sum.Results[u.Key])
		if err != nil {
			t.Fatal(err)
		}
		if res.Tier != "disk" || !bytes.Equal(res.Body, append(want, '\n')) {
			t.Errorf("%s: daemon served tier %q, body equal %t; want the sweep's body from disk",
				u.Label, res.Tier, bytes.Equal(res.Body, append(want, '\n')))
		}
	}

	// Daemon -> sweep.
	dir2 := t.TempDir()
	svc2, err := service.New(service.Options{Workers: 2, Fabric: fabric.Options{Dir: dir2}})
	if err != nil {
		t.Fatal(err)
	}
	for _, u := range units {
		if _, err := svc2.Do(ctx, u.Req, ""); err != nil {
			t.Fatal(err)
		}
	}
	svc2.Close()
	rec := &recordingBackend{inner: LocalBackend{}}
	sum2, err := Run(ctx, units, rec, Options{Parallel: 2, Cache: openCache(t, dir2)}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(rec.ran) != 0 || sum2.Skipped != len(units) {
		t.Errorf("sweep over the daemon's cache ran %d units and skipped %d, want 0 and %d", len(rec.ran), sum2.Skipped, len(units))
	}
	if got := runToCSV(t, sum2); !bytes.Equal(got, wantCSV) {
		t.Errorf("sweep over the daemon's cache wrote a different CSV:\n%s\nwant:\n%s", got, wantCSV)
	}
}
