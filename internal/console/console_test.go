package console

import (
	"bytes"
	"encoding/csv"
	"encoding/json"
	"flag"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"rfpsim/internal/champsim"
	"rfpsim/internal/experiments"
	"rfpsim/internal/fabric"
	"rfpsim/internal/isa"
	"rfpsim/internal/obs"
	"rfpsim/internal/service"
	"rfpsim/internal/tracefile"
)

var update = flag.Bool("update", false, "rewrite golden files")

// champsimFixture is the committed ChampSim trace the whole ingestion
// path is tested against (see internal/champsim).
const champsimFixture = "../champsim/testdata/tiny.champsim.gz"

// daemon is one booted rfpsimd-shaped test server: the service handler
// plus the mounted console, exactly the mux cmd/rfpsimd builds.
type daemon struct {
	svc *service.Server
	ts  *httptest.Server
}

func bootDaemon(t *testing.T, cacheDir string) *daemon {
	t.Helper()
	logger, err := obs.NewLogger(io.Discard, "text", "error")
	if err != nil {
		t.Fatal(err)
	}
	svc, err := service.New(service.Options{
		Workers: 2,
		Logger:  logger,
		Fabric:  fabric.Options{Dir: cacheDir},
	})
	if err != nil {
		t.Fatal(err)
	}
	mux := http.NewServeMux()
	mux.Handle("/", svc.Handler())
	Mount(mux, svc, Options{Logger: logger})
	ts := httptest.NewServer(mux)
	t.Cleanup(ts.Close)
	t.Cleanup(svc.Close)
	return &daemon{svc: svc, ts: ts}
}

// convertFixture cracks the committed ChampSim trace into .rfpt bytes
// in-process — the same conversion `tracegen -from-champsim` runs.
func convertFixture(t *testing.T) []byte {
	t.Helper()
	src, err := champsim.OpenFile(champsimFixture)
	if err != nil {
		t.Fatal(err)
	}
	defer src.Close()
	conv := champsim.NewConverter(champsim.NewDecoder(src), "tiny")
	var buf bytes.Buffer
	w := tracefile.NewWriter(&buf)
	var op isa.MicroOp
	for conv.Next(&op) {
		if err := w.Write(&op); err != nil {
			t.Fatal(err)
		}
	}
	if err := conv.Err(); err != nil {
		t.Fatal(err)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func getJSON(t *testing.T, url string, v any) {
	t.Helper()
	res, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer res.Body.Close()
	if res.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(res.Body)
		t.Fatalf("GET %s: %s: %s", url, res.Status, body)
	}
	if err := json.NewDecoder(res.Body).Decode(v); err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
}

func postJSON(t *testing.T, url string, req, resp any) (int, string) {
	t.Helper()
	raw, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	res, err := http.Post(url, "application/json", bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	defer res.Body.Close()
	body, _ := io.ReadAll(res.Body)
	if res.StatusCode == http.StatusOK && resp != nil {
		if err := json.Unmarshal(body, resp); err != nil {
			t.Fatalf("POST %s: undecodable %q: %v", url, body, err)
		}
	}
	return res.StatusCode, string(body)
}

// waitDone polls the job until it leaves the running state.
func waitDone(t *testing.T, base, id string) JobView {
	t.Helper()
	deadline := time.Now().Add(60 * time.Second)
	for time.Now().Before(deadline) {
		var v JobView
		getJSON(t, base+"/console/api/jobs/"+id, &v)
		if v.State != "running" {
			return v
		}
		time.Sleep(20 * time.Millisecond)
	}
	t.Fatalf("job %s still running after 60s", id)
	return JobView{}
}

func fetchBody(t *testing.T, url string) (int, []byte) {
	t.Helper()
	res, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer res.Body.Close()
	body, _ := io.ReadAll(res.Body)
	return res.StatusCode, body
}

// TestConsoleEndToEnd is the headline harness: upload a converted
// ChampSim trace, watch it dedup, run it through the console, download
// the CSV, then restart the daemon on the same cache directory and prove
// the trace and the result both survive on the disk tier with a
// byte-identical CSV.
func TestConsoleEndToEnd(t *testing.T) {
	cacheDir := t.TempDir()
	d := bootDaemon(t, cacheDir)
	base := d.ts.URL

	// The console page and its assets serve from the embedded tree.
	code, index := fetchBody(t, base+"/console/")
	if code != http.StatusOK {
		t.Fatalf("GET /console/ = %d", code)
	}
	for _, frag := range []string{"<title>rfpsim console</title>", `id="jobs"`, `id="pipetrace"`} {
		if !strings.Contains(string(index), frag) {
			t.Errorf("console index missing fragment %q", frag)
		}
	}
	if code, js := fetchBody(t, base+"/console/static/app.js"); code != http.StatusOK || !bytes.Contains(js, []byte("refreshStatus")) {
		t.Errorf("GET /console/static/app.js = %d, want the embedded app", code)
	}

	// Fresh-daemon status: everything zero, fabric tier present.
	var st service.Status
	getJSON(t, base+"/console/api/status", &st)
	if st.Workers != 2 || st.JobsOK != 0 || st.TracesStored != 0 {
		t.Errorf("fresh status = %+v", st)
	}
	if st.Fabric == nil {
		t.Error("fabric snapshot missing from status with a disk tier configured")
	}

	// Upload the converted ChampSim fixture; re-upload must dedup.
	raw := convertFixture(t)
	wantAddr := service.TraceAddress(raw)
	res, err := http.Post(base+"/v1/traces", "application/octet-stream", bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	var up service.TraceUploadResponse
	if err := json.NewDecoder(res.Body).Decode(&up); err != nil {
		t.Fatal(err)
	}
	res.Body.Close()
	if up.Address != wantAddr || up.Dedup {
		t.Fatalf("upload = %+v, want address %s dedup=false", up, wantAddr)
	}
	res, err = http.Post(base+"/v1/traces", "application/octet-stream", bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	var up2 service.TraceUploadResponse
	if err := json.NewDecoder(res.Body).Decode(&up2); err != nil {
		t.Fatal(err)
	}
	res.Body.Close()
	if !up2.Dedup {
		t.Error("re-upload of identical bytes did not dedup")
	}

	// The workload picker lists the catalog and the uploaded trace.
	var workloads []WorkloadEntry
	getJSON(t, base+"/console/api/workloads", &workloads)
	var haveCatalog, haveTrace bool
	for _, wl := range workloads {
		if wl.Name == "spec06_mcf" {
			haveCatalog = true
		}
		if wl.Name == up.Workload {
			haveTrace = true
			if wl.Uops != up.Uops {
				t.Errorf("picker uops = %d, upload said %d", wl.Uops, up.Uops)
			}
		}
	}
	if !haveCatalog || !haveTrace {
		t.Fatalf("picker missing catalog=%t trace=%t entries", haveCatalog, haveTrace)
	}

	// Submit the trace through the console and poll to completion.
	simReq := service.SimRequest{
		Workload:    up.Workload,
		Config:      service.ConfigSpec{RFP: true},
		WarmupUops:  1000,
		MeasureUops: 4000,
	}
	var submitted JobView
	if code, body := postJSON(t, base+"/console/api/jobs", simReq, &submitted); code != http.StatusOK {
		t.Fatalf("submit = %d: %s", code, body)
	}
	if submitted.Workload != service.TraceWorkloadPrefix+wantAddr[:16] {
		t.Errorf("job workload = %q", submitted.Workload)
	}
	done := waitDone(t, base, submitted.ID)
	if done.State != "done" || done.Tier != "miss" {
		t.Fatalf("first run = %+v, want done/miss", done)
	}
	if done.IPC <= 0 || done.Cycles == 0 {
		t.Errorf("first run has empty metrics: %+v", done)
	}

	// The per-job CSV is the byte-pinned sweep schema.
	code, gotCSV := fetchBody(t, base+"/console/api/jobs/"+submitted.ID+"/csv")
	if code != http.StatusOK {
		t.Fatalf("job CSV = %d", code)
	}
	wantCSV := expectedCSV(t, done)
	if string(gotCSV) != wantCSV {
		t.Errorf("job CSV:\n%s\nwant:\n%s", gotCSV, wantCSV)
	}
	if _, agg := fetchBody(t, base+"/console/api/csv"); string(agg) != wantCSV {
		t.Errorf("aggregate CSV diverges from the only job's CSV:\n%s", agg)
	}

	// The raw result body parses as a SimResponse for the trace spec.
	_, resultBody := fetchBody(t, base+"/console/api/jobs/"+submitted.ID+"/result")
	var simResp service.SimResponse
	if err := json.Unmarshal(resultBody, &simResp); err != nil {
		t.Fatalf("result body: %v", err)
	}
	if simResp.Workload != done.Workload {
		t.Errorf("result workload = %q, want %q", simResp.Workload, done.Workload)
	}

	// Resubmitting is a pure cache replay.
	var again JobView
	postJSON(t, base+"/console/api/jobs", simReq, &again)
	if v := waitDone(t, base, again.ID); v.Tier != "hit" {
		t.Errorf("second run tier = %q, want hit", v.Tier)
	}

	// Restart on the same cache directory: the trace must resolve from
	// the fabric disk tier and the result must replay from it,
	// byte-identically.
	d.ts.Close()
	d.svc.Close()
	d2 := bootDaemon(t, cacheDir)
	base2 := d2.ts.URL

	var st2 service.Status
	getJSON(t, base2+"/console/api/status", &st2)
	if st2.TracesStored != 0 {
		t.Errorf("restarted daemon has %d traces in memory, want 0 (disk only)", st2.TracesStored)
	}
	var replay JobView
	if code, body := postJSON(t, base2+"/console/api/jobs", simReq, &replay); code != http.StatusOK {
		t.Fatalf("post-restart submit = %d: %s", code, body)
	}
	replayDone := waitDone(t, base2, replay.ID)
	if replayDone.State != "done" || replayDone.Tier != "disk" {
		t.Fatalf("post-restart run = %+v, want done/disk", replayDone)
	}
	if _, csv2 := fetchBody(t, base2+"/console/api/jobs/"+replay.ID+"/csv"); string(csv2) != wantCSV {
		t.Errorf("post-restart CSV diverges:\n%s\nwant:\n%s", csv2, wantCSV)
	}

	// Structured errors for bad submissions.
	if code, body := postJSON(t, base2+"/console/api/jobs", service.SimRequest{Workload: "no_such_workload"}, nil); code != http.StatusBadRequest || !strings.Contains(body, "error") {
		t.Errorf("bad submit = %d: %s", code, body)
	}
}

// expectedCSV renders the sweep schema for one finished console job using
// the same experiments helpers the server does — any drift between the
// console CSV and sweep.Summary.WriteCSV breaks here.
func expectedCSV(t *testing.T, v JobView) string {
	t.Helper()
	var buf bytes.Buffer
	cw := csv.NewWriter(&buf)
	if err := cw.Write(experiments.MetricsCSVHeader); err != nil {
		t.Fatal(err)
	}
	label := "console/" + v.Workload
	for _, row := range [][]string{
		{label, "ipc", experiments.FormatMetric(v.IPC)},
		{label, "cycles", experiments.FormatCount(v.Cycles)},
		{label, "instructions", experiments.FormatCount(v.Instructions)},
	} {
		if err := cw.Write(row); err != nil {
			t.Fatal(err)
		}
	}
	cw.Flush()
	return buf.String()
}

// TestConsoleIndexGolden pins the served console page byte for byte: the
// index is an API surface (CI smoke greps it, operators bookmark it), so
// edits to the embedded HTML must be deliberate.
func TestConsoleIndexGolden(t *testing.T) {
	d := bootDaemon(t, "")
	code, body := fetchBody(t, d.ts.URL+"/console/")
	if code != http.StatusOK {
		t.Fatalf("GET /console/ = %d", code)
	}
	golden := filepath.Join("testdata", "index.golden")
	if *update {
		if err := os.WriteFile(golden, body, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(body, want) {
		t.Errorf("served index diverges from %s (run with -update after a deliberate UI change)", golden)
	}
}

// TestConsoleStatusGolden pins the status JSON shape on a fresh
// fixed-size daemon: field names and zero values are what dashboards and
// the embedded app bind to.
func TestConsoleStatusGolden(t *testing.T) {
	d := bootDaemon(t, t.TempDir())
	code, body := fetchBody(t, d.ts.URL+"/console/api/status")
	if code != http.StatusOK {
		t.Fatalf("GET status = %d", code)
	}
	var pretty bytes.Buffer
	if err := json.Indent(&pretty, body, "", "  "); err != nil {
		t.Fatal(err)
	}
	pretty.WriteByte('\n')
	golden := filepath.Join("testdata", "status.golden")
	if *update {
		if err := os.WriteFile(golden, pretty.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if pretty.String() != string(want) {
		t.Errorf("status JSON diverges from golden:\n%s\nwant:\n%s", pretty.String(), want)
	}
}

// TestConsolePipeTrace drives the diagram endpoint: a bounded window of
// parsed events, each inside the reported cycle range, with the pipeline
// stages the UI colors.
func TestConsolePipeTrace(t *testing.T) {
	d := bootDaemon(t, "")
	url := d.ts.URL + "/console/api/pipetrace"

	var pt PipeTraceResponse
	req := PipeTraceRequest{
		Workload: "spec06_mcf",
		Config:   service.ConfigSpec{RFP: true},
		Cycles:   64,
	}
	if code, body := postJSON(t, url, req, &pt); code != http.StatusOK {
		t.Fatalf("pipetrace = %d: %s", code, body)
	}
	if len(pt.Events) == 0 {
		t.Fatal("pipetrace returned no events")
	}
	if pt.ToCycle != pt.FromCycle+64 {
		t.Errorf("window = [%d, %d), want 64 cycles", pt.FromCycle, pt.ToCycle)
	}
	stages := map[string]bool{}
	for _, ev := range pt.Events {
		if ev.Cycle < pt.FromCycle || ev.Cycle >= pt.ToCycle {
			t.Fatalf("event outside window: %+v", ev)
		}
		stages[ev.Event] = true
		if ev.Event == "dispatch" && ev.Seq == 0 {
			t.Fatalf("dispatch event lost its seq: %+v", ev)
		}
	}
	for _, want := range []string{"dispatch", "issue", "commit"} {
		if !stages[want] {
			t.Errorf("no %q events in a 64-cycle window (stages seen: %v)", want, stages)
		}
	}

	// Unknown workloads fail loudly, not with an empty diagram.
	if code, _ := postJSON(t, url, PipeTraceRequest{Workload: "nope"}, nil); code != http.StatusBadRequest {
		t.Errorf("pipetrace of unknown workload = %d, want 400", code)
	}

	// Oversized windows clamp instead of erroring.
	var big PipeTraceResponse
	req.Cycles = 1 << 20
	if code, body := postJSON(t, url, req, &big); code != http.StatusOK {
		t.Fatalf("clamped pipetrace = %d: %s", code, body)
	}
	if big.ToCycle-big.FromCycle != pipeTraceMaxCycles {
		t.Errorf("window = %d cycles, want clamp to %d", big.ToCycle-big.FromCycle, pipeTraceMaxCycles)
	}
}

// TestParsePipeTrace pins the parser against the exact line format core's
// golden test guarantees.
func TestParsePipeTrace(t *testing.T) {
	input := "cycle 1042 dispatch  seq=87 pc=0x20004 load addr=0x8000040\n" +
		"cycle 1042 rfp-exec  seq=87 addr=0x8000040 fill=1047 armed=1044\n" +
		"cycle 1046 commit    seq=85 pc=0x20008 alu\n" +
		"garbage line\n"
	events, truncated := parsePipeTrace(input)
	if truncated {
		t.Error("tiny input reported truncated")
	}
	want := []PipeTraceEvent{
		{Cycle: 1042, Event: "dispatch", Seq: 87, PC: "0x20004", Kind: "load", Detail: "addr=0x8000040"},
		{Cycle: 1042, Event: "rfp-exec", Seq: 87, Detail: "addr=0x8000040 fill=1047 armed=1044"},
		{Cycle: 1046, Event: "commit", Seq: 85, PC: "0x20008", Kind: "alu"},
	}
	if len(events) != len(want) {
		t.Fatalf("parsed %d events, want %d: %+v", len(events), len(want), events)
	}
	for i := range want {
		if events[i] != want[i] {
			t.Errorf("event %d = %+v, want %+v", i, events[i], want[i])
		}
	}
}
