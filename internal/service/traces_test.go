package service

import (
	"bufio"
	"bytes"
	"encoding/base64"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"rfpsim/internal/fabric"
	"rfpsim/internal/isa"
	"rfpsim/internal/trace"
	"rfpsim/internal/tracefile"
)

// validTraceBytes encodes n uops of a catalog workload as raw .rfpt
// bytes — what POST /v1/traces accepts on the wire.
func validTraceBytes(t *testing.T, workload string, n int) []byte {
	t.Helper()
	spec, ok := trace.ByName(workload)
	if !ok {
		t.Fatalf("%s missing from catalog", workload)
	}
	gen := spec.New()
	var buf bytes.Buffer
	w := tracefile.NewWriter(&buf)
	var op isa.MicroOp
	for i := 0; i < n; i++ {
		if !gen.Next(&op) {
			t.Fatalf("generator ended at uop %d", i)
		}
		if err := w.Write(&op); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// newTS wraps a server without t.Cleanup so restart tests control the
// shutdown order themselves.
func newTS(svc *Server) *httptest.Server { return httptest.NewServer(svc.Handler()) }

func postSimURL(t *testing.T, url string, req SimRequest) (*http.Response, []byte) {
	t.Helper()
	raw, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url+"/v1/sim", "application/json", bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, body
}

func postTrace(t *testing.T, url string, raw []byte) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Post(url+"/v1/traces", "application/octet-stream", bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, body
}

// TestTracesEndpoint drives POST/GET /v1/traces: upload, content address,
// dedup on identical bytes, the listing, and per-address lookup.
func TestTracesEndpoint(t *testing.T) {
	svc, ts := newTestServer(t, Options{Workers: 1})
	raw := validTraceBytes(t, "spec06_hmmer", 8000)
	wantAddr := TraceAddress(raw)

	resp, body := postTrace(t, ts.URL, raw)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("upload: %d %s", resp.StatusCode, body)
	}
	var up TraceUploadResponse
	if err := json.Unmarshal(body, &up); err != nil {
		t.Fatal(err)
	}
	if up.Address != wantAddr || up.Workload != TraceWorkloadPrefix+wantAddr || up.Dedup {
		t.Errorf("upload response = %+v, want address %s, dedup=false", up, wantAddr)
	}
	if up.Uops == 0 || up.Bytes != int64(len(raw)) {
		t.Errorf("upload response sizes wrong: %+v (raw %d bytes)", up, len(raw))
	}

	// Identical bytes dedup; the store keeps one copy.
	resp, body = postTrace(t, ts.URL, raw)
	var again TraceUploadResponse
	if err := json.Unmarshal(body, &again); err != nil {
		t.Fatalf("re-upload: %d %s: %v", resp.StatusCode, body, err)
	}
	if !again.Dedup || again.Address != wantAddr {
		t.Errorf("re-upload = %+v, want dedup of %s", again, wantAddr)
	}
	if n := svc.Traces().Len(); n != 1 {
		t.Errorf("store holds %d traces after dedup, want 1", n)
	}
	if got := svc.Metrics().tracesUploaded.Load(); got != 2 {
		t.Errorf("rfpsimd_traces_uploaded_total = %d, want 2 (dedups count)", got)
	}

	// Listing and per-address lookup.
	res, err := http.Get(ts.URL + "/v1/traces")
	if err != nil {
		t.Fatal(err)
	}
	var list []TraceInfo
	if err := json.NewDecoder(res.Body).Decode(&list); err != nil {
		t.Fatal(err)
	}
	res.Body.Close()
	if len(list) != 1 || list[0].Address != wantAddr {
		t.Errorf("trace list = %+v", list)
	}
	res, err = http.Get(ts.URL + "/v1/traces/" + wantAddr)
	if err != nil {
		t.Fatal(err)
	}
	res.Body.Close()
	if res.StatusCode != http.StatusOK {
		t.Errorf("GET by address = %d", res.StatusCode)
	}
	res, err = http.Get(ts.URL + "/v1/traces/" + strings.Repeat("0", 64))
	if err != nil {
		t.Fatal(err)
	}
	res.Body.Close()
	if res.StatusCode != http.StatusNotFound {
		t.Errorf("GET unknown address = %d, want 404", res.StatusCode)
	}
	res, err = http.Get(ts.URL + "/v1/traces/nothex")
	if err != nil {
		t.Fatal(err)
	}
	res.Body.Close()
	if res.StatusCode != http.StatusBadRequest {
		t.Errorf("GET malformed address = %d, want 400", res.StatusCode)
	}
}

// TestTraceRejectsCounted pins satellite behavior: undecodable uploads
// and /v1/sim references to unknown trace addresses return structured
// JSON errors AND count into rfpsimd_trace_rejects_total.
func TestTraceRejectsCounted(t *testing.T) {
	svc, ts := newTestServer(t, Options{Workers: 1})

	resp, body := postTrace(t, ts.URL, []byte("not a trace at all"))
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("garbage upload = %d %s, want 400", resp.StatusCode, body)
	}
	var e errorResponse
	if err := json.Unmarshal(body, &e); err != nil || e.Status != "invalid" || !strings.Contains(e.Error, "bad trace upload") {
		t.Errorf("garbage upload error body = %s (err=%v)", body, err)
	}

	// A sim referencing a never-uploaded address is a trace reject too.
	unknown := SimRequest{
		Workload: TraceWorkloadPrefix + strings.Repeat("a", 64),
		Config:   ConfigSpec{RFP: true},
	}
	resp2, body2 := postSim(t, ts, unknown)
	if resp2.StatusCode != http.StatusBadRequest || !strings.Contains(string(body2), "unknown trace address") {
		t.Errorf("unknown trace sim = %d %s, want 400", resp2.StatusCode, body2)
	}
	// Inline uploads of undecodable bytes reject on the sim path as well.
	resp3, _ := postSim(t, ts, SimRequest{TraceB64: base64.StdEncoding.EncodeToString([]byte("bogus"))})
	if resp3.StatusCode != http.StatusBadRequest {
		t.Errorf("bogus inline trace sim = %d, want 400", resp3.StatusCode)
	}
	// A malformed address (not 64-hex) rejects and counts too.
	resp4, _ := postSim(t, ts, SimRequest{Workload: TraceWorkloadPrefix + "abc"})
	if resp4.StatusCode != http.StatusBadRequest {
		t.Errorf("malformed trace address sim = %d, want 400", resp4.StatusCode)
	}

	if got := svc.Metrics().traceRejects.Load(); got != 4 {
		t.Errorf("rfpsimd_trace_rejects_total = %d, want 4", got)
	}
	// The counter is on /metrics under its documented name.
	res, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	metrics, _ := io.ReadAll(res.Body)
	res.Body.Close()
	if !strings.Contains(string(metrics), "rfpsimd_trace_rejects_total 4") {
		t.Errorf("/metrics missing rfpsimd_trace_rejects_total 4:\n%s", metrics)
	}
}

// TestTraceUploadBodyRejects: an upload whose body ends before its
// Content-Length, and one whose body runs past the 64 MiB cap, are
// rejected with the structured error, counted, and stored nowhere.
func TestTraceUploadBodyRejects(t *testing.T) {
	svc, ts := newTestServer(t, Options{Workers: 1})
	raw := validTraceBytes(t, "spec06_hmmer", 2000)

	// The client declares 100 bytes more than it sends, then closes its
	// side of the connection.
	conn, err := net.Dial("tcp", ts.Listener.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	fmt.Fprintf(conn, "POST /v1/traces HTTP/1.1\r\nHost: rfpsimd\r\nContent-Length: %d\r\n\r\n", len(raw)+100)
	if _, err := conn.Write(raw); err != nil {
		t.Fatal(err)
	}
	if err := conn.(*net.TCPConn).CloseWrite(); err != nil {
		t.Fatal(err)
	}
	resp, err := http.ReadResponse(bufio.NewReader(conn), nil)
	if err != nil {
		t.Fatal(err)
	}
	short, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	checkRejected(t, "short body", resp.StatusCode, short, "reading trace body: unexpected EOF")

	// A body of one byte more than the cap, with its length declared.
	const over = 64<<20 + 1
	req := httptest.NewRequest(http.MethodPost, "/v1/traces", io.LimitReader(zeroReader{}, over))
	req.ContentLength = over
	rec := httptest.NewRecorder()
	svc.Handler().ServeHTTP(rec, req)
	checkRejected(t, "body over the cap", rec.Code, rec.Body.Bytes(), "reading trace body: http: request body too large")

	if got := svc.Metrics().traceRejects.Load(); got != 2 {
		t.Errorf("rfpsimd_trace_rejects_total = %d, want 2", got)
	}
	if n := svc.Traces().Len(); n != 0 {
		t.Errorf("store holds %d traces after two rejected uploads, want 0", n)
	}
}

// checkRejected fails t unless an upload's response is a 400 whose
// structured error body reads want.
func checkRejected(t *testing.T, what string, code int, body []byte, want string) {
	t.Helper()
	var e errorResponse
	if err := json.Unmarshal(body, &e); err != nil || code != http.StatusBadRequest || e.Status != "invalid" || e.Error != want {
		t.Errorf("%s: %d %s, want 400 with error %q", what, code, body, want)
	}
}

// zeroReader reads an endless run of zero bytes.
type zeroReader struct{}

func (zeroReader) Read(p []byte) (int, error) {
	clear(p)
	return len(p), nil
}

// TestTraceByReferenceSharesInlineCacheEntry: submitting "trace:<addr>"
// after an upload produces the same body AND the same cache entry as an
// inline trace_b64 submission of the identical bytes — the address IS the
// content digest, so the two submission paths converge by construction.
func TestTraceByReferenceSharesInlineCacheEntry(t *testing.T) {
	_, ts := newTestServer(t, Options{Workers: 1})
	raw := validTraceBytes(t, "spec06_mcf", 16000)

	_, upBody := postTrace(t, ts.URL, raw)
	var up TraceUploadResponse
	if err := json.Unmarshal(upBody, &up); err != nil {
		t.Fatal(err)
	}

	byRef := SimRequest{
		Workload:    up.Workload,
		Config:      ConfigSpec{RFP: true},
		WarmupUops:  2000,
		MeasureUops: 8000,
	}
	resp, refBody := postSim(t, ts, byRef)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("by-reference sim: %d %s", resp.StatusCode, refBody)
	}
	if got := resp.Header.Get(CacheHeader); got != "miss" {
		t.Errorf("first by-reference sim tier = %q, want miss", got)
	}

	inline := byRef
	inline.Workload = ""
	inline.TraceB64 = base64.StdEncoding.EncodeToString(raw)
	resp2, inlineBody := postSim(t, ts, inline)
	if got := resp2.Header.Get(CacheHeader); got != "hit" {
		t.Errorf("inline twin tier = %q, want hit (shared cache entry)", got)
	}
	if !bytes.Equal(refBody, inlineBody) {
		t.Error("by-reference and inline bodies differ for identical trace bytes")
	}
}

// TestSampledTraceRun: sampling now works on uploaded traces (the NewGen
// factory re-decodes the stored bytes per profiling/replay pass), and the
// sampled result echoes the plan like a catalog run would.
func TestSampledTraceRun(t *testing.T) {
	_, ts := newTestServer(t, Options{Workers: 1})
	raw := validTraceBytes(t, "spec06_hmmer", 40000)
	_, upBody := postTrace(t, ts.URL, raw)
	var up TraceUploadResponse
	if err := json.Unmarshal(upBody, &up); err != nil {
		t.Fatal(err)
	}

	req := SimRequest{
		Workload:    up.Workload,
		Config:      ConfigSpec{RFP: true},
		WarmupUops:  2000,
		MeasureUops: 30000,
		Sampling:    &SamplingSpec{},
	}
	resp, body := postSim(t, ts, req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("sampled trace sim: %d %s", resp.StatusCode, body)
	}
	var sr SimResponse
	if err := json.Unmarshal(body, &sr); err != nil {
		t.Fatal(err)
	}
	if sr.Sampling == nil || sr.SampledPoints == 0 {
		t.Errorf("sampled trace run did not echo a replay plan: %+v", sr)
	}
	if sr.IPC <= 0 {
		t.Errorf("sampled trace run IPC = %v", sr.IPC)
	}
}

// TestTraceStoreSurvivesRestart: with a fabric disk tier, an uploaded
// trace outlives the daemon process — a fresh server on the same cache
// directory starts with an empty in-memory store, yet the same address
// dedups on re-upload and resolves for simulation.
func TestTraceStoreSurvivesRestart(t *testing.T) {
	dir := t.TempDir()
	boot := func() (*Server, string, func()) {
		svc, err := New(Options{Workers: 1, Fabric: fabric.Options{Dir: dir}})
		if err != nil {
			t.Fatal(err)
		}
		ts := newTS(svc)
		return svc, ts.URL, func() { ts.Close(); svc.Close() }
	}

	raw := validTraceBytes(t, "spec06_mcf", 8000)
	addr := TraceAddress(raw)

	svc1, url1, stop1 := boot()
	if _, body := postTrace(t, url1, raw); !strings.Contains(string(body), addr) {
		t.Fatalf("upload failed: %s", body)
	}
	if svc1.Traces().Len() != 1 {
		t.Fatal("trace not in memory after upload")
	}
	stop1()

	svc2, url2, stop2 := boot()
	defer stop2()
	if n := svc2.Traces().Len(); n != 0 {
		t.Fatalf("fresh server has %d traces in memory, want 0", n)
	}
	// Re-upload dedups against the disk tier without re-storing.
	_, body := postTrace(t, url2, raw)
	var up TraceUploadResponse
	if err := json.Unmarshal(body, &up); err != nil {
		t.Fatal(err)
	}
	if !up.Dedup {
		t.Error("re-upload after restart did not dedup via the disk tier")
	}
	// And the address resolves for simulation (promoting into memory).
	req := SimRequest{
		Workload:    TraceWorkloadPrefix + addr,
		Config:      ConfigSpec{RFP: true},
		WarmupUops:  1000,
		MeasureUops: 4000,
	}
	svcResp, simBody := postSimURL(t, url2, req)
	if svcResp.StatusCode != http.StatusOK {
		t.Fatalf("post-restart trace sim: %d %s", svcResp.StatusCode, simBody)
	}
	if svc2.Traces().Len() != 1 {
		t.Error("resolved trace was not promoted into memory")
	}
}
