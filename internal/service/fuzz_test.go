package service

import (
	"encoding/json"
	"testing"
)

// FuzzServiceRequest feeds arbitrary JSON through the daemon's request
// resolution path: decoding and resolving must never panic, and any
// request that resolves must key a stable, non-empty content address —
// resolving twice yields the same key (the property the result cache,
// which sweeps share, and cross-process dedup assume). Seed corpus
// under testdata/fuzz/FuzzServiceRequest.
func FuzzServiceRequest(f *testing.F) {
	f.Add([]byte(`{"workload":"spec06_mcf","config":{"rfp":true},"warmup_uops":2000,"measure_uops":4000}`))
	f.Add([]byte(`{"workload":"hadoop","config":{"vp":"eves","checks":true},"sampling":{"max_k":2}}`))
	f.Add([]byte(`{"trace_b64":"UkZQVA==","config":{}}`))
	f.Add([]byte(`{"workload":"spec17_mcf","config":{"rfp":true,"pt_entries":128,"late_reg_alloc":true},"seeds":3}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		var req SimRequest
		if err := json.Unmarshal(data, &req); err != nil {
			return // not a request: fine
		}
		if len(req.TraceB64) > 1<<16 {
			return // bound decode work; size limits are the HTTP layer's job
		}
		rj, err := resolveRequest(req)
		if err != nil {
			return // rejected: fine
		}
		if rj.key == "" {
			t.Fatal("resolved request has an empty content address")
		}
		again, err := resolveRequest(req)
		if err != nil {
			t.Fatalf("second resolution of an accepted request failed: %v", err)
		}
		if again.key != rj.key {
			t.Fatalf("content address not stable: %s vs %s", rj.key, again.key)
		}
	})
}
