package service

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"

	"rfpsim/internal/isa"
	"rfpsim/internal/tracefile"
)

// TraceWorkloadPrefix marks a workload reference to an uploaded trace:
// "trace:" followed by the 64-hex SHA-256 of the raw .rfpt bytes (the
// address POST /v1/traces returned). The same prefix appears, with a
// shortened digest, as the Spec.Name of every trace-sourced job, so
// responses and CSV rows are labelled consistently across inline
// (trace_b64) and by-reference submissions.
const TraceWorkloadPrefix = "trace:"

// Trace bytes are small next to result bodies, but a store full of
// multi-megabyte uploads still needs bounds; whichever cap is hit first
// evicts LRU-wise (the persistent tier, when configured, keeps serving
// evicted addresses).
const (
	defaultTraceEntries = 64
	defaultTraceBytes   = 256 << 20
)

// TraceDiskTier is the persistent tier behind a TraceStore, satisfied by
// *fabric.DiskCache: traces live in the same content-addressed disk cache
// as result bodies (one immutable byte string per address,
// docs/fabric.md), which is what lets an uploaded trace survive a daemon
// restart.
type TraceDiskTier interface {
	// Get returns the body stored under addr, if any.
	Get(addr string) ([]byte, bool)
	// Put persists body under addr.
	Put(addr string, body []byte) error
}

// TraceInfo describes one stored trace.
type TraceInfo struct {
	// Address is the SHA-256 of the raw trace bytes.
	Address string `json:"address"`
	// Workload is the ready-to-use workload reference ("trace:<address>").
	Workload string `json:"workload"`
	// Bytes is the encoded trace size.
	Bytes int64 `json:"bytes"`
	// Uops is the decoded micro-op count.
	Uops uint64 `json:"uops"`
}

// TraceStore holds uploaded .rfpt traces content-addressed by the
// SHA-256 of their raw bytes: a bounded in-memory LRU working set in
// front of an optional persistent tier (the disk cache). Add
// fully decodes every upload, so a stored trace is guaranteed to
// instantiate as a generator later; Get transparently promotes disk-tier
// entries back into memory, which is how a trace uploaded before a
// daemon restart keeps resolving after it.
type TraceStore struct {
	mem  *lru[traceStoreEntry]
	disk TraceDiskTier // nil when memory-only
}

type traceStoreEntry struct {
	info TraceInfo
	raw  []byte
}

// NewTraceStore builds a store bounded by maxEntries in-memory traces and
// maxBytes total raw bytes (0 selects the defaults: 64 entries, 256 MiB),
// with disk as the optional persistent tier.
func NewTraceStore(maxEntries int, maxBytes int64, disk TraceDiskTier) *TraceStore {
	if maxEntries <= 0 {
		maxEntries = defaultTraceEntries
	}
	if maxBytes <= 0 {
		maxBytes = defaultTraceBytes
	}
	return &TraceStore{mem: newLRU[traceStoreEntry](maxEntries, maxBytes), disk: disk}
}

// TraceAddress returns the content address of raw trace bytes: the
// lowercase-hex SHA-256 over the exact bytes uploaded, identical to the
// digest keying a trace_b64 inline upload — the two submission paths
// share cache entries by construction.
func TraceAddress(raw []byte) string {
	digest := sha256.Sum256(raw)
	return hex.EncodeToString(digest[:])
}

// decodeTrace validates raw as a complete .rfpt stream and counts its
// uops. A trace that fails here is rejected at upload time instead of
// failing later inside a worker.
func decodeTrace(raw []byte) (uops uint64, err error) {
	r, err := tracefile.NewReader(bytes.NewReader(raw), "upload")
	if err != nil {
		return 0, err
	}
	var op isa.MicroOp
	for r.Next(&op) {
		uops++
	}
	if err := r.Err(); err != nil {
		return 0, err
	}
	if uops == 0 {
		return 0, fmt.Errorf("trace contains no uops")
	}
	return uops, nil
}

// Add validates and stores a trace, returning its info and whether the
// identical bytes were already present (in memory or on the persistent
// tier). Rejected traces (bad magic, truncated records, empty stream) are
// not stored anywhere.
func (s *TraceStore) Add(raw []byte) (TraceInfo, bool, error) {
	uops, err := decodeTrace(raw)
	if err != nil {
		return TraceInfo{}, false, err
	}
	addr := TraceAddress(raw)
	info := TraceInfo{
		Address:  addr,
		Workload: TraceWorkloadPrefix + addr,
		Bytes:    int64(len(raw)),
		Uops:     uops,
	}

	if _, ok := s.mem.get(addr); ok {
		return info, true, nil
	}

	dedup := false
	if s.disk != nil {
		if _, ok := s.disk.Get(addr); ok {
			dedup = true // identical bytes survived from an earlier upload
		} else {
			// Best effort: a failed write only costs the trace its
			// restart survival; the in-memory copy still serves.
			_ = s.disk.Put(addr, raw)
		}
	}
	s.mem.put(addr, traceStoreEntry{info: info, raw: raw}, info.Bytes)
	return info, dedup, nil
}

// Get returns the raw bytes and info of a stored trace, falling back to
// (and promoting from) the persistent tier on a memory miss.
func (s *TraceStore) Get(addr string) ([]byte, TraceInfo, bool) {
	if e, ok := s.mem.get(addr); ok {
		return e.raw, e.info, true
	}

	if s.disk == nil {
		return nil, TraceInfo{}, false
	}
	raw, ok := s.disk.Get(addr)
	if !ok || TraceAddress(raw) != addr {
		// The disk tier also stores result bodies; an address that does
		// not hash to its own content cannot be a trace we stored.
		return nil, TraceInfo{}, false
	}
	uops, err := decodeTrace(raw)
	if err != nil {
		return nil, TraceInfo{}, false // a result body, not a trace
	}
	info := TraceInfo{
		Address:  addr,
		Workload: TraceWorkloadPrefix + addr,
		Bytes:    int64(len(raw)),
		Uops:     uops,
	}
	s.mem.put(addr, traceStoreEntry{info: info, raw: raw}, info.Bytes)
	return raw, info, true
}

// List returns the in-memory working set, most recently used first.
// Traces evicted to the persistent tier are not listed but still resolve
// by address.
func (s *TraceStore) List() []TraceInfo {
	entries := s.mem.values()
	out := make([]TraceInfo, len(entries))
	for i, e := range entries {
		out[i] = e.info
	}
	return out
}

// Len returns the in-memory trace count.
func (s *TraceStore) Len() int { return s.mem.len() }
