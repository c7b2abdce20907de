package fabric

import (
	"fmt"
	"io"
	"sync/atomic"

	"rfpsim/internal/obs"
)

// counter is a tiny alias so the cache code reads cleanly.
type counter = atomic.Uint64

// WritePrometheus implements obs.Collector; the rfpsimd_fabric_disk_*
// namespace is documented in docs/fabric.md. The server registers the
// disk cache only when one is configured, so a disk-less daemon's
// /metrics exposition is unchanged.
func (c *DiskCache) WritePrometheus(w io.Writer) {
	snap := c.Snapshot()
	obs.Gauge(w, "rfpsimd_fabric_disk_entries", "Entries indexed in the persistent disk cache.", snap.DiskEntries)
	obs.Gauge(w, "rfpsimd_fabric_disk_bytes", "Total bytes indexed in the persistent disk cache.", snap.DiskBytes)
	obs.Counter(w, "rfpsimd_fabric_disk_hits_total", "Lookups served from the disk cache.", snap.DiskHits)
	obs.Counter(w, "rfpsimd_fabric_disk_misses_total", "Disk cache lookups that found nothing usable.", snap.DiskMisses)
	obs.Counter(w, "rfpsimd_fabric_disk_writes_total", "Entries written to the disk cache.", c.writes.Load())
	obs.Counter(w, "rfpsimd_fabric_disk_evictions_total", "Entries evicted by the disk cache's byte-cap janitor.", c.evictions.Load())
	obs.Counter(w, "rfpsimd_fabric_disk_corrupt_total", "Corrupted or truncated disk entries detected (deleted, re-simulated).", c.corrupt.Load())
}

// Snapshot is a point-in-time copy of the disk tier's state, for
// embedders that render live cache health (the rfpsimd console's status
// endpoint) without scraping the Prometheus exposition.
type Snapshot struct {
	// DiskEntries and DiskBytes are the persistent tier's occupancy.
	DiskEntries int   `json:"disk_entries"`
	DiskBytes   int64 `json:"disk_bytes"`
	// DiskHits and DiskMisses are the persistent tier's lookup counters.
	DiskHits   uint64 `json:"disk_hits"`
	DiskMisses uint64 `json:"disk_misses"`
}

// Snapshot captures the current tier state.
func (c *DiskCache) Snapshot() Snapshot {
	return Snapshot{
		DiskEntries: c.Len(),
		DiskBytes:   c.Bytes(),
		DiskHits:    c.hits.Load(),
		DiskMisses:  c.misses.Load(),
	}
}

// String describes the cache for startup logs and /healthz.
func (c *DiskCache) String() string {
	return fmt.Sprintf("disk(dir=%s cap=%dB)", c.dir, c.maxBytes)
}
