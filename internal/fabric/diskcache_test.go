package fabric

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"testing"
)

func body(i int) []byte { return []byte(fmt.Sprintf(`{"result":%d}`, i)) }

// addrFor makes a deterministic content-address-shaped key.
func addrFor(i int) string {
	sum := sha256.Sum256([]byte(fmt.Sprintf("addr-%d", i)))
	return hex.EncodeToString(sum[:])
}

// TestDiskCacheRoundTripAndRestart pins the persistence contract: a body
// put under an address is returned byte-identically, including by a fresh
// DiskCache opened over the same directory (the restart path).
func TestDiskCacheRoundTripAndRestart(t *testing.T) {
	dir := t.TempDir()
	c, err := OpenDiskCache(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	addr := addrFor(1)
	if _, ok := c.Get(addr); ok {
		t.Fatal("empty cache reported a hit")
	}
	if err := c.Put(addr, body(1)); err != nil {
		t.Fatal(err)
	}
	got, ok := c.Get(addr)
	if !ok || !bytes.Equal(got, body(1)) {
		t.Fatalf("get = %q, %v", got, ok)
	}

	// Restart: a fresh instance over the same dir serves the same bytes.
	c2, err := OpenDiskCache(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	if c2.Len() != 1 {
		t.Fatalf("restart index has %d entries, want 1", c2.Len())
	}
	got, ok = c2.Get(addr)
	if !ok || !bytes.Equal(got, body(1)) {
		t.Fatalf("restart get = %q, %v", got, ok)
	}

	// The entry lives in a 2-hex shard directory.
	if _, err := os.Stat(filepath.Join(dir, addr[:2], addr)); err != nil {
		t.Errorf("entry not at sharded path: %v", err)
	}
}

// TestDiskCacheCorruptionDetected pins the safety property: truncated or
// bit-flipped entries are detected, deleted and reported as misses —
// never served.
func TestDiskCacheCorruptionDetected(t *testing.T) {
	for name, corrupt := range map[string]func(path string) error{
		"truncated": func(p string) error {
			raw, err := os.ReadFile(p)
			if err != nil {
				return err
			}
			return os.WriteFile(p, raw[:len(raw)-3], 0o644)
		},
		"bitflip": func(p string) error {
			raw, err := os.ReadFile(p)
			if err != nil {
				return err
			}
			raw[len(raw)-1] ^= 0x40
			return os.WriteFile(p, raw, 0o644)
		},
		"garbage": func(p string) error {
			return os.WriteFile(p, []byte("not an entry at all"), 0o644)
		},
	} {
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			c, err := OpenDiskCache(dir, 0)
			if err != nil {
				t.Fatal(err)
			}
			addr := addrFor(7)
			if err := c.Put(addr, body(7)); err != nil {
				t.Fatal(err)
			}
			if err := corrupt(filepath.Join(dir, addr[:2], addr)); err != nil {
				t.Fatal(err)
			}
			if got, ok := c.Get(addr); ok {
				t.Fatalf("corrupted entry served: %q", got)
			}
			if c.corrupt.Load() != 1 {
				t.Errorf("corrupt counter = %d, want 1", c.corrupt.Load())
			}
			if _, err := os.Stat(filepath.Join(dir, addr[:2], addr)); !os.IsNotExist(err) {
				t.Errorf("corrupted entry not deleted: %v", err)
			}
			// A later Put must be able to repopulate the address.
			if err := c.Put(addr, body(7)); err != nil {
				t.Fatal(err)
			}
			if got, ok := c.Get(addr); !ok || !bytes.Equal(got, body(7)) {
				t.Fatalf("repopulated get = %q, %v", got, ok)
			}
		})
	}
}

// TestDiskCacheByteCapLRU pins the janitor: inserts beyond the byte cap
// evict the least-recently-used entries, and a Get refreshes recency.
func TestDiskCacheByteCapLRU(t *testing.T) {
	dir := t.TempDir()
	// Each entry is header (~75B) + body (~12B); cap to roughly 4 entries.
	c, err := OpenDiskCache(dir, 360)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		if err := c.Put(addrFor(i), body(i)); err != nil {
			t.Fatal(err)
		}
	}
	// Touch entry 0 so entry 1 is now the LRU victim.
	if _, ok := c.Get(addrFor(0)); !ok {
		t.Fatal("entry 0 missing before cap hit")
	}
	if err := c.Put(addrFor(4), body(4)); err != nil {
		t.Fatal(err)
	}
	if c.evictions.Load() == 0 {
		t.Fatal("no evictions past the byte cap")
	}
	if _, ok := c.Get(addrFor(1)); ok {
		t.Error("LRU victim (entry 1) survived eviction")
	}
	if _, ok := c.Get(addrFor(0)); !ok {
		t.Error("recently touched entry 0 was evicted before older entries")
	}
	if c.Bytes() > 360 {
		t.Errorf("cache holds %d bytes, cap is 360", c.Bytes())
	}
}

// TestDiskCacheRejectsHostileAddr pins the path-traversal gate.
func TestDiskCacheRejectsHostileAddr(t *testing.T) {
	c, err := OpenDiskCache(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, addr := range []string{
		"../../../../etc/passwd",
		"short",
		addrFor(0)[:63] + "Z",
		"", "AB" + addrFor(0)[2:],
	} {
		if err := c.Put(addr, body(0)); err == nil {
			t.Errorf("Put(%q) accepted a non-address", addr)
		}
		if _, ok := c.Get(addr); ok {
			t.Errorf("Get(%q) hit on a non-address", addr)
		}
	}
}

// TestDiskCacheRestartSweepsTmpFiles: a crash mid-write leaves a tmp file;
// reopening the cache must delete it and not index it.
func TestDiskCacheRestartSweepsTmpFiles(t *testing.T) {
	dir := t.TempDir()
	shard := filepath.Join(dir, "ab")
	if err := os.MkdirAll(shard, 0o755); err != nil {
		t.Fatal(err)
	}
	tmp := filepath.Join(shard, "tmp-crashed")
	if err := os.WriteFile(tmp, []byte("half-written"), 0o644); err != nil {
		t.Fatal(err)
	}
	c, err := OpenDiskCache(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	if c.Len() != 0 {
		t.Errorf("tmp file indexed: %d entries", c.Len())
	}
	if _, err := os.Stat(tmp); !os.IsNotExist(err) {
		t.Errorf("crashed tmp file not swept: %v", err)
	}
}
