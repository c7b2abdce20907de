package fabric

import (
	"bytes"
	"container/list"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"sync"
)

// entryMagic versions the on-disk entry format. An entry is one file
// holding a single header line — magic, body length, SHA-256 of the body —
// followed by the raw response body:
//
//	rfpfab1 <len> <sha256-hex>\n<body>
//
// The header makes truncation and bit-rot detectable: a Get that fails
// length or digest verification deletes the file and reports a miss, so a
// corrupted entry costs one re-simulation, never a wrong answer.
const entryMagic = "rfpfab1"

// maxDiskEntryBytes bounds a single entry body; anything larger is
// refused (bodies are one marshalled stats block, a few KB).
const maxDiskEntryBytes = 64 << 20

// DiskCache is the persistent result tier: a content-addressed store of
// response bodies under a sharded directory tree
// (dir/<addr[:2]>/<addr>), written atomically via same-directory
// rename so a crash mid-write never leaves a half-entry under its final
// name. A byte-capped LRU janitor evicts the least-recently-used entries
// inline on Put; recency survives restarts approximately via file mtimes
// (Get touches the file).
type DiskCache struct {
	dir      string
	maxBytes int64

	mu         sync.Mutex
	entries    map[string]*list.Element // addr -> lru element
	lru        *list.List               // front = most recent
	totalBytes int64

	hits      counter
	misses    counter
	writes    counter
	evictions counter
	corrupt   counter
}

type diskEntry struct {
	addr string
	size int64 // file size (header + body)
}

// DefaultDiskMaxBytes caps the disk cache when Options leave it 0: 1 GiB.
const DefaultDiskMaxBytes = 1 << 30

// OpenDiskCache opens (creating if needed) the cache rooted at dir and
// rebuilds the LRU index from the existing entries, oldest-mtime first.
func OpenDiskCache(dir string, maxBytes int64) (*DiskCache, error) {
	if maxBytes <= 0 {
		maxBytes = DefaultDiskMaxBytes
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("fabric: cache dir: %w", err)
	}
	c := &DiskCache{
		dir:      dir,
		maxBytes: maxBytes,
		entries:  make(map[string]*list.Element),
		lru:      list.New(),
	}
	type found struct {
		addr  string
		size  int64
		mtime int64
	}
	var existing []found
	shards, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	for _, sh := range shards {
		if !sh.IsDir() || len(sh.Name()) != 2 {
			continue
		}
		files, err := os.ReadDir(filepath.Join(dir, sh.Name()))
		if err != nil {
			continue
		}
		for _, f := range files {
			if f.IsDir() || !ValidAddr(f.Name()) {
				// Leftover tmp files from a crashed write are garbage;
				// sweep them now.
				if !f.IsDir() {
					os.Remove(filepath.Join(dir, sh.Name(), f.Name()))
				}
				continue
			}
			info, err := f.Info()
			if err != nil {
				continue
			}
			existing = append(existing, found{addr: f.Name(), size: info.Size(), mtime: info.ModTime().UnixNano()})
		}
	}
	sort.Slice(existing, func(i, j int) bool {
		if existing[i].mtime != existing[j].mtime {
			return existing[i].mtime < existing[j].mtime
		}
		return existing[i].addr < existing[j].addr
	})
	for _, e := range existing {
		c.entries[e.addr] = c.lru.PushFront(&diskEntry{addr: e.addr, size: e.size})
		c.totalBytes += e.size
	}
	c.evictOverCapLocked()
	return c, nil
}

func (c *DiskCache) path(addr string) string {
	return filepath.Join(c.dir, addr[:2], addr)
}

// Get returns the body stored under addr, verifying the header's length
// and digest. Corrupt or truncated entries are deleted and reported as a
// miss — the caller re-simulates instead of serving garbage.
func (c *DiskCache) Get(addr string) ([]byte, bool) {
	if !ValidAddr(addr) {
		return nil, false
	}
	c.mu.Lock()
	el, ok := c.entries[addr]
	if ok {
		c.lru.MoveToFront(el)
	}
	c.mu.Unlock()
	if !ok {
		c.misses.Add(1)
		return nil, false
	}
	raw, err := os.ReadFile(c.path(addr))
	if err != nil {
		c.dropEntry(addr)
		c.misses.Add(1)
		return nil, false
	}
	body, ok := decodeEntry(raw)
	if !ok {
		c.corrupt.Add(1)
		c.dropEntry(addr)
		os.Remove(c.path(addr))
		c.misses.Add(1)
		return nil, false
	}
	// Touch the mtime so restart-time LRU seeding approximates recency.
	now := timeNow()
	os.Chtimes(c.path(addr), now, now)
	c.hits.Add(1)
	return body, true
}

// decodeEntry parses and verifies one on-disk entry.
func decodeEntry(raw []byte) ([]byte, bool) {
	nl := bytes.IndexByte(raw, '\n')
	if nl < 0 {
		return nil, false
	}
	fields := bytes.Fields(raw[:nl])
	if len(fields) != 3 || string(fields[0]) != entryMagic {
		return nil, false
	}
	n, err := strconv.ParseInt(string(fields[1]), 10, 64)
	if err != nil || n < 0 || n > maxDiskEntryBytes {
		return nil, false
	}
	body := raw[nl+1:]
	if int64(len(body)) != n {
		return nil, false
	}
	sum := sha256.Sum256(body)
	if hex.EncodeToString(sum[:]) != string(fields[2]) {
		return nil, false
	}
	return body, true
}

// Put stores body under addr: write to a temp file in the final shard
// directory, fsync-free atomic rename, then run the byte-cap janitor. A
// racing identical Put is harmless — both bodies are byte-identical by
// the determinism contract.
func (c *DiskCache) Put(addr string, body []byte) error {
	if !ValidAddr(addr) {
		return fmt.Errorf("fabric: invalid content address %q", addr)
	}
	if len(body) > maxDiskEntryBytes {
		return fmt.Errorf("fabric: entry body %d bytes exceeds the %d cap", len(body), maxDiskEntryBytes)
	}
	c.mu.Lock()
	_, exists := c.entries[addr]
	c.mu.Unlock()
	if exists {
		return nil
	}
	shard := filepath.Join(c.dir, addr[:2])
	if err := os.MkdirAll(shard, 0o755); err != nil {
		return err
	}
	sum := sha256.Sum256(body)
	header := fmt.Sprintf("%s %d %s\n", entryMagic, len(body), hex.EncodeToString(sum[:]))
	tmp, err := os.CreateTemp(shard, "tmp-*")
	if err != nil {
		return err
	}
	tmpName := tmp.Name()
	if _, err := tmp.WriteString(header); err == nil {
		_, err = tmp.Write(body)
	}
	if cerr := tmp.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		os.Remove(tmpName)
		return err
	}
	if err := os.Rename(tmpName, c.path(addr)); err != nil {
		os.Remove(tmpName)
		return err
	}
	size := int64(len(header) + len(body))
	c.mu.Lock()
	if _, ok := c.entries[addr]; !ok {
		c.entries[addr] = c.lru.PushFront(&diskEntry{addr: addr, size: size})
		c.totalBytes += size
	}
	c.evictOverCapLocked()
	c.mu.Unlock()
	c.writes.Add(1)
	return nil
}

// evictOverCapLocked removes least-recently-used entries until the total
// is back under the byte cap. Called with c.mu held.
func (c *DiskCache) evictOverCapLocked() {
	for c.totalBytes > c.maxBytes && c.lru.Len() > 1 {
		el := c.lru.Back()
		e := el.Value.(*diskEntry)
		c.lru.Remove(el)
		delete(c.entries, e.addr)
		c.totalBytes -= e.size
		os.Remove(c.path(e.addr))
		c.evictions.Add(1)
	}
}

// dropEntry removes addr from the index (unreadable or corrupt file).
func (c *DiskCache) dropEntry(addr string) {
	c.mu.Lock()
	if el, ok := c.entries[addr]; ok {
		c.totalBytes -= el.Value.(*diskEntry).size
		c.lru.Remove(el)
		delete(c.entries, addr)
	}
	c.mu.Unlock()
}

// Len returns the indexed entry count.
func (c *DiskCache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.entries)
}

// Bytes returns the indexed total size (headers included).
func (c *DiskCache) Bytes() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.totalBytes
}
