package service

import (
	"container/list"
	"sync"
)

// lru is a bounded least-recently-used map from content address to value,
// safe for concurrent use. It is capped by entry count and by the summed
// byte size of its values, and whichever cap is exceeded evicts from the
// least recently used end (a get refreshes recency); the entry just added
// is never evicted, so one oversized value still serves. It is the
// in-memory tier of both daemon stores: the result cache (response
// bodies) and the trace store's working set (uploaded traces).
type lru[V any] struct {
	mu         sync.Mutex
	entries    map[string]*list.Element
	order      *list.List // front = most recently used
	maxEntries int
	maxBytes   int64
	totalBytes int64
	onEvict    func() // optional eviction counter hook
}

type lruEntry[V any] struct {
	key  string
	val  V
	size int64
}

func newLRU[V any](maxEntries int, maxBytes int64) *lru[V] {
	return &lru[V]{
		entries:    make(map[string]*list.Element),
		order:      list.New(),
		maxEntries: maxEntries,
		maxBytes:   maxBytes,
	}
}

// get returns the value under key and marks it most recently used.
func (c *lru[V]) get(key string) (V, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.entries[key]
	if !ok {
		var zero V
		return zero, false
	}
	c.order.MoveToFront(el)
	return el.Value.(*lruEntry[V]).val, true
}

// put stores val, of size bytes, under key and evicts least recently used
// entries while either cap is exceeded. Keys are content addresses, so a
// key already present holds the identical value: put only refreshes its
// recency.
func (c *lru[V]) put(key string, val V, size int64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.entries[key]; ok {
		c.order.MoveToFront(el)
		return
	}
	c.entries[key] = c.order.PushFront(&lruEntry[V]{key: key, val: val, size: size})
	c.totalBytes += size
	for (len(c.entries) > c.maxEntries || c.totalBytes > c.maxBytes) && c.order.Len() > 1 {
		victim := c.order.Back()
		e := victim.Value.(*lruEntry[V])
		c.order.Remove(victim)
		delete(c.entries, e.key)
		c.totalBytes -= e.size
		if c.onEvict != nil {
			c.onEvict()
		}
	}
}

// values returns every stored value, most recently used first.
func (c *lru[V]) values() []V {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]V, 0, len(c.entries))
	for el := c.order.Front(); el != nil; el = el.Next() {
		out = append(out, el.Value.(*lruEntry[V]).val)
	}
	return out
}

func (c *lru[V]) len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.entries)
}

func (c *lru[V]) bytes() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.totalBytes
}

// defaultCacheMaxBytes bounds the in-memory result cache when Options
// leave it 0: 256 MiB, far above 4096 typical bodies, so the entry cap
// normally binds first.
const defaultCacheMaxBytes = 256 << 20

// newResultCache builds the in-memory tier of the content-addressed result
// store. Simulations are deterministic pure functions of their job key —
// (config digest, workload spec, seed, windows) — so a cached body can be
// replayed byte-for-byte for any identical request. The caps (0 selects
// 4096 entries and 256 MiB of bodies) keep a burst of unusually large
// responses from ballooning the daemon; evictions feed
// rfpsimd_cache_evictions_total through the onEvict hook.
func newResultCache(maxEntries int, maxBytes int64) *lru[[]byte] {
	if maxEntries <= 0 {
		maxEntries = 4096
	}
	if maxBytes <= 0 {
		maxBytes = defaultCacheMaxBytes
	}
	return newLRU[[]byte](maxEntries, maxBytes)
}
