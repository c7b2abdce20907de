package service

import (
	"reflect"
	"strings"
	"testing"
)

// TestLRUEvictsLeastRecentlyUsed: the entry cap evicts from the least
// recently used end, a get refreshes recency, a repeated put only
// refreshes it, and every eviction reaches the hook.
func TestLRUEvictsLeastRecentlyUsed(t *testing.T) {
	c := newLRU[string](3, 1<<20)
	evicted := 0
	c.onEvict = func() { evicted++ }
	for _, k := range []string{"a", "b", "c"} {
		c.put(k, k, 1)
	}
	if v, ok := c.get("a"); !ok || v != "a" {
		t.Fatalf("get(a) = %q, %v", v, ok)
	}
	c.put("b", "ignored", 100) // present: recency only
	c.put("d", "d", 1)         // evicts c, the least recently used
	if got, want := c.values(), []string{"d", "b", "a"}; !reflect.DeepEqual(got, want) {
		t.Errorf("values = %v, want %v (most recently used first)", got, want)
	}
	if _, ok := c.get("c"); ok {
		t.Error("c survived eviction")
	}
	if c.len() != 3 || c.bytes() != 3 || evicted != 1 {
		t.Errorf("len %d bytes %d evictions %d, want 3, 3, 1", c.len(), c.bytes(), evicted)
	}
}

// TestLRUByteCap: the byte cap evicts as many old entries as it takes,
// but never the entry just added, so one oversized value still serves.
func TestLRUByteCap(t *testing.T) {
	c := newLRU[string](100, 10)
	c.put("a", "a", 4)
	c.put("b", "b", 4)
	c.put("c", "c", 4) // 12 > 10: a goes
	if got, want := c.values(), []string{"c", "b"}; !reflect.DeepEqual(got, want) {
		t.Errorf("values = %v, want %v", got, want)
	}
	c.put("huge", "huge", 50)
	if got, want := c.values(), []string{"huge"}; !reflect.DeepEqual(got, want) {
		t.Errorf("values = %v, want %v", got, want)
	}
	if c.bytes() != 50 {
		t.Errorf("bytes = %d, want 50", c.bytes())
	}
}

// TestLRUHitDoesNotAllocate: the result cache serves every memory hit
// through get, so a hit must not allocate.
func TestLRUHitDoesNotAllocate(t *testing.T) {
	c := newResultCache(0, 0)
	key := strings.Repeat("ab", 32)
	c.put(key, []byte(`{"ipc":1}`), 9)
	c.put("other", []byte(`{}`), 2)
	if n := testing.AllocsPerRun(1000, func() {
		if _, ok := c.get(key); !ok {
			t.Fatal("miss")
		}
	}); n != 0 {
		t.Errorf("cache hit allocates %.1f times, want 0", n)
	}
}

// TestTraceStoreListMostRecentFirst: List reports the in-memory working
// set most recently used first, and the entry cap evicts the least
// recently used trace.
func TestTraceStoreListMostRecentFirst(t *testing.T) {
	store := NewTraceStore(2, 0, nil)
	var addrs []string
	for _, n := range []int{100, 200, 300} {
		info, _, err := store.Add(validTraceBytes(t, "spec06_mcf", n))
		if err != nil {
			t.Fatal(err)
		}
		addrs = append(addrs, info.Address)
		if n == 200 {
			if _, _, ok := store.Get(addrs[0]); !ok { // refresh the first
				t.Fatal("first trace missing")
			}
		}
	}
	var got []string
	for _, info := range store.List() {
		got = append(got, info.Address)
	}
	if want := []string{addrs[2], addrs[0]}; !reflect.DeepEqual(got, want) {
		t.Errorf("List = %v, want %v", got, want)
	}
	if store.Len() != 2 {
		t.Errorf("Len = %d, want 2", store.Len())
	}
}
