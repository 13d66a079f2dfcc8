package core

import (
	"fmt"
	"slices"
	"testing"
)

// TestLRUEvictionCounter: only capacity pressure counts as an eviction —
// updating a cached key does not, so the counter isolates "my working
// set outgrew my cache".
func TestLRUEvictionCounter(t *testing.T) {
	c := newLRUCache[int](2)
	c.put("a", 1)
	c.put("b", 2)
	if st := c.stats(); st.Evictions != 0 || st.Len != 2 {
		t.Fatalf("stats after fill = %+v, want 0 evictions, len 2", st)
	}
	c.put("c", 3) // displaces "a"
	if st := c.stats(); st.Evictions != 1 {
		t.Fatalf("evictions = %d, want 1", st.Evictions)
	}
	if _, ok := c.get("a"); ok {
		t.Fatal("evicted entry still present")
	}
	// Re-putting an existing key is an update, not an eviction.
	c.put("c", 4)
	if st := c.stats(); st.Evictions != 1 {
		t.Fatalf("evictions after update = %d, want 1", st.Evictions)
	}
}

// TestLRUContains: a membership check counts neither a hit nor a miss
// and leaves the eviction order alone.
func TestLRUContains(t *testing.T) {
	c := newLRUCache[int](2)
	c.put("a", 1)
	c.put("b", 2)
	if !c.contains("a") || c.contains("z") {
		t.Fatal("contains disagrees with the cached keys")
	}
	if st := c.stats(); st.Hits != 0 || st.Misses != 0 {
		t.Fatalf("contains counted a lookup: %+v", st)
	}
	c.put("c", 3) // "a" is still the least recently used
	if c.contains("a") || !c.contains("b") {
		t.Fatal("contains refreshed the recency of a")
	}
}

// TestLRUPutFullRecycles pins eviction by recycling: a put into a full
// cache reuses the least recently used entry for the new key, so it
// allocates nothing, and the LRU order, the victim and the eviction
// count are those of evict-then-insert.
func TestLRUPutFullRecycles(t *testing.T) {
	c := newLRUCache[int](3)
	order := func() []string {
		var ks []string
		for el := c.ll.Front(); el != nil; el = el.Next() {
			ks = append(ks, el.Value.(*cacheEntry[int]).key)
		}
		return ks
	}
	c.put("a", 1)
	c.put("b", 2)
	c.put("c", 3)
	c.get("a")    // order: a c b
	c.put("d", 4) // evicts b
	if got, want := order(), []string{"d", "a", "c"}; !slices.Equal(got, want) {
		t.Fatalf("LRU order = %v, want %v", got, want)
	}
	if _, ok := c.get("b"); ok {
		t.Fatal("victim b still cached")
	}
	if v, ok := c.get("d"); !ok || v != 4 {
		t.Fatalf("get(d) = %v, %v; want 4, true", v, ok)
	}
	if st := c.stats(); st.Evictions != 1 || st.Len != 3 {
		t.Fatalf("stats = %+v, want 1 eviction, len 3", st)
	}
	if raceEnabled {
		return // allocation counts are not meaningful under the race detector
	}
	keys := make([]string, 64)
	for i := range keys {
		keys[i] = fmt.Sprintf("k%d", i)
	}
	i := 0
	n := testing.AllocsPerRun(1000, func() {
		c.put(keys[i%len(keys)], i)
		i++
	})
	if n != 0 {
		t.Errorf("put into a full cache: %v allocs, want 0", n)
	}
	if st := c.stats(); st.Len != 3 {
		t.Errorf("len after churn = %d, want 3", st.Len)
	}
}
