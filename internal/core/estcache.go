package core

import (
	"container/list"
	"sync"
	"sync/atomic"
)

// CacheStats is a snapshot of one of the estimator's LRU caches (query
// results or compiled plans).
type CacheStats struct {
	// Hits and Misses count cache lookups since construction (or the
	// last capacity change).
	Hits, Misses uint64
	// Evictions counts entries displaced by capacity pressure. In a
	// multi-tenant catalog, a tenant's eviction count can only be driven
	// by its own traffic — each shard owns its caches — which the
	// isolation tests assert.
	Evictions uint64
	// Len is the current number of cached entries; Capacity the maximum.
	Len, Capacity int
}

// HitRate returns Hits / (Hits + Misses), or 0 before any lookup.
func (c CacheStats) HitRate() float64 {
	total := c.Hits + c.Misses
	if total == 0 {
		return 0
	}
	return float64(c.Hits) / float64(total)
}

// lruCache is a mutex-guarded LRU of string → V, shared by the result
// cache (canonical query → float64), the plan cache (canonical query →
// *Plan) and the text cache (raw query text → parsedText). Entries are
// immutable once inserted (estimates and plans over an immutable
// synopsis never change, nor does a parsed query), so a hit can be
// returned without copying. Hit/miss counters are atomics so they
// never contend with the list manipulation. A cache lives exactly as
// long as its estimator, which serves one synopsis: nothing it holds
// can go stale, so nothing ever invalidates it.
type lruCache[V any] struct {
	mu        sync.Mutex
	capacity  int
	ll        *list.List // front = most recently used
	items     map[string]*list.Element
	hits      atomic.Uint64
	misses    atomic.Uint64
	evictions atomic.Uint64
}

// cacheEntry is one LRU element.
type cacheEntry[V any] struct {
	key string
	val V
}

// newLRUCache returns an empty cache holding at most capacity entries.
// Its map grows with the entries it holds rather than being sized to
// the capacity up front, which for a large capacity would reserve
// gigabytes before the first entry (and again on every hot swap).
func newLRUCache[V any](capacity int) *lruCache[V] {
	return &lruCache[V]{
		capacity: capacity,
		ll:       list.New(),
		items:    make(map[string]*list.Element),
	}
}

// get returns the cached value for key and whether it was present.
func (c *lruCache[V]) get(key string) (V, bool) {
	c.mu.Lock()
	el, ok := c.items[key]
	if !ok {
		c.mu.Unlock()
		c.misses.Add(1)
		var zero V
		return zero, false
	}
	c.ll.MoveToFront(el)
	v := el.Value.(*cacheEntry[V]).val
	c.mu.Unlock()
	c.hits.Add(1)
	return v, true
}

// contains reports whether key is cached, without counting a hit or a
// miss and without refreshing its recency: a look ahead at what a later
// get will find, which must not change what the counters or the
// eviction order say about the lookups that happen.
func (c *lruCache[V]) contains(key string) bool {
	c.mu.Lock()
	_, ok := c.items[key]
	c.mu.Unlock()
	return ok
}

// put inserts key → val, evicting the least recently used entry when
// the cache is full. The eviction recycles the victim's list element
// and entry for the new key, so a put into a full cache allocates
// nothing. Concurrent puts of the same key are idempotent (both
// goroutines computed the same deterministic value).
func (c *lruCache[V]) put(key string, val V) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.items[key]; ok {
		c.ll.MoveToFront(el)
		el.Value.(*cacheEntry[V]).val = val
		return
	}
	if c.ll.Len() >= c.capacity {
		el := c.ll.Back()
		ent := el.Value.(*cacheEntry[V])
		delete(c.items, ent.key)
		*ent = cacheEntry[V]{key: key, val: val}
		c.ll.MoveToFront(el)
		c.items[key] = el
		c.evictions.Add(1)
		return
	}
	c.items[key] = c.ll.PushFront(&cacheEntry[V]{key: key, val: val})
}

// stats snapshots the counters and occupancy.
func (c *lruCache[V]) stats() CacheStats {
	c.mu.Lock()
	n := c.ll.Len()
	c.mu.Unlock()
	return CacheStats{
		Hits:      c.hits.Load(),
		Misses:    c.misses.Load(),
		Evictions: c.evictions.Load(),
		Len:       n,
		Capacity:  c.capacity,
	}
}
