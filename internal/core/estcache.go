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
	// Evictions counts entries displaced by capacity pressure (stale
	// epoch drops and purges are not evictions). In a multi-tenant
	// catalog, a tenant's eviction count can only be driven by its own
	// traffic — each shard owns its caches — which the isolation tests
	// assert.
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
// never contend with the list manipulation.
//
// The cache is epoch-aware: every entry is stamped with the value of the
// shared epoch counter at insertion, and a lookup only hits when the
// entry's stamp matches the current epoch. Bumping the counter therefore
// invalidates every cache sharing it in one atomic store — the result
// and plan caches of an estimator can never serve values from different
// epochs, even mid-swap while a slow writer races the bump.
type lruCache[V any] struct {
	mu        sync.Mutex
	capacity  int
	ll        *list.List // front = most recently used
	items     map[string]*list.Element
	hits      atomic.Uint64
	misses    atomic.Uint64
	evictions atomic.Uint64
	// epoch is the shared invalidation counter (owned by the Estimator;
	// the same counter backs all of its caches).
	epoch *atomic.Uint64
}

// cacheEntry is one LRU element.
type cacheEntry[V any] struct {
	key   string
	val   V
	epoch uint64 // epoch counter value at insertion
}

// newLRUCache returns an empty cache holding at most capacity entries.
// Its map grows with the entries it holds rather than being sized to
// the capacity up front, which for a large capacity would reserve
// gigabytes before the first entry (and again on every hot swap).
func newLRUCache[V any](capacity int, epoch *atomic.Uint64) *lruCache[V] {
	return &lruCache[V]{
		capacity: capacity,
		ll:       list.New(),
		items:    make(map[string]*list.Element),
		epoch:    epoch,
	}
}

// get returns the cached value for key and whether it was present.
// Entries stamped with a stale epoch are dropped and count as misses.
func (c *lruCache[V]) get(key string) (V, bool) {
	now := c.epoch.Load()
	c.mu.Lock()
	el, ok := c.items[key]
	if ok && el.Value.(*cacheEntry[V]).epoch != now {
		c.ll.Remove(el)
		delete(c.items, key)
		ok = false
	}
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

// put inserts key → val stamped with the current epoch, evicting the
// least recently used entry when the cache is full. The eviction
// recycles the victim's list element and entry for the new key, so a
// put into a full cache allocates nothing. Concurrent puts of the same
// key are idempotent (both goroutines computed the same deterministic
// value).
func (c *lruCache[V]) put(key string, val V) {
	now := c.epoch.Load()
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.items[key]; ok {
		c.ll.MoveToFront(el)
		ent := el.Value.(*cacheEntry[V])
		ent.val = val
		ent.epoch = now
		return
	}
	if c.ll.Len() >= c.capacity {
		el := c.ll.Back()
		ent := el.Value.(*cacheEntry[V])
		delete(c.items, ent.key)
		*ent = cacheEntry[V]{key: key, val: val, epoch: now}
		c.ll.MoveToFront(el)
		c.items[key] = el
		c.evictions.Add(1)
		return
	}
	c.items[key] = c.ll.PushFront(&cacheEntry[V]{key: key, val: val, epoch: now})
}

// purge eagerly drops every entry (stale entries would otherwise only be
// reclaimed lazily on lookup). Counters are kept.
func (c *lruCache[V]) purge() {
	c.mu.Lock()
	c.ll.Init()
	clear(c.items)
	c.mu.Unlock()
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
