package profile

import (
	"math"
	"sync"
	"sync/atomic"
	"time"

	"xcluster/internal/accuracy"
	"xcluster/internal/core"
	"xcluster/internal/obs"
	"xcluster/internal/query"
)

// Sizing defaults. The lookup cache (canonical-hash → shape entry) is
// larger than the shape table because many canonicals (distinct
// predicate constants) map onto one shape; when it fills it is cleared
// wholesale and repopulated by subsequent misses, so its memory stays
// bounded no matter how many distinct constants the workload carries.
const (
	// DefaultCapacity is the default number of distinct query shapes
	// the space-saving table tracks.
	DefaultCapacity = 256
	// RateWindow is the trailing span behind rates and traffic shares:
	// windowBuckets obs.Window buckets per shape and per class residue.
	RateWindow    = 60 * time.Second
	windowBuckets = int(RateWindow / obs.WindowBucket)
	// lookupFactor scales the canonical-lookup cache relative to the
	// shape capacity.
	lookupFactor = 8
)

// shapeEntry is one tracked shape. Hot-path counters are atomics
// bumped under the profiler's read lock; identity fields are immutable
// after admission, so the hot path never takes the write lock.
type shapeEntry struct {
	shape string
	id    string // 16-hex of core.CanonicalHash(shape), pre-rendered (no per-hit alloc)
	class accuracy.Class
	// rep is the query that admitted the shape: the shape's
	// representative in the adaptive budget search's sample.
	rep *query.Query
	// errBound is the space-saving overestimate bound inherited from
	// the evicted minimum at admission (0 for shapes admitted into a
	// non-full table). count - errBound occurrences were truly observed.
	errBound uint64
	// evicted flips when the entry loses its table slot; stale lookup
	// cache hits check it and fall through to the admission path.
	evicted atomic.Bool

	count   atomic.Uint64 // space-saving count (includes errBound)
	failed  atomic.Uint64
	latNs   atomic.Int64
	selBits atomic.Uint64 // float64 bits of the selectivity sum
	win     *obs.Window   // occurrences over the trailing RateWindow
}

// bump records one occurrence at time now into the entry's counters.
// Callers hold the profiler's read lock, so eviction (write lock) never
// interleaves with a bump.
func (e *shapeEntry) bump(now time.Time, d time.Duration, estimate float64, failed bool) {
	e.count.Add(1)
	e.win.Add(now, 0, 1)
	e.latNs.Add(d.Nanoseconds())
	addFloat(&e.selBits, estimate)
	if failed {
		e.failed.Add(1)
	}
}

// classCounters holds one accuracy class's eviction residue: the
// truly-observed statistics of shapes the bounded table displaced,
// folded in under the write lock when their entry is evicted. Class
// totals at snapshot time are this residue plus the live entries'
// observed statistics, so they stay exact even when shape counts are
// sketched — without a second set of atomic bumps on the hot path.
type classCounters struct {
	count   atomic.Uint64
	failed  atomic.Uint64
	latNs   atomic.Int64
	selBits atomic.Uint64
	win     *obs.Window
}

// absorb folds an evicted entry's observed statistics into the
// residue. Callers hold the write lock, so no bump races the folds.
func (c *classCounters) absorb(e *shapeEntry) {
	c.count.Add(e.count.Load() - e.errBound)
	c.failed.Add(e.failed.Load())
	c.latNs.Add(e.latNs.Load())
	addFloat(&c.selBits, loadFloat(&e.selBits))
	c.win.Absorb(e.win)
}

// addFloat accumulates v into a float64 stored as atomic bits.
func addFloat(b *atomic.Uint64, v float64) {
	for {
		old := b.Load()
		nv := math.Float64bits(math.Float64frombits(old) + v)
		if b.CompareAndSwap(old, nv) {
			return
		}
	}
}

// Profiler sketches the live workload. The serving hot path calls
// Record once per estimate; everything else (snapshots, Prometheus
// sync, profile export) reads off the hot path.
//
// Concurrency: a canonical already in the lookup cache costs one
// RLock, one map read, and a handful of atomic updates on its own
// entry (its window bucket among them) — no allocation, no write
// lock, no shared-counter contention (class aggregates are derived at
// snapshot time from the entries plus the eviction residue; windows
// age out old buckets without a rotation step). The write lock is
// taken only on admission (a canonical or shape seen for the first
// time, or re-seen after eviction) and snapshots.
//
// Shapes are identified by 64-bit hashes; a collision merges two
// shapes' statistics, which is acceptable for a frequency sketch and
// astronomically unlikely at the table sizes involved.
//
// A nil *Profiler is a valid disabled profiler: Record reports "" and
// every accessor returns zero values.
type Profiler struct {
	capacity  int
	lookupCap int
	evictions atomic.Uint64

	mu      sync.RWMutex
	lookup  map[uint64]*shapeEntry // canonical hash → entry (cache)
	shapes  map[string]*shapeEntry // shape → entry (authoritative, ≤ capacity)
	residue [accuracy.NumClasses]classCounters
}

// New returns a profiler tracking up to capacity shapes
// (DefaultCapacity when <= 0).
func New(capacity int) *Profiler {
	if capacity <= 0 {
		capacity = DefaultCapacity
	}
	p := &Profiler{
		capacity:  capacity,
		lookupCap: capacity * lookupFactor,
		lookup:    make(map[uint64]*shapeEntry, capacity*lookupFactor),
		shapes:    make(map[string]*shapeEntry, capacity),
	}
	for i := range p.residue {
		p.residue[i].win = obs.NewWindow(windowBuckets, 1)
	}
	return p
}

// Capacity returns the shape-table capacity (0 on a nil profiler).
func (p *Profiler) Capacity() int {
	if p == nil {
		return 0
	}
	return p.capacity
}

// Record sketches one served estimate: the query q, its canonical
// string and hash (hash 0 recomputes from canonical — callers on the
// traced pipeline pass core's EstimateTrace.CanonicalHash so the
// string is hashed once per request), its latency, the estimate it
// produced, and whether it failed. now is the estimate's start time
// (the caller already has it; Record never reads the clock).
//
// It returns the shape's pre-rendered 16-hex ID — the join key between
// /debug/slowlog entries and /debug/workload shapes — or "" on a nil
// profiler.
func (p *Profiler) Record(now time.Time, q *query.Query, canonical string, hash uint64, d time.Duration, estimate float64, failed bool) string {
	if p == nil {
		return ""
	}
	if hash == 0 {
		hash = core.CanonicalHash(canonical)
	}
	p.mu.RLock()
	if e := p.lookup[hash]; e != nil && !e.evicted.Load() {
		e.bump(now, d, estimate, failed)
		p.mu.RUnlock()
		return e.id
	}
	p.mu.RUnlock()
	return p.admit(now, q, hash, d, estimate, failed)
}

// admit is Record's miss path: compute the shape (the only per-record
// allocation, paid once per distinct canonical), classify it, and
// install it in the space-saving table, evicting the minimum-count
// shape when the table is full. A new entry keeps q as its shape's
// representative query.
func (p *Profiler) admit(now time.Time, q *query.Query, hash uint64, d time.Duration, estimate float64, failed bool) string {
	shape := ShapeOf(q)
	p.mu.Lock()
	e := p.shapes[shape]
	if e == nil {
		var inherited uint64
		if len(p.shapes) >= p.capacity {
			victim := p.minEntry()
			delete(p.shapes, victim.shape)
			victim.evicted.Store(true)
			p.evictions.Add(1)
			// The victim's truly-observed traffic moves into its class's
			// residue so class totals stay exact.
			p.residue[victim.class].absorb(victim)
			// Space-saving: the newcomer inherits the evicted minimum's
			// count as its overestimate bound — it may have occurred up
			// to that many times while untracked.
			inherited = victim.count.Load()
		}
		e = &shapeEntry{
			shape:    shape,
			id:       shapeID(shape),
			class:    accuracy.Classify(q),
			rep:      q,
			errBound: inherited,
			win:      obs.NewWindow(windowBuckets, 1),
		}
		e.count.Store(inherited)
		p.shapes[shape] = e
	}
	if len(p.lookup) >= p.lookupCap {
		clear(p.lookup)
	}
	p.lookup[hash] = e
	e.bump(now, d, estimate, failed)
	p.mu.Unlock()
	return e.id
}

// minEntry scans the full table for the eviction victim: the
// minimum-count entry, ties broken toward the lexicographically
// largest shape. Both keys are deterministic, so eviction order does
// not depend on map iteration order. O(capacity), paid only when a new
// shape displaces one from a full table.
func (p *Profiler) minEntry() *shapeEntry {
	var victim *shapeEntry
	for _, e := range p.shapes {
		if victim == nil {
			victim = e
			continue
		}
		c, vc := e.count.Load(), victim.count.Load()
		if c < vc || (c == vc && e.shape > victim.shape) {
			victim = e
		}
	}
	return victim
}
