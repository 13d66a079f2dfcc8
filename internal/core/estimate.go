package core

import (
	"context"
	"sort"
	"strconv"
	"sync/atomic"

	"xcluster/internal/query"
)

// Estimator approximates twig-query selectivities over an XCluster
// synopsis using the paper's Section 5 framework: it sums over query
// embeddings (mappings of query variables to synopsis nodes satisfying
// the structural and value constraints) and combines edge counts with
// predicate selectivities under the generalized Path-Value Independence
// assumption — the selectivity of a path u[p]/c is |u|·σ_p(u)·count(u,c).
//
// Estimation is one pipeline (pipeline, below) that every entry point
// runs: canonicalize (the query's canonical string is the identity
// under which results and plans are cached), compile (the query is
// lowered onto the synopsis once — see compile.go), and execute (the
// flat compiled plan is evaluated — see plan.go), behind two LRU
// caches: a result cache keyed by canonical query, and a plan cache
// that makes repeated shapes compile-once/execute-many. Selectivity,
// SelectivityContext and SelectivityTraced differ only in what they
// report; Prepare exposes the compiled plan directly for callers that
// hold a query shape and execute it repeatedly, and Explain reads the
// top embeddings off it.
//
// An Estimator is safe for concurrent use by multiple goroutines: the
// synopsis is immutable after Build, the descendant-closure vectors are
// precomputed at construction, execution scratch is pooled, and both
// caches are internally synchronized. The one exception is
// configuration (UninformedSel, SetCacheCapacity,
// SetPlanCacheCapacity), which must happen before the estimator is
// shared: compiled plans bind UninformedSel at compile time.
type Estimator struct {
	s *Synopsis
	// UninformedSel is the selectivity assumed for a value predicate on
	// a type-matching cluster that carries no value summary (a value
	// path not configured for summarization). The default 0 keeps
	// negative queries at the near-zero estimates reported in the paper;
	// set 1 for an optimistic (superset) estimate instead. Set it before
	// sharing the estimator across goroutines.
	UninformedSel float64
	// kids is the per-node child adjacency as id-sorted slices: the
	// deterministic, cache-friendly iteration order that makes estimates
	// reproducible bit-for-bit across runs and across goroutines
	// (floating-point accumulation order is fixed). Immutable.
	kids map[NodeID][]weight
	// desc holds, per synopsis node, the expected number of
	// proper-descendant elements per cluster, per element of the node,
	// id-sorted. Precomputed for every node at construction; immutable.
	desc map[NodeID][]weight
	// cache memoizes full query results by canonical query string; nil
	// when disabled.
	cache *lruCache[float64]
	// plans memoizes compiled plans by canonical query string, so
	// repeated query shapes compile once and execute many times; nil
	// when disabled.
	plans *lruCache[*Plan]
	// epoch is the shared invalidation counter behind both caches: one
	// InvalidateCaches bump makes every cached result and plan stale
	// atomically (see estcache.go).
	epoch atomic.Uint64
	// sink, when non-nil, receives pipeline stage timings and cache
	// outcomes from every estimate (SetMetricSink).
	sink MetricSink
}

// weight is one (node, expected count) pair of a sparse vector.
type weight struct {
	id NodeID
	w  float64
}

// DefaultCacheCapacity is the number of distinct queries the result
// cache retains unless SetCacheCapacity overrides it.
const DefaultCacheCapacity = 1024

// DefaultPlanCacheCapacity is the number of compiled plans the plan
// cache retains unless SetPlanCacheCapacity overrides it. Plans are
// larger than cached results (a few hundred bytes to a few KB per query
// shape), so the default is smaller than the result cache's.
const DefaultPlanCacheCapacity = 256

// NewEstimator returns an estimator over the synopsis, ready to be
// shared across goroutines. Construction precomputes the
// descendant-closure vectors of every node (the work Selectivity
// previously redid lazily per estimator) and enables a result cache of
// DefaultCacheCapacity queries.
func NewEstimator(s *Synopsis) *Estimator {
	e := &Estimator{
		s:    s,
		kids: buildKidIndex(s),
	}
	e.cache = newLRUCache[float64](DefaultCacheCapacity, &e.epoch)
	e.plans = newLRUCache[*Plan](DefaultPlanCacheCapacity, &e.epoch)
	e.desc = buildDescIndex(s)
	return e
}

// SetCacheCapacity resizes the query-result cache to hold n entries
// (n <= 0 disables caching). Counters reset. Call before sharing the
// estimator across goroutines.
func (e *Estimator) SetCacheCapacity(n int) {
	if n <= 0 {
		e.cache = nil
		return
	}
	e.cache = newLRUCache[float64](n, &e.epoch)
}

// SetPlanCacheCapacity resizes the compiled-plan cache to hold n plans
// (n <= 0 disables plan caching: every uncached Selectivity call then
// recompiles). Counters reset. Call before sharing the estimator across
// goroutines.
func (e *Estimator) SetPlanCacheCapacity(n int) {
	if n <= 0 {
		e.plans = nil
		return
	}
	e.plans = newLRUCache[*Plan](n, &e.epoch)
}

// InvalidateCaches drops every cached result and compiled plan in one
// atomic step: the shared epoch counter is bumped first — instantly
// staling all entries of both caches, including ones a racing writer is
// about to insert with the old stamp — and then both caches are purged
// eagerly to release memory. Safe for concurrent use; called on
// synopsis hot swaps so no estimate computed against the outgoing
// generation survives into the next.
func (e *Estimator) InvalidateCaches() {
	e.epoch.Add(1)
	if e.cache != nil {
		e.cache.purge()
	}
	if e.plans != nil {
		e.plans.purge()
	}
}

// Generation returns the build generation of the synopsis this
// estimator serves (0 for artifacts that never went through a lifecycle
// swap).
func (e *Estimator) Generation() uint64 { return e.s.fp.Generation }

// Synopsis returns the synopsis the estimator is bound to.
func (e *Estimator) Synopsis() *Synopsis { return e.s }

// CacheStats returns the result cache's hit/miss counters and occupancy
// (zero-valued when the cache is disabled).
func (e *Estimator) CacheStats() CacheStats {
	if e.cache == nil {
		return CacheStats{}
	}
	return e.cache.stats()
}

// PlanCacheStats returns the plan cache's hit/miss counters and
// occupancy (zero-valued when the cache is disabled). Every miss is one
// query compilation, so Misses counts how many plans were built.
func (e *Estimator) PlanCacheStats() CacheStats {
	if e.plans == nil {
		return CacheStats{}
	}
	return e.plans.stats()
}

// PlanCacheCapacity returns the plan cache's capacity (0 when
// disabled). Unlike PlanCacheStats it takes no lock, so it is cheap
// enough to consult per request.
func (e *Estimator) PlanCacheCapacity() int {
	if e.plans == nil {
		return 0
	}
	return e.plans.capacity
}

// buildKidIndex converts each node's child map into an id-sorted slice.
func buildKidIndex(s *Synopsis) map[NodeID][]weight {
	kids := make(map[NodeID][]weight, len(s.nodes))
	for id, n := range s.nodes {
		if len(n.Children) == 0 {
			continue
		}
		ws := make([]weight, 0, len(n.Children))
		for c, avg := range n.Children {
			ws = append(ws, weight{id: c, w: avg})
		}
		sort.Slice(ws, func(i, j int) bool { return ws[i].id < ws[j].id })
		kids[id] = ws
	}
	return kids
}

// Selectivity estimates s(Q), the expected number of binding tuples,
// through the estimation pipeline (see pipeline). It returns 0 when the
// query cannot be compiled — the only such query is a hand-built one
// with a stepless variable, which the parser never produces; use
// SelectivityContext or Prepare to see the error.
func (e *Estimator) Selectivity(q *query.Query) float64 {
	v, _ := e.pipeline(context.Background(), q, nil)
	return v
}

// SelectivityContext is Selectivity with cancellation, checked before
// each root variable's subproblem group (cache hits short-circuit), and
// with the compile error returned. Use it when estimates are served
// under a request deadline.
func (e *Estimator) SelectivityContext(ctx context.Context, q *query.Query) (float64, error) {
	return e.pipeline(ctx, q, nil)
}

// pipeline is the estimation pipeline every entry point runs:
// canonicalize (the query's canonical string, salted into the cache
// key, is its identity in both caches), result-cache lookup, plan-cache
// lookup, compile on a plan miss, and execute. tr, when non-nil,
// receives one span per stage that ran plus the cache outcomes; with a
// metric sink configured a trace is recorded even when the caller did
// not ask for one, and every trace is emitted into the sink. With
// neither, no timestamps are taken.
func (e *Estimator) pipeline(ctx context.Context, q *query.Query, tr *EstimateTrace) (float64, error) {
	if tr == nil && e.sink != nil {
		tr = e.newTrace()
	}
	canonical := q.String()
	key := e.saltKey(canonical)
	if tr != nil {
		tr.Canonical = canonical
		tr.CanonicalHash = CanonicalHash(canonical)
		tr.span(StageCanonicalize, tr.start)
	}
	if e.cache != nil {
		ts := tr.now()
		v, ok := e.cache.get(key)
		tr.span(StageResultCache, ts)
		if ok {
			if tr != nil {
				tr.ResultCacheHit = true
			}
			return e.finish(tr, v, nil)
		}
	}
	plan, err := e.planFor(q, canonical, key, tr)
	if err != nil {
		return e.finish(tr, 0, err)
	}
	if tr != nil {
		tr.Subproblems = plan.NumSubproblems()
		tr.PlanGeneration = plan.gen
	}
	ts := tr.now()
	v, err := plan.execute(ctx)
	tr.span(StageExecute, ts)
	if err != nil {
		return e.finish(tr, 0, err)
	}
	if e.cache != nil {
		e.cache.put(key, v)
	}
	return e.finish(tr, v, nil)
}

// saltKey turns a canonical query string into its cache key: salted
// with UninformedSel when nonzero (both the estimate and the compiled
// plan depend on it).
func (e *Estimator) saltKey(canonical string) string {
	if e.UninformedSel == 0 {
		return canonical
	}
	return strconv.FormatFloat(e.UninformedSel, 'g', -1, 64) + "|" + canonical
}

// planFor returns the compiled plan of q under its cache key,
// consulting the plan cache when enabled and recording the lookup and
// any compilation in tr (nil: untraced). Concurrent misses on the same
// shape may compile twice; both plans are identical and either lands in
// the cache.
func (e *Estimator) planFor(q *query.Query, canonical, key string, tr *EstimateTrace) (*Plan, error) {
	if e.plans != nil {
		ts := tr.now()
		p, ok := e.plans.get(key)
		tr.span(StagePlanCache, ts)
		if ok {
			if tr != nil {
				tr.PlanCacheHit = true
			}
			return p, nil
		}
	}
	ts := tr.now()
	p, err := e.compile(q, canonical)
	tr.span(StageCompile, ts)
	if err != nil {
		return nil, err
	}
	if e.plans != nil {
		e.plans.put(key, p)
	}
	return p, nil
}

// memoKey identifies one (query variable, origin cluster) subproblem.
type memoKey struct {
	v    *query.Node
	from NodeID
}

// predSel returns σ_p(u): 1 for no predicate; 0 when the predicate kind
// cannot apply to the node's value type (the synopsis is type-respecting,
// so the whole cluster fails); the value summary's estimate when present;
// and UninformedSel for a type-matching predicate on an unsummarized
// cluster.
func (e *Estimator) predSel(n *Node, p query.Pred) float64 {
	if p == nil {
		return 1
	}
	want, known := p.Kind().ValueType()
	if !known || n.VType != want {
		return 0
	}
	if n.VSum == nil {
		return e.UninformedSel
	}
	return n.VSum.PredSel(p, e.s.dict)
}

// sortedWeights flattens a sparse vector into an id-sorted slice.
func sortedWeights(m map[NodeID]float64) []weight {
	if len(m) == 0 {
		return nil
	}
	out := make([]weight, 0, len(m))
	for id, w := range m {
		out = append(out, weight{id: id, w: w})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].id < out[j].id })
	return out
}

// buildDescIndex computes the descendant-closure vector of every node:
//
//	desc(u)[d] = Σ_c count(u,c)·(δ_{c=d} + desc(c)[d])
//
// Cycles (possible after aggressive merging) are truncated at the
// back-edge: a node currently on the recursion stack contributes its
// direct reach only, which keeps the computation finite and errs low.
// Vectors whose subgraph required no truncation ("clean") are exact and
// shared across starting nodes; cycle-tainted vectors depend on where
// the cycle was cut, so each is computed from its own node as the
// traversal root — exactly the value the previous lazy implementation
// produced at query time.
func buildDescIndex(s *Synopsis) map[NodeID][]weight {
	perm := make(map[NodeID]map[NodeID]float64) // clean (exact) vectors
	final := make(map[NodeID][]weight, len(s.nodes))
	// kidsOf iterates children deterministically: where a cycle is cut
	// depends on traversal order, and estimates must be reproducible
	// across runs and serialization round trips.
	kidsOf := make(map[NodeID][]weight, len(s.nodes))
	for id, n := range s.nodes {
		ws := make([]weight, 0, len(n.Children))
		for c, avg := range n.Children {
			ws = append(ws, weight{id: c, w: avg})
		}
		sort.Slice(ws, func(i, j int) bool { return ws[i].id < ws[j].id })
		kidsOf[id] = ws
	}

	onStack := make(map[NodeID]bool)
	// local memoizes cycle-tainted vectors within one top-level
	// traversal only: without any memo a DAG with shared substructure
	// makes the recursion exponential.
	var local map[NodeID]map[NodeID]float64
	// rec reports whether the vector is clean (no cycle truncation in
	// its subgraph); only clean vectors are shared across traversals.
	// Self-loops — the common cycle after merging recursively nested
	// same-label clusters — are resolved exactly via the geometric
	// series desc = (base + a·e_self) / (1 − a); longer cycles are
	// truncated.
	var rec func(id NodeID) (map[NodeID]float64, bool)
	rec = func(id NodeID) (map[NodeID]float64, bool) {
		if v, ok := perm[id]; ok {
			return v, true
		}
		if v, ok := local[id]; ok {
			return v, false
		}
		onStack[id] = true
		out := make(map[NodeID]float64)
		clean := true
		self := 0.0
		for _, kw := range kidsOf[id] {
			c, avg := kw.id, kw.w
			if c == id {
				self = avg
				continue
			}
			out[c] += avg
			if onStack[c] {
				clean = false // truncate the cycle
				continue
			}
			sub, subClean := rec(c)
			clean = clean && subClean
			for d, dc := range sub {
				out[d] += avg * dc
			}
		}
		if self > 0 {
			// Each element spawns `self` same-cluster children on
			// average; cap just below 1 so degenerate merged counts
			// cannot diverge.
			if self > 0.95 {
				self = 0.95
			}
			scale := 1 / (1 - self)
			for d := range out {
				out[d] *= scale
			}
			out[id] += self * scale
		}
		delete(onStack, id)
		if clean {
			perm[id] = out
		} else {
			local[id] = out
		}
		return out, clean
	}

	ids := make([]int, 0, len(s.nodes))
	for id := range s.nodes {
		ids = append(ids, int(id))
	}
	sort.Ints(ids)
	for _, i := range ids {
		id := NodeID(i)
		v, ok := perm[id]
		if !ok {
			local = make(map[NodeID]map[NodeID]float64)
			v, _ = rec(id)
		}
		final[id] = sortedWeights(v)
	}
	return final
}
