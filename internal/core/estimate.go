package core

import (
	"context"
	"sort"
	"sync"
	"time"

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
// that makes repeated shapes compile-once/execute-many. In front of the
// pipeline, ParseQuery keeps a third cache from raw query text to the
// parsed query and its canonical string, so a served request that
// repeats a text neither parses nor canonicalizes it. Selectivity,
// SelectivityContext and SelectivityTracedCanonical differ only in what
// they report; Prepare exposes the compiled plan directly for callers that
// hold a query shape and execute it repeatedly, and Explain reads the
// top embeddings off it.
//
// An Estimator is safe for concurrent use by multiple goroutines: the
// synopsis is immutable after Build, the descendant-closure vectors are
// precomputed at construction, execution scratch is pooled, and all
// three caches are internally synchronized. The one exception is
// configuration (SetCacheCapacity, SetPlanCacheCapacity), which must
// happen before the estimator is shared.
//
// The synopsis never changes, so an estimate is a pure function of the
// canonical query string, and the caches are keyed by it alone. They
// live and die with the estimator: a new synopsis gets a new estimator
// with empty caches.
type Estimator struct {
	s *Synopsis
	// kids is the per-node child adjacency as id-sorted slices: the
	// deterministic, cache-friendly iteration order that makes estimates
	// reproducible bit-for-bit across runs and across goroutines
	// (floating-point accumulation order is fixed). Immutable.
	kids map[NodeID][]weight
	// desc holds, per synopsis node, the expected number of
	// proper-descendant elements per cluster, per element of the node,
	// id-sorted. Precomputed for every node at construction; immutable.
	desc map[NodeID][]weight
	// labelOf is the label index: the dense id of each cluster's label,
	// indexed by NodeID (-1 where no cluster has the id), with labelIDs
	// mapping each label to its id. Compilation resolves a step's label
	// test to one id through it, so testing a cluster is one slice
	// compare. Built at construction; immutable.
	labelOf  []int32
	labelIDs map[string]int32
	// scratch pools compiler working memory (*compiler), allocated on
	// first use.
	scratch sync.Pool
	// cache memoizes full query results by canonical query string; nil
	// when disabled.
	cache *lruCache[float64]
	// plans memoizes compiled plans by canonical query string, so
	// repeated query shapes compile once and execute many times; nil
	// when disabled.
	plans *lruCache[*Plan]
	// texts memoizes ParseQuery by raw query text; sized with (and
	// disabled with) the result cache.
	texts *lruCache[parsedText]
}

// parsedText is one entry of the text cache: a parsed query (immutable,
// so every request that repeats the text shares it) and its canonical
// string.
type parsedText struct {
	q         *query.Query
	canonical string
}

// maxCachedQueryText is the longest query text ParseQuery caches.
// Distinct texts can share one canonical form (padding a number with
// leading zeros, say), so without a bound each cached text could pin up
// to a request body of memory; longer texts are parsed on every call.
const maxCachedQueryText = 4 << 10

// weight is one (node, expected count) pair of a sparse vector.
type weight struct {
	id NodeID
	w  float64
}

// DefaultCacheCapacity is the number of distinct queries the result
// cache, and of distinct texts the text cache, retains unless
// SetCacheCapacity overrides it.
const DefaultCacheCapacity = 1024

// DefaultPlanCacheCapacity is the number of compiled plans the plan
// cache retains unless SetPlanCacheCapacity overrides it. Plans are
// larger than cached results (a few hundred bytes to a few KB per query
// shape), so the default is smaller than the result cache's.
const DefaultPlanCacheCapacity = 256

// NewEstimator returns an estimator over the synopsis, ready to be
// shared across goroutines. Construction precomputes the
// descendant-closure vectors of every node (the work Selectivity
// previously redid lazily per estimator) and the label index, and
// enables a result cache of DefaultCacheCapacity queries.
func NewEstimator(s *Synopsis) *Estimator {
	e := &Estimator{
		s:    s,
		kids: buildKidIndex(s),
	}
	e.labelOf, e.labelIDs = buildLabelIndex(s)
	e.plans = newLRUCache[*Plan](DefaultPlanCacheCapacity)
	e.desc = buildDescIndex(s, e.kids)
	e.SetCacheCapacity(DefaultCacheCapacity)
	return e
}

// SetCacheCapacity resizes the query-result cache, and ParseQuery's
// text cache with it, to hold n entries each (n <= 0 disables both).
// Counters reset. Call before sharing the estimator across goroutines.
func (e *Estimator) SetCacheCapacity(n int) {
	if n <= 0 {
		e.cache, e.texts = nil, nil
		return
	}
	e.cache = newLRUCache[float64](n)
	e.texts = newLRUCache[parsedText](n)
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
	e.plans = newLRUCache[*Plan](n)
}

// ParseQuery parses a query text and returns the query with its
// canonical string, which SelectivityTracedCanonical and WarmPlan take
// so the estimate does not canonicalize again. Texts of up to 4 KiB
// (maxCachedQueryText) are cached: a repeated text returns the same
// *query.Query, shared by every caller, so callers must not modify it
// (no code does: a parsed query is immutable). Parse errors are never
// cached; a bad text is parsed, and fails identically, on every call.
func (e *Estimator) ParseQuery(text string) (*query.Query, string, error) {
	cacheable := e.texts != nil && len(text) <= maxCachedQueryText
	if cacheable {
		if p, ok := e.texts.get(text); ok {
			return p.q, p.canonical, nil
		}
	}
	q, err := query.Parse(text)
	if err != nil {
		return nil, "", err
	}
	canonical := q.String()
	if cacheable {
		e.texts.put(text, parsedText{q: q, canonical: canonical})
	}
	return q, canonical, nil
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

// buildLabelIndex numbers the synopsis's distinct labels and records
// each cluster's label id in a slice indexed by NodeID.
func buildLabelIndex(s *Synopsis) ([]int32, map[string]int32) {
	n := 0
	for id := range s.nodes {
		n = max(n, int(id)+1)
	}
	labelOf := make([]int32, n)
	for i := range labelOf {
		labelOf[i] = -1
	}
	ids := make(map[string]int32)
	for id, nd := range s.nodes {
		l, ok := ids[nd.Label]
		if !ok {
			l = int32(len(ids))
			ids[nd.Label] = l
		}
		labelOf[id] = l
	}
	return labelOf, ids
}

// Selectivity estimates s(Q), the expected number of binding tuples,
// through the estimation pipeline (see pipeline). It returns 0 when the
// query cannot be compiled — the only such query is a hand-built one
// with a stepless variable, which the parser never produces; use
// SelectivityContext or Prepare to see the error.
func (e *Estimator) Selectivity(q *query.Query) float64 {
	v, _ := e.pipeline(context.Background(), time.Time{}, q, "", nil)
	return v
}

// SelectivityContext is Selectivity with cancellation, checked before
// each root variable's subproblem group (cache hits short-circuit), and
// with the compile error returned. Use it when estimates are served
// under a request deadline.
func (e *Estimator) SelectivityContext(ctx context.Context, q *query.Query) (float64, error) {
	return e.pipeline(ctx, time.Time{}, q, "", nil)
}

// pipeline is the estimation pipeline every entry point runs:
// canonicalize (the query's canonical string is its identity in both
// caches; a caller that already holds it passes it as canonical, and
// "" means compute it), result-cache lookup, plan-cache lookup,
// compile on a plan miss, and execute. tr, when non-nil, receives one
// span per stage that ran plus the cache outcomes; with a nil trace no
// timestamps are taken. ctx and deadline
// (zero for none) are checked only where an executed plan checks them,
// so a result-cache hit answers whatever their state.
func (e *Estimator) pipeline(ctx context.Context, deadline time.Time, q *query.Query, canonical string, tr *EstimateTrace) (float64, error) {
	if canonical == "" {
		canonical = q.String()
	}
	if tr != nil {
		tr.Canonical = canonical
		tr.CanonicalHash = CanonicalHash(canonical)
		tr.span(StageCanonicalize, tr.Start)
	}
	if e.cache != nil {
		ts := tr.now()
		v, ok := e.cache.get(canonical)
		tr.span(StageResultCache, ts)
		if ok {
			if tr != nil {
				tr.ResultCacheHit = true
			}
			return tr.finish(v, nil)
		}
	}
	plan, err := e.planFor(q, canonical, tr)
	if err != nil {
		return tr.finish(0, err)
	}
	if tr != nil {
		tr.Subproblems = plan.NumSubproblems()
		tr.PlanGeneration = plan.gen
	}
	ts := tr.now()
	v, err := plan.execute(ctx, deadline)
	tr.span(StageExecute, ts)
	if err != nil {
		return tr.finish(0, err)
	}
	if e.cache != nil {
		e.cache.put(canonical, v)
	}
	return tr.finish(v, nil)
}

// planFor returns the compiled plan of q under its canonical string,
// consulting the plan cache when enabled and recording the lookup and
// any compilation in tr (nil: untraced). Concurrent misses on the same
// shape may compile twice; both plans are identical and either lands in
// the cache.
func (e *Estimator) planFor(q *query.Query, canonical string, tr *EstimateTrace) (*Plan, error) {
	if e.plans != nil {
		ts := tr.now()
		p, ok := e.plans.get(canonical)
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
		e.plans.put(canonical, p)
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
// and 0 for a type-matching predicate on an unsummarized cluster (a value
// path not configured for summarization), which keeps negative queries at
// the near-zero estimates reported in the paper.
func (e *Estimator) predSel(n *Node, p query.Pred) float64 {
	if p == nil {
		return 1
	}
	want, known := p.Kind().ValueType()
	if !known || n.VType != want {
		return 0
	}
	if n.VSum == nil {
		return 0
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
//
// kids is buildKidIndex's id-sorted child lists, so children are
// visited deterministically: where a cycle is cut depends on traversal
// order, and estimates must be reproducible across runs and
// serialization round trips.
func buildDescIndex(s *Synopsis, kids map[NodeID][]weight) map[NodeID][]weight {
	perm := make(map[NodeID]map[NodeID]float64) // clean (exact) vectors
	final := make(map[NodeID][]weight, len(s.nodes))
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
		for _, kw := range kids[id] {
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
