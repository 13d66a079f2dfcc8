package core

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"xcluster/internal/vsum"
)

// DefaultAtomicCap bounds the number of atomic predicates drawn from one
// value summary when evaluating the Δ metric. The paper enumerates all
// atomic predicates; the cap is a performance knob that keeps candidate
// evaluation affordable on detailed reference summaries (capped
// enumeration keeps the highest-count predicates, which dominate the
// squared-error sums).
const DefaultAtomicCap = 48

// trivialAtomic is the single σ=1 predicate used for structure-only
// nodes; with it the Δ metric degenerates to a TreeSketch-style squared
// distance between structural centroids.
var trivialAtomic = vsum.Atomic{}

// evalCache holds caches shared across the Δ evaluations of one build.
// Everything cached is derived from immutable summaries, so entries
// never go stale; the cache simply dies with the build. It is a
// sync.Map because candidate evaluations fan out over a worker pool —
// a racing duplicate computation stores the identical value, so the
// cache cannot introduce nondeterminism.
type evalCache struct {
	// atomics memoizes Summary.Atomics(cap) per summary: the
	// enumeration (a full PST walk plus a sort, for strings) otherwise
	// reruns for every candidate pair the node participates in. The
	// value carries a membership set so pair unions dedup against it
	// instead of building a fresh hash table per evaluation.
	atomics sync.Map // vsum.Summary -> *atomicsEntry
	// pairs memoizes the selectivity profile of an ordered summary
	// pair. A candidate re-evaluated after neighborhood churn has the
	// same two summaries (merge-phase summaries are immutable; churn
	// changes edges, not values), so its entire profile — atomic union
	// plus the σ_p(u), σ_p(v), σ_p(w) walks — is served from cache and
	// the re-evaluation reduces to edge arithmetic.
	pairs sync.Map // sumPair -> *pairSels
	// stored bounds the pairs map: past pairCacheMax entries, fresh
	// profiles are computed without being retained (values are
	// identical either way, so the bound cannot change a build).
	stored int64
}

// pairCacheMax bounds evalCache.pairs (profiles are a few KB each).
const pairCacheMax = 1 << 17

// sumPair is the pairs key; summaries are pointer-identified.
type sumPair struct{ a, b vsum.Summary }

// pairSels is the selectivity profile of one ordered summary pair:
// the atomic-predicate union and, aligned with it, the selectivities
// of the first summary, the second, and their fusion.
type pairSels struct {
	atomics    []vsum.Atomic
	su, sv, sw []float64
}

// pairSelsOf returns the profile of (a, b), cached.
func (ec *evalCache) pairSelsOf(a, b vsum.Summary, cap int) *pairSels {
	k := sumPair{a: a, b: b}
	if v, ok := ec.pairs.Load(k); ok {
		return v.(*pairSels)
	}
	ps := computePairSels(a, b, cap, ec)
	if atomic.AddInt64(&ec.stored, 1) <= pairCacheMax {
		ec.pairs.Store(k, ps)
	}
	return ps
}

// computePairSels evaluates the selectivity profile of (a, b). With a
// cache, summaries implementing vsum.FusedSeler answer the fused
// selectivities without materializing the fusion — bit-for-bit neutral
// by that interface's contract.
func computePairSels(a, b vsum.Summary, cap int, ec *evalCache) *pairSels {
	atomics := atomicsFor(a, b, cap, ec)
	ps := &pairSels{
		atomics: atomics,
		su:      make([]float64, len(atomics)),
		sv:      make([]float64, len(atomics)),
		sw:      make([]float64, len(atomics)),
	}
	var wsum vsum.Summary
	var fused vsum.FusedSeler
	if a != nil {
		if ec != nil {
			fused, _ = a.(vsum.FusedSeler)
		}
		if fused == nil {
			wsum = a.Fuse(b)
		}
	}
	for i, p := range atomics {
		ps.su[i] = atomicSel(a, p)
		ps.sv[i] = atomicSel(b, p)
		if fused != nil {
			ps.sw[i] = fused.FuseAtomicSel(b, p)
		} else {
			ps.sw[i] = atomicSel(wsum, p)
		}
	}
	return ps
}

// atomicsEntry is one cached enumeration: the ordered atomics of a
// summary plus their membership set (both immutable once stored).
type atomicsEntry struct {
	list []vsum.Atomic
	set  map[vsum.Atomic]struct{}
}

// atomicsOf returns s's cached enumeration. The cap is fixed per build,
// so it is not part of the key.
func (ec *evalCache) atomicsOf(s vsum.Summary, cap int) *atomicsEntry {
	if v, ok := ec.atomics.Load(s); ok {
		return v.(*atomicsEntry)
	}
	list := s.Atomics(cap)
	set := make(map[vsum.Atomic]struct{}, len(list))
	for _, at := range list {
		set[at] = struct{}{}
	}
	e := &atomicsEntry{list: list, set: set}
	ec.atomics.Store(s, e)
	return e
}

// atomicsFor returns the union of atomic predicates of two summaries
// (either may be nil): a's atomics in order, then b's not already in
// a's. ec, when non-nil, serves the per-summary enumerations — and
// their membership sets — from cache, so no per-pair hash table is
// built. Summary.Atomics returns internally distinct predicates, so
// deduplication against a's set alone yields the same union as the
// uncached path.
func atomicsFor(a, b vsum.Summary, cap int, ec *evalCache) []vsum.Atomic {
	if a == nil && b == nil {
		return []vsum.Atomic{trivialAtomic}
	}
	if ec != nil {
		var la []vsum.Atomic
		var setA map[vsum.Atomic]struct{}
		if a != nil {
			ea := ec.atomicsOf(a, cap)
			la, setA = ea.list, ea.set
		}
		if b == nil {
			return la
		}
		lb := ec.atomicsOf(b, cap).list
		out := make([]vsum.Atomic, len(la), len(la)+len(lb))
		copy(out, la)
		for _, at := range lb {
			if _, dup := setA[at]; !dup {
				out = append(out, at)
			}
		}
		return out
	}
	seen := make(map[vsum.Atomic]struct{})
	var out []vsum.Atomic
	add := func(s vsum.Summary) {
		if s == nil {
			return
		}
		for _, at := range s.Atomics(cap) {
			if _, dup := seen[at]; !dup {
				seen[at] = struct{}{}
				out = append(out, at)
			}
		}
	}
	add(a)
	add(b)
	return out
}

// atomicSel returns σ_p(u) for an atomic predicate against a (possibly
// nil) summary; the trivial predicate has selectivity 1.
func atomicSel(s vsum.Summary, a vsum.Atomic) float64 {
	if s == nil {
		return 1
	}
	return s.AtomicSel(a)
}

// edgeCountsTo returns, for node x, the average child count toward the
// remapped target t: count(x, t) plus any counts toward u/v when t is the
// merge placeholder.
func edgeCountsTo(x *Node, t NodeID, uid, vid, placeholder NodeID) float64 {
	if t == placeholder {
		return x.Children[uid] + x.Children[vid]
	}
	return x.Children[t]
}

// placeholderID marks the would-be merged node in Δ computations.
const placeholderID NodeID = -1

// MergeDelta computes the clustering-error increase Δ(S, merge(S,u,v)) of
// Section 4.1:
//
//	Δ = |u| Σ_p Σ_c (e_S(u,p,c) − e_S′(w,p,c))²
//	  + |v| Σ_p Σ_c (e_S(v,p,c) − e_S′(w,p,c))²
//
// with e(x,p,c) = σ_p(x)·count(x,c), atomic predicates p drawn from the
// two value summaries (or the trivial predicate for structure-only
// nodes), and c ranging over the merged child-target set. Leaf clusters
// use a single virtual unit child so that value differences still
// register (the atomic query u[p] itself). It also returns the structural
// bytes the merge would save.
func (s *Synopsis) MergeDelta(uid, vid NodeID, atomicCap int) (delta float64, structSaved int, err error) {
	return s.mergeDeltaCached(uid, vid, atomicCap, nil)
}

// mergeDeltaCached is MergeDelta with an optional evaluation cache
// (nil behaves exactly like the plain form). With a cache, per-summary
// atomic enumerations are memoized, and summaries implementing
// vsum.FusedSeler answer the merged-summary selectivities without
// materializing the fusion; both are bit-for-bit neutral.
func (s *Synopsis) mergeDeltaCached(uid, vid NodeID, atomicCap int, ec *evalCache) (delta float64, structSaved int, err error) {
	u, v := s.nodes[uid], s.nodes[vid]
	if u == nil || v == nil {
		return 0, 0, fmt.Errorf("core: MergeDelta(%d,%d): node gone", uid, vid)
	}
	if !Compatible(u, v) {
		return 0, 0, fmt.Errorf("core: MergeDelta(%d,%d): incompatible", uid, vid)
	}
	children := mergedChildren(u, v, placeholderID)

	var ps *pairSels
	if ec != nil {
		ps = ec.pairSelsOf(u.VSum, v.VSum, atomicCap)
	} else {
		ps = computePairSels(u.VSum, v.VSum, atomicCap, nil)
	}

	// Sum in sorted target order: float addition is order-sensitive in
	// the last ULPs, and near-tie candidates must rank identically
	// across runs for deterministic builds.
	targets := make([]int, 0, len(children))
	for t := range children {
		targets = append(targets, int(t))
	}
	sort.Ints(targets)
	for i := range ps.atomics {
		su, sv, sw := ps.su[i], ps.sv[i], ps.sw[i]
		if len(children) == 0 {
			// Virtual unit child: the atomic query u[p] itself.
			du := su - sw
			dv := sv - sw
			delta += u.Count*du*du + v.Count*dv*dv
			continue
		}
		for _, ti := range targets {
			t := NodeID(ti)
			cw := children[t]
			cu := edgeCountsTo(u, t, uid, vid, placeholderID)
			cv := edgeCountsTo(v, t, uid, vid, placeholderID)
			du := su*cu - sw*cw
			dv := sv*cv - sw*cw
			delta += u.Count*du*du + v.Count*dv*dv
		}
	}

	return delta, s.mergeSavings(u, v, len(children)), nil
}

// mergeSavings returns the structural bytes a merge of u and v would
// save: one node disappears and the edges into/out of u and v collapse
// into the merged node's edge set (of size wEdges).
func (s *Synopsis) mergeSavings(u, v *Node, wEdges int) int {
	uid, vid := u.ID, v.ID
	before := len(u.Children) + len(v.Children)
	extParents := 0
	distinctExt := 0
	seen := make(map[NodeID]struct{})
	for _, x := range []*Node{u, v} {
		for p := range x.Parents {
			if p == uid || p == vid {
				continue
			}
			if _, dup := seen[p]; dup {
				continue
			}
			seen[p] = struct{}{}
			distinctExt++
			parent := s.nodes[p]
			if _, ok := parent.Children[uid]; ok {
				extParents++
			}
			if _, ok := parent.Children[vid]; ok {
				extParents++
			}
		}
	}
	after := wEdges + distinctExt
	return NodeBytes + (before+extParents-after)*EdgeBytes
}

// ---- pair-Δ memoization ----
//
// The merge phase evaluates the same candidate pairs over and over: the
// pool is rebuilt from scratch at every level step and every replenish,
// yet a merge changes the Δ of only the pairs touching the merged
// node's neighborhood. The memo table below caches Δ evaluations and
// invalidates them incrementally instead of recomputing the frontier.
//
// Invalidation rule. Δ(u, v) splits into two terms with different
// dependency sets:
//
//   - the clustering-error term depends on u's and v's Count, Children
//     and VSum (the centroid and selectivity sums) — the "centroid
//     state" of the two endpoints;
//   - the structural savings depend additionally on u's and v's Parents
//     and on the parents' Children entries toward u and v.
//
// A merge of (x, y) into w perturbs that state for three disjoint node
// sets: w itself (new node), the parents of w (their Children changed
// from x/y to w — centroid state), and the children of w (only their
// Parents changed — savings state, their centroid state is untouched).
// The builder therefore keeps two version counters per node: ver bumps
// for any Δ-relevant change, cver only for centroid changes (w and the
// parents of w). A memo entry is fully valid while both endpoints' ver
// stamps match; if only the cver stamps match, the cached error term is
// still exact and just the integer savings — no summary work — are
// recomputed. Pairs whose endpoint died are caught by the liveness
// check (a consumed node's versions are never bumped again), and
// infeasibility (incompatible labels/types) is permanent for live
// nodes, so it is remembered without any stamp.

// pairKey identifies an ordered candidate pair. Orientation matters:
// Merge(u, v) and Merge(v, u) accumulate their float sums in different
// orders and may differ in the last ULPs, so (u, v) and (v, u) are
// distinct memo entries — collapsing them would break bit-for-bit
// reproducibility against the unmemoized build.
type pairKey struct{ u, v NodeID }

// memoEntry caches one Δ evaluation with the version stamps of both
// endpoints at evaluation time. feasible is false when the pair cannot
// merge (incompatible nodes).
type memoEntry struct {
	delta        float64
	saved        int
	verU, verV   int // full stamps: entry exact while both match
	cverU, cverV int // centroid stamps: delta exact while both match
	feasible     bool
}

// memoLookup returns the cached candidate for (u, v) if a valid entry
// exists, recomputing just the structural savings when only the
// parent-side state moved. The second return reports whether the
// lookup was conclusive: (nil, true) means the pair is known
// infeasible, (nil, false) means the caller must evaluate it afresh.
func (b *builder) memoLookup(u, v NodeID) (*mergeCand, bool) {
	e, ok := b.memo[pairKey{u, v}]
	if !ok {
		return nil, false
	}
	un, vn := b.s.nodes[u], b.s.nodes[v]
	if un == nil || vn == nil {
		// A dead endpoint can never merge again; its versions are
		// frozen, so the stamp checks alone must not validate the entry.
		b.stats.MemoHits++
		return nil, true
	}
	if !e.feasible {
		// Compatibility is a function of immutable node attributes:
		// once infeasible for live nodes, infeasible forever.
		b.stats.MemoHits++
		return nil, true
	}
	if e.verU != b.ver[u] || e.verV != b.ver[v] {
		if e.cverU != b.cver[u] || e.cverV != b.cver[v] {
			return nil, false
		}
		// Centroid state intact: the error term is still exact, only
		// the structural savings may have moved (an endpoint's parent
		// set changed). Recompute them without touching any summary.
		children := mergedChildren(un, vn, placeholderID)
		saved := b.s.mergeSavings(un, vn, len(children))
		if saved < 1 {
			saved = 1
		}
		e.saved = saved
		e.verU, e.verV = b.ver[u], b.ver[v]
		b.memo[pairKey{u, v}] = e
		b.stats.MemoPartialHits++
	} else {
		b.stats.MemoHits++
	}
	return &mergeCand{
		u: u, v: v, delta: e.delta, saved: e.saved,
		marginal: e.delta / float64(e.saved),
		mass:     un.Count + vn.Count,
		verU:     e.verU, verV: e.verV,
	}, true
}

// memoStore records the outcome of evaluating (u, v) under the current
// version stamps. c == nil records infeasibility.
func (b *builder) memoStore(u, v NodeID, c *mergeCand) {
	e := memoEntry{
		verU: b.ver[u], verV: b.ver[v],
		cverU: b.cver[u], cverV: b.cver[v],
	}
	if c != nil {
		e.feasible = true
		e.delta = c.delta
		e.saved = c.saved
	}
	b.memo[pairKey{u, v}] = e
}

// memoSweep drops entries whose endpoints died, bounding the table to
// pairs that can still come up. It only bothers once the table clearly
// outgrew the live pair population.
func (b *builder) memoSweep() {
	if b.memo == nil || len(b.memo) <= 8*pairWindow*len(b.s.nodes) {
		return
	}
	for k := range b.memo {
		if b.s.nodes[k.u] == nil || b.s.nodes[k.v] == nil {
			delete(b.memo, k)
		}
	}
}

// CompressDelta computes the clustering-error increase of replacing
// vsumm(u) with the compressed summary cs: the first summand of the Δ
// formula with w = u (the structure is unchanged, only σ_p moves).
func (s *Synopsis) CompressDelta(uid NodeID, cs vsum.Summary, atomicCap int) (float64, error) {
	u := s.nodes[uid]
	if u == nil {
		return 0, fmt.Errorf("core: CompressDelta(%d): node gone", uid)
	}
	if u.VSum == nil {
		return 0, fmt.Errorf("core: CompressDelta(%d): no value summary", uid)
	}
	atomics := u.VSum.Atomics(atomicCap)
	// Sorted edge order for run-to-run reproducible float sums.
	avgs := make([]float64, 0, len(u.Children))
	targets := make([]int, 0, len(u.Children))
	for t := range u.Children {
		targets = append(targets, int(t))
	}
	sort.Ints(targets)
	for _, t := range targets {
		avgs = append(avgs, u.Children[NodeID(t)])
	}
	delta := 0.0
	for _, p := range atomics {
		d := u.VSum.AtomicSel(p) - cs.AtomicSel(p)
		if len(avgs) == 0 {
			delta += u.Count * d * d
			continue
		}
		for _, c := range avgs {
			e := d * c
			delta += u.Count * e * e
		}
	}
	return delta, nil
}
