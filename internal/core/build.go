package core

import (
	"cmp"
	"container/heap"
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"xcluster/internal/vsum"
	"xcluster/internal/xmltree"
)

// BuildOptions configure XClusterBuild.
type BuildOptions struct {
	// StructBudget is Bstr: the byte budget for nodes, edges and edge
	// counts.
	StructBudget int
	// ValueBudget is Bval: the byte budget for value summaries.
	ValueBudget int
	// Hm caps the candidate-merge pool; Hl is the replenish threshold
	// (the paper uses 10000 / 5000).
	Hm, Hl int
	// NoLevelHeuristic disables the bottom-up level stratification of
	// build_pool, admitting candidates from every level immediately
	// (ablation of the Figure 6 heuristic).
	NoLevelHeuristic bool
	// RandomMerges replaces the marginal-loss candidate selection with
	// uniformly random compatible merges (ablation of the Δ metric);
	// RandomSeed drives the choice.
	RandomMerges bool
	// RandomSeed seeds RandomMerges.
	RandomSeed int64
	// Workers caps the goroutines evaluating candidate Δs (0 means
	// GOMAXPROCS, 1 is fully serial; negative is rejected). The worker
	// count never changes the result: candidate evaluations are pure,
	// order is restored before ranking, and the pool's strict total
	// order (marginal loss, then mass, then (u, v)) makes the merge
	// sequence identical at any parallelism.
	Workers int
	// noEvalCache disables the evaluation and signature caches,
	// recomputing every candidate from scratch: the uncached build, kept
	// as the oracle the package's differential tests compare against.
	noEvalCache bool
	// Progress, when non-nil, receives periodic BuildProgress snapshots
	// from the build goroutine (synchronously; keep the callback cheap).
	Progress func(BuildProgress)
	// Stats, when non-nil, is filled with the build's BuildStats when
	// XClusterBuildContext returns successfully.
	Stats *BuildStats
	// Metrics, when non-nil, receives per-phase build wall times
	// (MetricBuildPhaseSeconds with phase="merge"/"value") and the
	// BuildStats counters (MetricBuildPairsTotal, MetricBuildMergesTotal)
	// from XClusterBuildContext.
	Metrics MetricSink
	// GlobalMetric replaces the paper's localized Δ with the
	// TreeSketch-style global clustering metric: the increase in
	// squared structural-centroid distance between the reference
	// partition and the current clustering. It requires keeping the
	// reference synopsis and a member index in memory throughout the
	// build — exactly the overhead Section 4.1 argues the localized
	// metric avoids — and ignores value distributions. For ablation use.
	GlobalMetric bool
}

// pairWindow bounds, within a sorted candidate group, how far apart two
// nodes may sit to be proposed as a merge pair. This keeps candidate
// generation near-linear in group size; the pool cap Hm provides the
// same guarantee in the paper.
const pairWindow = 8

func (o BuildOptions) withDefaults() BuildOptions {
	if o.Hm == 0 {
		o.Hm = 10000
	}
	if o.Hl == 0 {
		o.Hl = o.Hm / 2
	}
	if o.Workers == 0 {
		o.Workers = runtime.GOMAXPROCS(0)
	}
	return o
}

// BuildStats summarizes the work one XClusterBuild performed. Retrieve
// it via BuildOptions.Stats.
type BuildStats struct {
	// Workers is the resolved Δ-evaluation worker count.
	Workers int `json:"workers"`
	// Merges is the number of node merges applied.
	Merges int64 `json:"merges"`
	// PairsEvaluated counts candidate Δ evaluations.
	PairsEvaluated int64 `json:"pairs_evaluated"`
	// Deprecated: always zero; the pair-Δ memo is gone. bench/ still reads it.
	MemoHits int64 `json:"memo_hits"`
	// Deprecated: always zero; the pair-Δ memo is gone. bench/ still reads it.
	MemoPartialHits int64 `json:"memo_partial_hits"`
	// PoolBuilds counts candidate-pool (re)constructions.
	PoolBuilds int64 `json:"pool_builds"`
	// MergeSeconds and ValueSeconds are the per-phase wall times.
	MergeSeconds float64 `json:"merge_seconds"`
	ValueSeconds float64 `json:"value_seconds"`
}

// MemoHitRate returns 0.
//
// Deprecated: always zero; the pair-Δ memo is gone. bench/ still reads it.
func (s BuildStats) MemoHitRate() float64 { return 0 }

// BuildProgress is a point-in-time snapshot of a running build,
// delivered to BuildOptions.Progress from the build goroutine.
type BuildProgress struct {
	// Phase is "merge" or "value".
	Phase string `json:"phase"`
	// StructBytes/ValueBytes are the current sizes; the budgets are the
	// targets the phase is compressing toward.
	StructBytes  int `json:"struct_bytes"`
	StructBudget int `json:"struct_budget"`
	ValueBytes   int `json:"value_bytes"`
	ValueBudget  int `json:"value_budget"`
	// Merges and PairsEvaluated mirror BuildStats so far.
	Merges         int64 `json:"merges"`
	PairsEvaluated int64 `json:"pairs_evaluated"`
	// Elapsed is the wall time since the build started.
	Elapsed time.Duration `json:"elapsed"`
}

// XClusterBuild runs the paper's two-phase construction (Figure 5) on a
// reference synopsis: a structure-value merge phase compresses the graph
// within StructBudget by applying minimum-marginal-loss node merges from
// a bounded, level-stratified candidate pool; a value-summary compression
// phase then compresses the per-node value summaries within ValueBudget.
// The reference synopsis is not modified.
func XClusterBuild(ref *Synopsis, opts BuildOptions) (*Synopsis, error) {
	return XClusterBuildContext(context.Background(), ref, opts)
}

// XClusterBuildContext is XClusterBuild with cancellation: the merge
// phase checks ctx at every pool (re)build and periodically while
// draining it, and the value phase checks between compression steps, so
// huge builds abort within a bounded amount of work of ctx ending. The
// error is ctx.Err() when cancellation caused the abort.
func XClusterBuildContext(ctx context.Context, ref *Synopsis, opts BuildOptions) (*Synopsis, error) {
	syns, err := build(ctx, ref, []int{opts.StructBudget}, opts.ValueBudget, opts)
	if err != nil {
		return nil, err
	}
	return syns[0], nil
}

// XClusterSweep builds synopses for several structural budgets in one
// pass, under any policy (the default, NoLevelHeuristic, GlobalMetric
// or seeded RandomMerges). Greedy merging does not depend on the budget
// (a smaller budget's merge sequence is a prefix extension of a larger
// one's), so the merge phase runs once toward the smallest budget; see
// build. The result matches XClusterBuild at every budget, fingerprint
// included (budgets and static provenance; the clock fields count from
// the sweep's start), while paying for one merge phase instead of
// len(budgets). Results are returned in the order of structBudgets;
// Stats and Metrics report the sweep as one build, and only the merge
// phase reports Progress.
func XClusterSweep(ref *Synopsis, structBudgets []int, valueBudget int, opts BuildOptions) ([]*Synopsis, error) {
	return build(context.Background(), ref, structBudgets, valueBudget, opts)
}

// build is the one construction driver. It clones ref once and runs
// the merge phase under the policy opts selects toward the smallest of
// structBudgets, snapshotting the synopsis as the phase crosses each
// larger budget; the state the phase ends in is the smallest budget's,
// and budgets it never reached share that state. Every synopsis then
// gets its own value phase, fanned out over opts.Workers, and its build
// stamp. Results follow the order of structBudgets; a repeated budget
// shares one synopsis.
func build(ctx context.Context, ref *Synopsis, structBudgets []int, valueBudget int, opts BuildOptions) ([]*Synopsis, error) {
	if opts.Workers < 0 {
		return nil, fmt.Errorf("core: build workers must be non-negative (0 = GOMAXPROCS), got %d", opts.Workers)
	}
	if len(structBudgets) == 0 {
		return nil, fmt.Errorf("core: build needs at least one structural budget")
	}
	opts = opts.withDefaults()
	buildStart := time.Now()
	// Distinct budgets, descending: syns[i] is budgets[i]'s synopsis.
	budgets := slices.Clone(structBudgets)
	slices.SortFunc(budgets, func(x, y int) int { return cmp.Compare(y, x) })
	budgets = slices.Compact(budgets)
	last := len(budgets) - 1
	opts.StructBudget, opts.ValueBudget = budgets[last], valueBudget
	b := newBuilder(ctx, ref.Clone(), opts)
	if opts.GlobalMetric {
		b.ref, b.refKids = ref, buildKidIndex(ref)
		b.members = make(map[NodeID][]NodeID, len(ref.nodes))
		b.refToCur = make(map[NodeID]NodeID, len(ref.nodes))
		for id := range ref.nodes {
			b.members[id] = []NodeID{id}
			b.refToCur[id] = id
		}
	}
	b.pending = budgets[:last]
	b.snaps = make([]*Synopsis, 0, len(budgets))
	b.snapshotDue()
	phaseStart := time.Now()
	var err error
	if opts.RandomMerges {
		err = b.randomMergePhase()
	} else {
		err = b.mergePhase()
	}
	if err != nil {
		return nil, err
	}
	for range b.pending {
		b.snaps = append(b.snaps, b.s.Clone())
	}
	syns := append(b.snaps, b.s)
	b.stats.MergeSeconds = time.Since(phaseStart).Seconds()
	if opts.Metrics != nil {
		opts.Metrics.Observe(MetricBuildPhaseSeconds, `phase="merge"`, b.stats.MergeSeconds)
	}

	// The value phases are independent: the smallest budget's runs on the
	// builder's own synopsis, each snapshot's on a builder of its own.
	// Concurrent value phases report no progress.
	phaseStart = time.Now()
	if last > 0 {
		b.opts.Progress = nil
	}
	errs := make([]error, len(syns))
	fanOut(len(syns), opts.Workers, func(i int) {
		vb := b
		if i < last {
			vb = &builder{s: syns[i], opts: b.opts, ctx: ctx}
		}
		errs[i] = vb.valuePhase()
		syns[i].stampBuild(budgets[i], valueBudget, buildStart)
	})
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	b.stats.ValueSeconds = time.Since(phaseStart).Seconds()
	if opts.Metrics != nil {
		opts.Metrics.Observe(MetricBuildPhaseSeconds, `phase="value"`, b.stats.ValueSeconds)
		opts.Metrics.Add(MetricBuildMergesTotal, "", float64(b.stats.Merges))
		opts.Metrics.Add(MetricBuildPairsTotal, `outcome="computed"`, float64(b.stats.PairsEvaluated))
	}
	if opts.Stats != nil {
		*opts.Stats = b.stats
	}
	out := make([]*Synopsis, len(structBudgets))
	for i, budget := range structBudgets {
		out[i] = syns[slices.Index(budgets, budget)]
	}
	return out, nil
}

// stampBuild records a compression's build identity: the budgets it
// ran under, provenance static, the completion time and the wall time
// since start. The doc hash and option summary arrive via the
// reference's fingerprint (through Clone). Workers and the evaluation
// caches are deliberately absent: they must not affect the output, so
// they are not part of the synopsis identity.
func (s *Synopsis) stampBuild(structBudget, valueBudget int, start time.Time) {
	s.fp.StructBudget, s.fp.ValueBudget = structBudget, valueBudget
	s.fp.Provenance, s.fp.WorkloadFingerprint = ProvenanceStatic, ""
	s.fp.BuiltAtUnix = time.Now().Unix()
	s.fp.BuildNanos = time.Since(start).Nanoseconds()
}

// newBuilder assembles a builder with its incremental indexes. The
// caches serve only the default Δ policy: the global metric never reads
// the evaluation cache, and random merges evaluate no Δ at all.
func newBuilder(ctx context.Context, s *Synopsis, opts BuildOptions) *builder {
	b := &builder{
		s: s, opts: opts, ctx: ctx,
		ver:   make(map[NodeID]int),
		start: time.Now(),
	}
	b.stats.Workers = opts.Workers
	if !opts.noEvalCache && !opts.GlobalMetric && !opts.RandomMerges {
		b.sigs = make(map[NodeID]sigEntry)
		b.evalc = &evalCache{}
	}
	return b
}

// randomMergePhase merges uniformly random compatible pairs until the
// structural budget is met — the no-Δ baseline for ablation runs.
func (b *builder) randomMergePhase() error {
	rng := rand.New(rand.NewSource(b.opts.RandomSeed))
	b.initGroups()
	var mergeable []groupKey
	for b.s.StructBytes() > b.opts.StructBudget {
		mergeable = mergeable[:0]
		for k, ids := range b.groups {
			if len(ids) >= 2 {
				mergeable = append(mergeable, k)
			}
		}
		if len(mergeable) == 0 {
			return nil
		}
		// Order groups by their whole key, so the seeded pick below sees
		// the same list whatever the map's iteration order.
		sort.Slice(mergeable, func(i, j int) bool {
			a, b := mergeable[i], mergeable[j]
			if a.label != b.label {
				return a.label < b.label
			}
			if a.vt != b.vt {
				return a.vt < b.vt
			}
			return !a.hasV && b.hasV
		})
		ids := b.groups[mergeable[rng.Intn(len(mergeable))]]
		i := rng.Intn(len(ids))
		j := rng.Intn(len(ids) - 1)
		if j >= i {
			j++
		}
		if _, err := b.applyMerge(ids[i], ids[j]); err != nil {
			return fmt.Errorf("core: randomMergePhase: %w", err)
		}
	}
	return nil
}

// builder holds the mutable state of one XClusterBuild run.
type builder struct {
	s    *Synopsis
	opts BuildOptions
	// ctx, when non-nil, is polled at phase boundaries so callers can
	// abort long builds.
	ctx context.Context
	// pending lists, descending, the larger budgets of a sweep whose
	// snapshots the merge phase has yet to take; snaps receives them in
	// the same order (see snapshotDue).
	pending []int
	snaps   []*Synopsis
	// ver tracks node adjacency versions so queued candidates whose
	// neighborhoods changed are lazily re-evaluated (the paper recomputes
	// marginal losses in the merged nodes' neighborhood eagerly).
	ver map[NodeID]int
	// sigs caches childSig per node version: the signature only changes
	// when a node's child set does, which always bumps its version.
	sigs map[NodeID]sigEntry
	// evalc caches summary-derived state across Δ evaluations (nil when
	// disabled; see delta.go).
	evalc *evalCache
	// groups indexes live node ids by merge-compatibility group in
	// ascending id order, so follow-up pairing touches one group instead
	// of scanning (and sorting) every node per merge. Group membership
	// is invariant during the merge phase: Merge preserves label, value
	// type and summary presence.
	groups map[groupKey][]NodeID
	// stats accumulates the BuildStats counters.
	stats BuildStats
	// start anchors BuildProgress.Elapsed.
	start time.Time
	// Global-metric state (GlobalMetric only): the reference synopsis,
	// its id-sorted child lists, the reference nodes absorbed by each
	// current cluster, and the inverse map.
	ref      *Synopsis
	refKids  map[NodeID][]weight
	members  map[NodeID][]NodeID
	refToCur map[NodeID]NodeID
}

// sigEntry is one cached childSig, valid while the node's version holds.
type sigEntry struct {
	ver int
	sig string
}

// emitProgress delivers a BuildProgress snapshot, when configured.
// valueBytes < 0 means "compute it here" (it is an O(nodes) walk, only
// worth doing when someone is listening).
func (b *builder) emitProgress(phase string, valueBytes int) {
	if b.opts.Progress == nil {
		return
	}
	if valueBytes < 0 {
		valueBytes = b.s.ValueBytes()
	}
	b.opts.Progress(BuildProgress{
		Phase:          phase,
		StructBytes:    b.s.StructBytes(),
		StructBudget:   b.opts.StructBudget,
		ValueBytes:     valueBytes,
		ValueBudget:    b.opts.ValueBudget,
		Merges:         b.stats.Merges,
		PairsEvaluated: b.stats.PairsEvaluated,
		Elapsed:        time.Since(b.start),
	})
}

// ---- candidate pool ----

type mergeCand struct {
	u, v       NodeID
	delta      float64
	saved      int
	marginal   float64
	mass       float64 // combined extent, the tie spreader
	verU, verV int
}

type candHeap []*mergeCand

func (h candHeap) Len() int { return len(h) }

// Less is a strict total order so the pop sequence — and therefore the
// whole build — is deterministic: marginal loss, then smaller combined
// extent (ties — typically free zero-Δ merges — consume small clusters
// first instead of cascading one group into a giant cluster), then node
// ids.
func (h candHeap) Less(i, j int) bool {
	if h[i].marginal != h[j].marginal {
		return h[i].marginal < h[j].marginal
	}
	if h[i].mass != h[j].mass {
		return h[i].mass < h[j].mass
	}
	if h[i].u != h[j].u {
		return h[i].u < h[j].u
	}
	return h[i].v < h[j].v
}
func (h candHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *candHeap) Push(x any)   { *h = append(*h, x.(*mergeCand)) }
func (h *candHeap) Pop() any {
	old := *h
	n := len(old)
	c := old[n-1]
	*h = old[:n-1]
	return c
}

// evalCands resolves Δ and marginal loss for proposed pairs, dropping
// infeasible ones. Order is preserved. The evaluations are pure and
// read-only, so they fan out over opts.Workers goroutines; slot i of the
// result belongs to pair i regardless of which worker computed it, so
// worker count and scheduling cannot change the candidate ranking.
func (b *builder) evalCands(pairs []pairKey) []*mergeCand {
	cands := make([]*mergeCand, len(pairs))
	fanOut(len(pairs), b.opts.Workers, func(i int) {
		cands[i] = b.computeCand(pairs[i].u, pairs[i].v)
	})
	b.stats.PairsEvaluated += int64(len(pairs))
	return slices.DeleteFunc(cands, func(c *mergeCand) bool { return c == nil })
}

// fanOut runs work(0) … work(n-1) over up to workers goroutines, or on
// the calling goroutine when one suffices, and returns when all are
// done. Calls for distinct i must be independent.
func fanOut(n, workers int, work func(i int)) {
	if workers = min(workers, n); workers <= 1 {
		for i := range n {
			work(i)
		}
		return
	}
	var (
		wg   sync.WaitGroup
		next atomic.Int64
	)
	wg.Add(workers)
	for range workers {
		go func() {
			defer wg.Done()
			for i := int(next.Add(1)) - 1; i < n; i = int(next.Add(1)) - 1 {
				work(i)
			}
		}()
	}
	wg.Wait()
}

// newCand evaluates the merge (u, v) and counts the evaluation,
// returning nil when it cannot be applied. Serial callers only; parallel
// workers go through computeCand and evalCands counts for them.
func (b *builder) newCand(u, v NodeID) *mergeCand {
	c := b.computeCand(u, v)
	b.stats.PairsEvaluated++
	return c
}

// computeCand evaluates the merge (u, v), returning nil when it cannot
// be applied. It is read-only against the builder, so
// concurrent calls are safe.
func (b *builder) computeCand(u, v NodeID) *mergeCand {
	var (
		delta float64
		saved int
		err   error
	)
	if b.opts.GlobalMetric {
		delta, saved, err = b.globalDelta(u, v)
	} else {
		delta, saved, err = b.s.mergeDelta(u, v, DefaultAtomicCap, b.evalc)
	}
	if err != nil {
		return nil
	}
	if saved < 1 {
		saved = 1
	}
	return &mergeCand{
		u: u, v: v, delta: delta, saved: saved,
		marginal: delta / float64(saved),
		mass:     b.s.nodes[u].Count + b.s.nodes[v].Count,
		verU:     b.ver[u], verV: b.ver[v],
	}
}

// refCentroid maps a reference node's structural centroid onto the
// current clustering: for each reference child edge, the average count is
// attributed to the current cluster holding that reference child (u and
// v remapped to the placeholder). Several edges can land on one cluster,
// so they are added in child-id order: float addition order must be
// reproducible for deterministic builds.
func (b *builder) refCentroid(refID, u, v NodeID) map[NodeID]float64 {
	out := make(map[NodeID]float64)
	for _, kw := range b.refKids[refID] {
		t := b.refToCur[kw.id]
		if t == u || t == v {
			t = placeholderID
		}
		out[t] += kw.w
	}
	return out
}

// centroidDist2 returns the squared L2 distance between two sparse
// centroids, summed in id order so that it is reproducible.
func centroidDist2(a, bb map[NodeID]float64) float64 {
	d := 0.0
	for _, x := range sortedWeights(a) {
		diff := x.w - bb[x.id]
		d += diff * diff
	}
	for _, y := range sortedWeights(bb) {
		if _, seen := a[y.id]; !seen {
			d += y.w * y.w
		}
	}
	return d
}

// globalDelta is the TreeSketch-style clustering metric: the increase in
// Σ_r |r| · dist²(centroid(r), centroid(cluster(r))) caused by fusing u
// and v, computed against the reference partition.
func (b *builder) globalDelta(uid, vid NodeID) (float64, int, error) {
	u, v := b.s.nodes[uid], b.s.nodes[vid]
	if u == nil || v == nil {
		return 0, 0, fmt.Errorf("core: globalDelta(%d,%d): node gone", uid, vid)
	}
	if !Compatible(u, v) {
		return 0, 0, fmt.Errorf("core: globalDelta(%d,%d): incompatible", uid, vid)
	}
	wCentroid := mergedChildren(u, v, placeholderID)
	// Current centroids with u/v self-references remapped, so reference
	// centroids are compared in the same coordinate system.
	curCentroid := func(x *Node) map[NodeID]float64 {
		out := make(map[NodeID]float64, len(x.Children))
		for c, avg := range x.Children {
			t := c
			if t == uid || t == vid {
				t = placeholderID
			}
			out[t] += avg
		}
		return out
	}
	cu, cv := curCentroid(u), curCentroid(v)
	delta := 0.0
	for _, x := range []*Node{u, v} {
		cur := cu
		if x == v {
			cur = cv
		}
		for _, r := range b.members[x.ID] {
			rc := b.refCentroid(r, uid, vid)
			w := b.ref.nodes[r].Count
			delta += w * (centroidDist2(rc, wCentroid) - centroidDist2(rc, cur))
		}
	}
	if delta < 0 {
		delta = 0 // numerical noise; the reference distance is a lower bound
	}
	// Structural savings are metric-independent.
	return delta, b.s.mergeSavings(u, v, len(wCentroid)), nil
}

type groupKey struct {
	label string
	vt    xmltree.ValueType
	hasV  bool
}

func nodeGroup(n *Node) groupKey {
	return groupKey{label: n.Label, vt: n.VType, hasV: n.HasValues()}
}

// childSig is a cheap similarity key: nodes pointing to similar child
// sets sort near each other, so the pairWindow pairing proposes the
// merges most likely to have low Δ (the paper's "clusters are similar if
// they point to similar children" intuition).
func childSig(n *Node) string {
	ids := make([]int, 0, len(n.Children))
	for c := range n.Children {
		ids = append(ids, int(c))
	}
	sort.Ints(ids)
	var sb strings.Builder
	for _, id := range ids {
		sb.WriteString(strconv.Itoa(id))
		sb.WriteByte(',')
	}
	return sb.String()
}

// memberSort orders a candidate group by (childSig, Count, ID) — a
// strict total order, so the result is unique — keeping the decorated
// signature slice in lockstep with the nodes.
type memberSort struct {
	members []*Node
	sigs    []string
}

func (m *memberSort) Len() int { return len(m.members) }
func (m *memberSort) Swap(i, j int) {
	m.members[i], m.members[j] = m.members[j], m.members[i]
	m.sigs[i], m.sigs[j] = m.sigs[j], m.sigs[i]
}
func (m *memberSort) Less(i, j int) bool {
	if m.sigs[i] != m.sigs[j] {
		return m.sigs[i] < m.sigs[j]
	}
	if m.members[i].Count != m.members[j].Count {
		return m.members[i].Count < m.members[j].Count
	}
	return m.members[i].ID < m.members[j].ID
}

// nodeSig returns childSig(n), served from the per-version signature
// cache when enabled: a node's signature only changes when its child
// set does, and every child-set change bumps the node's version.
func (b *builder) nodeSig(n *Node) string {
	if b.sigs == nil {
		return childSig(n)
	}
	if e, ok := b.sigs[n.ID]; ok && e.ver == b.ver[n.ID] {
		return e.sig
	}
	sig := childSig(n)
	b.sigs[n.ID] = sigEntry{ver: b.ver[n.ID], sig: sig}
	return sig
}

// buildPool implements build_pool (Figure 6): it proposes merge
// candidates among label/type-compatible nodes at level <= l, keeping the
// pool within Hm by evicting the highest marginal losses.
func (b *builder) buildPool(l int, levels map[NodeID]int) *candHeap {
	b.stats.PoolBuilds++
	groups := make(map[groupKey][]*Node)
	var keys []groupKey
	for _, n := range b.s.Nodes() { // sorted by id: deterministic groups
		if levels[n.ID] <= l {
			k := nodeGroup(n)
			if groups[k] == nil {
				keys = append(keys, k)
			}
			groups[k] = append(groups[k], n)
		}
	}
	var pairs []pairKey
	for _, k := range keys {
		members := groups[k]
		if len(members) < 2 {
			continue
		}
		// Decorate with signatures once per member: recomputing them
		// inside the comparator would cost O(m log m) string builds.
		sigs := make([]string, len(members))
		for i, n := range members {
			sigs[i] = b.nodeSig(n)
		}
		sort.Sort(&memberSort{members: members, sigs: sigs})
		for i := range members {
			for j := i + 1; j <= i+pairWindow && j < len(members); j++ {
				pairs = append(pairs, pairKey{members[i].ID, members[j].ID})
			}
		}
	}
	// Candidate Δ evaluations are independent and read-only against the
	// synopsis, so they run in parallel; the deterministic ordering comes
	// from the sort and the heap's strict total order afterwards.
	cands := b.evalCands(pairs)
	if len(cands) > b.opts.Hm {
		sort.Slice(cands, func(i, j int) bool {
			if cands[i].marginal != cands[j].marginal {
				return cands[i].marginal < cands[j].marginal
			}
			if cands[i].u != cands[j].u {
				return cands[i].u < cands[j].u
			}
			return cands[i].v < cands[j].v
		})
		cands = cands[:b.opts.Hm]
	}
	h := candHeap(cands)
	heap.Init(&h)
	return &h
}

// ---- phase 1: structure-value merge ----

// cancelled returns the builder context's error, if any.
func (b *builder) cancelled() error {
	if b.ctx == nil {
		return nil
	}
	return b.ctx.Err()
}

func (b *builder) mergePhase() error {
	opts := b.opts
	b.initGroups()
	defer b.emitProgress("merge", -1)
	l := 1
	for b.s.StructBytes() > opts.StructBudget {
		if err := b.cancelled(); err != nil {
			return err
		}
		levels := b.s.Levels()
		maxLvl := 0
		for _, lv := range levels {
			if lv > maxLvl && lv < int(^uint(0)>>1) {
				maxLvl = lv
			}
		}
		if opts.NoLevelHeuristic || l > maxLvl+1 {
			l = maxLvl + 1
		}
		// Grow the pool level by level until it holds more than Hl
		// candidates (or every level is admitted): low-level merges must
		// compete with higher-level ones on marginal loss rather than
		// being exhausted first.
		pool := b.buildPool(l, levels)
		for pool.Len() <= opts.Hl && l <= maxLvl {
			l++
			pool = b.buildPool(l, levels)
		}
		if pool.Len() == 0 {
			return nil // nothing left to merge; budget unreachable
		}
		// Drain down to Hl, then replenish; once every level is in the
		// pool, drain fully.
		stopAt := opts.Hl
		if l > maxLvl {
			stopAt = 0
		}
		merged := 0
		maxNewLevel := 0
		for pops := 0; pool.Len() > stopAt && b.s.StructBytes() > opts.StructBudget; pops++ {
			if pops%256 == 0 {
				if err := b.cancelled(); err != nil {
					return err
				}
				if pops%1024 == 0 {
					b.emitProgress("merge", -1)
				}
			}
			c := heap.Pop(pool).(*mergeCand)
			u, v := b.s.nodes[c.u], b.s.nodes[c.v]
			if u == nil || v == nil {
				continue // consumed by an earlier merge
			}
			if b.ver[c.u] != c.verU || b.ver[c.v] != c.verV {
				// Neighborhood changed: recompute the marginal loss.
				if fresh := b.newCand(c.u, c.v); fresh != nil {
					heap.Push(pool, fresh)
				}
				continue
			}
			w, err := b.applyMerge(c.u, c.v)
			if err != nil {
				return fmt.Errorf("core: mergePhase: %w", err)
			}
			merged++
			if lw := min(levels[c.u], levels[c.v]); lw > maxNewLevel {
				maxNewLevel = lw
			}
			// Propose follow-up merges pairing w within its group.
			b.pairNew(w, pool, l, levels)
		}
		if b.s.StructBytes() <= opts.StructBudget {
			return nil
		}
		if merged == 0 {
			return nil // pool drained with nothing applicable
		}
		if next := maxNewLevel + 1; next > l {
			l = next
		}
	}
	return nil
}

// applyMerge performs the merge (u, v) and maintains the builder's
// incremental state: version stamps, the group index, global-metric membership, stats and
// the sweep snapshot hook. Every merge the builder applies must go
// through here.
func (b *builder) applyMerge(u, v NodeID) (*Node, error) {
	w, err := b.s.Merge(u, v)
	if err != nil {
		return nil, err
	}
	if b.opts.GlobalMetric {
		b.members[w.ID] = append(b.members[u], b.members[v]...)
		for _, r := range b.members[w.ID] {
			b.refToCur[r] = w.ID
		}
		delete(b.members, u)
		delete(b.members, v)
	}
	b.stats.Merges++
	b.touchNeighborhood(w)
	b.groupsOnMerge(u, v, w)
	if len(b.pending) > 0 {
		b.snapshotDue()
	}
	return w, nil
}

// snapshotDue clones the synopsis for every pending sweep budget it now
// fits. A build with that budget would stop here, so the clone is its
// merge phase's result.
func (b *builder) snapshotDue() {
	for len(b.pending) > 0 && b.s.StructBytes() <= b.pending[0] {
		b.snaps = append(b.snaps, b.s.Clone())
		b.pending = b.pending[1:]
	}
}

// touchNeighborhood bumps the versions of a freshly merged node and its
// neighbors so queued candidates referencing them are re-evaluated: the
// bumps cover every node whose Δ inputs the merge could have changed —
// w itself, its children (their Parents moved) and its parents (their
// Children moved).
func (b *builder) touchNeighborhood(w *Node) {
	b.ver[w.ID]++
	for c := range w.Children {
		b.ver[c]++
	}
	for p := range w.Parents {
		b.ver[p]++
	}
}

// initGroups builds the merge-compatibility group index: live node ids
// per group, ascending.
func (b *builder) initGroups() {
	b.groups = make(map[groupKey][]NodeID)
	for _, n := range b.s.Nodes() { // sorted by id: ascending members
		k := nodeGroup(n)
		b.groups[k] = append(b.groups[k], n.ID)
	}
}

// groupsOnMerge replaces u and v with w in their (shared) group. Merged
// ids are fresh maxima, so appending w keeps the slice ascending.
func (b *builder) groupsOnMerge(u, v NodeID, w *Node) {
	if b.groups == nil {
		return
	}
	k := nodeGroup(w)
	ids := b.groups[k]
	out := ids[:0]
	for _, id := range ids {
		if id != u && id != v {
			out = append(out, id)
		}
	}
	b.groups[k] = append(out, w.ID)
}

// pairNew proposes up to pairWindow merges pairing the new node w with
// other members of its group at the current level bound. The group
// index yields the same candidates, in the same ascending-id order, as
// the full node scan it replaced — without sorting every live node on
// every merge.
func (b *builder) pairNew(w *Node, pool *candHeap, l int, levels map[NodeID]int) {
	added := 0
	for _, id := range b.groups[nodeGroup(w)] {
		if id == w.ID {
			continue
		}
		if lv, ok := levels[id]; ok && lv > l {
			continue
		}
		if c := b.newCand(w.ID, id); c != nil {
			heap.Push(pool, c)
			added++
			if added >= pairWindow {
				return
			}
		}
	}
}

// ---- phase 2: value-summary compression ----

type valCand struct {
	u        NodeID
	base     vsum.Summary // summary the candidate was computed against
	next     vsum.Summary
	delta    float64
	saved    int
	marginal float64
}

type valHeap []*valCand

func (h valHeap) Len() int { return len(h) }

// Less is a strict total order (marginal loss, then node id) for
// deterministic compression sequences.
func (h valHeap) Less(i, j int) bool {
	if h[i].marginal != h[j].marginal {
		return h[i].marginal < h[j].marginal
	}
	return h[i].u < h[j].u
}
func (h valHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *valHeap) Push(x any)   { *h = append(*h, x.(*valCand)) }
func (h *valHeap) Pop() any {
	old := *h
	n := len(old)
	c := old[n-1]
	*h = old[:n-1]
	return c
}

// compressStep picks the b parameter for the next value-compression
// candidate: an excess-proportional adaptive value (large early steps,
// b=1 near the budget).
func compressStep(excess int) int {
	step := excess / 2048
	if step < 1 {
		return 1
	}
	if step > 256 {
		return 256
	}
	return step
}

// newValCand evaluates one compression op for node u, or nil when the
// summary cannot shrink further.
func (b *builder) newValCand(u *Node, excess int) *valCand {
	if u.VSum == nil {
		return nil
	}
	next, saved, steps := u.VSum.Compress(compressStep(excess))
	if steps == 0 {
		return nil
	}
	delta, err := b.s.CompressDelta(u.ID, next, DefaultAtomicCap)
	if err != nil {
		return nil
	}
	if saved < 1 {
		saved = 1
	}
	return &valCand{
		u: u.ID, base: u.VSum, next: next,
		delta: delta, saved: saved, marginal: delta / float64(saved),
	}
}

// valuePhase compresses value summaries within ValueBudget (the
// paper's Figure 5 value phase): one minimum-marginal-loss pass over
// every summary, stopping when their combined charge fits the budget
// or no summary can shrink further. The marginal loss per saved byte
// already divides the value budget across summary kinds.
func (b *builder) valuePhase() error {
	budget := b.opts.ValueBudget
	cur := b.s.ValueBytes()
	if cur <= budget {
		return nil
	}
	defer func() { b.emitProgress("value", b.s.ValueBytes()) }()
	var h valHeap
	for _, n := range b.s.Nodes() {
		if n.VSum == nil {
			continue
		}
		if c := b.newValCand(n, cur-budget); c != nil {
			h = append(h, c)
		}
	}
	heap.Init(&h)
	for pops := 0; cur > budget && h.Len() > 0; pops++ {
		if pops%256 == 0 {
			if err := b.cancelled(); err != nil {
				return err
			}
			if pops%1024 == 0 {
				b.emitProgress("value", cur)
			}
		}
		c := heap.Pop(&h).(*valCand)
		n := b.s.nodes[c.u]
		if n == nil || n.VSum != c.base {
			// Stale candidate (summary already replaced); re-evaluate.
			if n != nil {
				if fresh := b.newValCand(n, cur-budget); fresh != nil {
					heap.Push(&h, fresh)
				}
			}
			continue
		}
		n.VSum = c.next
		cur -= c.saved
		if fresh := b.newValCand(n, cur-budget); fresh != nil {
			heap.Push(&h, fresh)
		}
	}
	return nil
}
