package core

import (
	"container/heap"
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
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
	// Plan, when non-nil, supplies the budgets as a first-class
	// BudgetPlan: StructBudget/ValueBudget are taken from the plan
	// (setting them alongside a disagreeing plan is an error), a
	// non-zero value split directs the per-kind value phase, and the
	// plan (provenance, workload fingerprint, split) is stamped into
	// the build fingerprint. A nil Plan synthesizes a static plan from
	// the two ints — the exact legacy code path, bit for bit.
	Plan *BudgetPlan
	// Hm caps the candidate-merge pool; Hl is the replenish threshold
	// (the paper uses 10000 / 5000).
	Hm, Hl int
	// AtomicCap bounds atomic predicates per summary in Δ evaluations
	// (DefaultAtomicCap when 0).
	AtomicCap int
	// PairWindow bounds, within a sorted candidate group, how far apart
	// two nodes may sit to be proposed as a merge pair. This keeps
	// candidate generation near-linear in group size; the pool cap Hm
	// provides the same guarantee in the paper.
	PairWindow int
	// CompressStep is the b parameter of the value-compression
	// operations; 0 picks it adaptively from the remaining excess.
	CompressStep int
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
	// noDeltaMemo disables the pair-Δ memo table, recomputing every
	// candidate from scratch: the serial unmemoized build, kept as the
	// oracle the package's differential tests compare the memo against.
	noDeltaMemo bool
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

func (o BuildOptions) withDefaults() BuildOptions {
	if o.Hm == 0 {
		o.Hm = 10000
	}
	if o.Hl == 0 {
		o.Hl = o.Hm / 2
	}
	if o.AtomicCap == 0 {
		o.AtomicCap = DefaultAtomicCap
	}
	if o.PairWindow == 0 {
		o.PairWindow = 8
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
	// PairsEvaluated counts full Δ evaluations (memo misses included).
	PairsEvaluated int64 `json:"pairs_evaluated"`
	// MemoHits counts candidate lookups answered from the pair-Δ memo
	// table instead of a fresh evaluation.
	MemoHits int64 `json:"memo_hits"`
	// MemoPartialHits counts lookups where the cached clustering-error
	// term was reused and only the integer structural savings were
	// recomputed (an endpoint's parent set changed, its centroid state
	// did not; see delta.go).
	MemoPartialHits int64 `json:"memo_partial_hits"`
	// PoolBuilds counts candidate-pool (re)constructions.
	PoolBuilds int64 `json:"pool_builds"`
	// MergeSeconds and ValueSeconds are the per-phase wall times.
	MergeSeconds float64 `json:"merge_seconds"`
	ValueSeconds float64 `json:"value_seconds"`
}

// MemoHitRate is the fraction of candidate lookups the memo table
// absorbed (0 when the memo is disabled).
func (s BuildStats) MemoHitRate() float64 {
	hits := s.MemoHits + s.MemoPartialHits
	lookups := hits + s.PairsEvaluated
	if lookups == 0 {
		return 0
	}
	return float64(hits) / float64(lookups)
}

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
	// Merges, PairsEvaluated and MemoHits mirror BuildStats so far.
	Merges         int64 `json:"merges"`
	PairsEvaluated int64 `json:"pairs_evaluated"`
	MemoHits       int64 `json:"memo_hits"`
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
	if opts.Workers < 0 {
		return nil, fmt.Errorf("core: build workers must be non-negative (0 = GOMAXPROCS), got %d", opts.Workers)
	}
	plan, err := opts.resolvePlan()
	if err != nil {
		return nil, err
	}
	opts.Plan = &plan
	opts.StructBudget = plan.StructBudget()
	opts.ValueBudget = plan.ValueBudget()
	opts = opts.withDefaults()
	buildStart := time.Now()
	b := newBuilder(ctx, ref.Clone(), opts)
	if opts.GlobalMetric {
		b.ref = ref
		b.members = make(map[NodeID][]NodeID, len(ref.nodes))
		b.refToCur = make(map[NodeID]NodeID, len(ref.nodes))
		for id := range ref.nodes {
			b.members[id] = []NodeID{id}
			b.refToCur[id] = id
		}
	}
	phaseStart := time.Now()
	if opts.RandomMerges {
		if err := b.randomMergePhase(); err != nil {
			return nil, err
		}
	} else if err := b.mergePhase(); err != nil {
		return nil, err
	}
	b.stats.MergeSeconds = time.Since(phaseStart).Seconds()
	if opts.Metrics != nil {
		opts.Metrics.Observe(MetricBuildPhaseSeconds, `phase="merge"`, b.stats.MergeSeconds)
	}
	phaseStart = time.Now()
	if err := b.valuePhase(); err != nil {
		return nil, err
	}
	b.stats.ValueSeconds = time.Since(phaseStart).Seconds()
	if opts.Metrics != nil {
		opts.Metrics.Observe(MetricBuildPhaseSeconds, `phase="value"`, b.stats.ValueSeconds)
		opts.Metrics.Add(MetricBuildMergesTotal, "", float64(b.stats.Merges))
		opts.Metrics.Add(MetricBuildPairsTotal, `outcome="computed"`, float64(b.stats.PairsEvaluated))
		opts.Metrics.Add(MetricBuildPairsTotal, `outcome="memo_hit"`, float64(b.stats.MemoHits))
		opts.Metrics.Add(MetricBuildPairsTotal, `outcome="memo_partial"`, float64(b.stats.MemoPartialHits))
	}
	if opts.Stats != nil {
		*opts.Stats = b.stats
	}
	s := b.s
	// Stamp the build identity: the doc hash and option summary arrive
	// via the reference's fingerprint (through Clone); the compression
	// pass adds its budgets and timing. Workers and the memo are
	// deliberately absent: they must not affect the output, so they are
	// not part of the synopsis identity.
	s.fp.StructBudget = opts.StructBudget
	s.fp.ValueBudget = opts.ValueBudget
	s.fp.Plan = plan
	s.fp.BuiltAtUnix = time.Now().Unix()
	s.fp.BuildNanos = time.Since(buildStart).Nanoseconds()
	return s, nil
}

// resolvePlan turns the options' budget configuration into one
// normalized BudgetPlan: the explicit Plan when set (its budgets must
// not disagree with any raw ints also set), otherwise a static plan
// synthesized from StructBudget/ValueBudget.
func (o BuildOptions) resolvePlan() (BudgetPlan, error) {
	if o.Plan == nil {
		return PlanFromBudgets(o.StructBudget, o.ValueBudget), nil
	}
	plan, err := o.Plan.Normalize()
	if err != nil {
		return BudgetPlan{}, err
	}
	if o.StructBudget != 0 && o.StructBudget != plan.StructBudget() {
		return BudgetPlan{}, fmt.Errorf("core: StructBudget %d conflicts with plan Bstr %d", o.StructBudget, plan.StructBudget())
	}
	if o.ValueBudget != 0 && o.ValueBudget != plan.ValueBudget() {
		return BudgetPlan{}, fmt.Errorf("core: ValueBudget %d conflicts with plan Bval %d", o.ValueBudget, plan.ValueBudget())
	}
	return plan, nil
}

// newBuilder assembles a builder with its incremental indexes. The memo
// table serves only the default Δ policy: the global metric's Δ depends
// on the whole reference-to-cluster assignment (any merge anywhere
// shifts it), which the neighborhood version stamps do not cover.
func newBuilder(ctx context.Context, s *Synopsis, opts BuildOptions) *builder {
	b := &builder{
		s: s, opts: opts, ctx: ctx,
		ver:   make(map[NodeID]int),
		cver:  make(map[NodeID]int),
		start: time.Now(),
	}
	b.stats.Workers = opts.Workers
	if !opts.noDeltaMemo && !opts.GlobalMetric && !opts.RandomMerges {
		b.memo = make(map[pairKey]memoEntry)
		b.sigs = make(map[NodeID]sigEntry)
		b.evalc = &evalCache{}
	}
	return b
}

// randomMergePhase merges uniformly random compatible pairs until the
// structural budget is met — the no-Δ baseline for ablation runs.
func (b *builder) randomMergePhase() error {
	rng := rand.New(rand.NewSource(b.opts.RandomSeed))
	for b.s.StructBytes() > b.opts.StructBudget {
		groups := make(map[groupKey][]*Node)
		for _, n := range b.s.nodes {
			k := nodeGroup(n)
			groups[k] = append(groups[k], n)
		}
		var mergeable []groupKey
		for k, members := range groups {
			if len(members) >= 2 {
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
		members := groups[mergeable[rng.Intn(len(mergeable))]]
		sort.Slice(members, func(i, j int) bool { return members[i].ID < members[j].ID })
		i := rng.Intn(len(members))
		j := rng.Intn(len(members) - 1)
		if j >= i {
			j++
		}
		if _, err := b.s.Merge(members[i].ID, members[j].ID); err != nil {
			return fmt.Errorf("core: randomMergePhase: %w", err)
		}
		b.stats.Merges++
	}
	return nil
}

// XClusterSweep builds synopses for several structural budgets in one
// pass. Greedy merging does not depend on the budget (a smaller budget's
// merge sequence is a prefix extension of a larger one's), so the merge
// phase runs once toward the smallest budget, snapshotting the synopsis
// as it crosses each requested budget; each snapshot then gets its own
// value-compression phase. The result matches XClusterBuild at every
// budget while paying for one merge phase instead of len(budgets).
// Results are returned in the order of structBudgets.
func XClusterSweep(ref *Synopsis, structBudgets []int, valueBudget int, opts BuildOptions) ([]*Synopsis, error) {
	if opts.Workers < 0 {
		return nil, fmt.Errorf("core: build workers must be non-negative (0 = GOMAXPROCS), got %d", opts.Workers)
	}
	opts = opts.withDefaults()
	if opts.RandomMerges || opts.GlobalMetric {
		return nil, fmt.Errorf("core: XClusterSweep supports only the default policy")
	}
	// Work over distinct budgets in descending order.
	desc := append([]int(nil), structBudgets...)
	sort.Sort(sort.Reverse(sort.IntSlice(desc)))
	minBudget := desc[len(desc)-1]

	b := newBuilder(nil, ref.Clone(), opts)
	b.opts.StructBudget = minBudget

	snapshots := make(map[int]*Synopsis, len(desc))
	pending := desc
	takeDue := func() {
		for len(pending) > 0 && b.s.StructBytes() <= pending[0] {
			if _, dup := snapshots[pending[0]]; !dup {
				snapshots[pending[0]] = b.s.Clone()
			}
			pending = pending[1:]
		}
	}
	takeDue()
	b.onMerge = takeDue
	if err := b.mergePhase(); err != nil {
		return nil, err
	}
	// Budgets below the merge floor get the final state.
	for _, budget := range pending {
		snapshots[budget] = b.s.Clone()
	}

	// Independent value phases, in parallel.
	distinct := make([]int, 0, len(snapshots))
	for budget := range snapshots {
		distinct = append(distinct, budget)
	}
	sort.Ints(distinct)
	var wg sync.WaitGroup
	next := make(chan int)
	workers := opts.Workers
	if workers > len(distinct) {
		workers = len(distinct)
	}
	if workers < 1 {
		workers = 1
	}
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for budget := range next {
				vopts := opts
				vopts.ValueBudget = valueBudget
				vopts.Progress = nil
				vb := newBuilder(nil, snapshots[budget], vopts)
				vb.valuePhase()
			}
		}()
	}
	for _, budget := range distinct {
		next <- budget
	}
	close(next)
	wg.Wait()

	out := make([]*Synopsis, len(structBudgets))
	for i, budget := range structBudgets {
		out[i] = snapshots[budget]
	}
	return out, nil
}

// builder holds the mutable state of one XClusterBuild run.
type builder struct {
	s    *Synopsis
	opts BuildOptions
	// ctx, when non-nil, is polled at phase boundaries so callers can
	// abort long builds.
	ctx context.Context
	// onMerge, when set, runs after every applied merge (used by
	// XClusterSweep to snapshot budget crossings).
	onMerge func()
	// ver tracks node adjacency versions so queued candidates whose
	// neighborhoods changed are lazily re-evaluated (the paper recomputes
	// marginal losses in the merged nodes' neighborhood eagerly). cver
	// tracks only centroid-affecting changes (a node's own children or
	// summary) so the memo can keep a pair's error term across
	// parent-side churn; see the invalidation rule in delta.go.
	ver  map[NodeID]int
	cver map[NodeID]int
	// memo caches pair-Δ evaluations keyed by oriented pair, validated
	// against ver stamps (nil when disabled; see delta.go).
	memo map[pairKey]memoEntry
	// sigs caches childSig per node version: the signature only changes
	// when a node's child set does, which always bumps its version.
	sigs map[NodeID]sigEntry
	// evalc caches summary-derived state across Δ evaluations (nil when
	// the memo is disabled; see delta.go).
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
	// the reference nodes absorbed by each current cluster, and the
	// inverse map.
	ref      *Synopsis
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
		MemoHits:       b.stats.MemoHits,
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
// infeasible ones. Order is preserved. Memo hits are answered serially;
// the remaining misses are pure, read-only evaluations, so they fan out
// over opts.Workers goroutines; results are stored back into the memo
// serially. Slot i of the result belongs to pair i regardless of which
// worker computed it, so worker count and scheduling cannot change the
// candidate ranking.
func (b *builder) evalCands(proposed []*mergeCand) []*mergeCand {
	results := make([]*mergeCand, len(proposed))
	var misses []int
	if b.memo != nil {
		for i, p := range proposed {
			if c, hit := b.memoLookup(p.u, p.v); hit {
				results[i] = c
			} else {
				misses = append(misses, i)
			}
		}
	} else {
		misses = make([]int, len(proposed))
		for i := range proposed {
			misses[i] = i
		}
	}
	workers := b.opts.Workers
	if workers > len(misses) {
		workers = len(misses)
	}
	if workers > 1 {
		var wg sync.WaitGroup
		next := make(chan int, workers)
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := range next {
					results[i] = b.computeCand(proposed[i].u, proposed[i].v)
				}
			}()
		}
		for _, i := range misses {
			next <- i
		}
		close(next)
		wg.Wait()
	} else {
		for _, i := range misses {
			results[i] = b.computeCand(proposed[i].u, proposed[i].v)
		}
	}
	b.stats.PairsEvaluated += int64(len(misses))
	if b.memo != nil {
		for _, i := range misses {
			b.memoStore(proposed[i].u, proposed[i].v, results[i])
		}
	}
	out := proposed[:0]
	for _, c := range results {
		if c != nil {
			out = append(out, c)
		}
	}
	return out
}

// newCand evaluates the merge (u, v) through the memo table, returning
// nil when it cannot be applied. Serial callers only; parallel workers
// go through computeCand and store afterwards.
func (b *builder) newCand(u, v NodeID) *mergeCand {
	if b.memo != nil {
		if c, hit := b.memoLookup(u, v); hit {
			return c
		}
		c := b.computeCand(u, v)
		b.stats.PairsEvaluated++
		b.memoStore(u, v, c)
		return c
	}
	c := b.computeCand(u, v)
	b.stats.PairsEvaluated++
	return c
}

// computeCand evaluates the merge (u, v) from scratch, returning nil
// when it cannot be applied. It is read-only against the builder, so
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
		delta, saved, err = b.s.mergeDeltaCached(u, v, b.opts.AtomicCap, b.evalc)
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
// v remapped to the placeholder).
func (b *builder) refCentroid(refID, u, v NodeID) map[NodeID]float64 {
	out := make(map[NodeID]float64)
	for c, avg := range b.ref.nodes[refID].Children {
		t := b.refToCur[c]
		if t == u || t == v {
			t = placeholderID
		}
		out[t] += avg
	}
	return out
}

// centroidDist2 returns the squared L2 distance between two sparse
// centroids.
func centroidDist2(a, bb map[NodeID]float64) float64 {
	d := 0.0
	for t, x := range a {
		diff := x - bb[t]
		d += diff * diff
	}
	for t, y := range bb {
		if _, seen := a[t]; !seen {
			d += y * y
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
// sets sort near each other, so the PairWindow pairing proposes the
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
	var cands []*mergeCand
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
			for j := i + 1; j <= i+b.opts.PairWindow && j < len(members); j++ {
				cands = append(cands, &mergeCand{u: members[i].ID, v: members[j].ID})
			}
		}
	}
	// Candidate Δ evaluations are independent and read-only against the
	// synopsis, so they run in parallel; the deterministic ordering comes
	// from the sort and the heap's strict total order afterwards.
	cands = b.evalCands(cands)
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
		b.memoSweep()
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
// incremental state: version stamps (which double as memo
// invalidation), the group index, global-metric membership, stats and
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
	if b.onMerge != nil {
		b.onMerge()
	}
	return w, nil
}

// touchNeighborhood bumps the versions of a freshly merged node and its
// neighbors so queued candidates referencing them are re-evaluated.
// These bumps are also the memo table's invalidation: they cover the
// full dependency set of every Δ the merge could have changed (see the
// invalidation rule in delta.go).
func (b *builder) touchNeighborhood(w *Node) {
	b.ver[w.ID]++
	b.cver[w.ID]++
	for c := range w.Children {
		// Only the child's Parents changed: its centroid state (own
		// children, count, summary) is intact, so cver stays put and
		// memoized error terms involving it remain exact.
		b.ver[c]++
	}
	for p := range w.Parents {
		// The parent's child set changed: full invalidation.
		b.ver[p]++
		b.cver[p]++
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

// pairNew proposes up to PairWindow merges pairing the new node w with
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
			if added >= b.opts.PairWindow {
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
// candidate: the configured constant, or an excess-proportional adaptive
// value (large early steps, b=1 near the budget).
func (b *builder) compressStep(excess int) int {
	if b.opts.CompressStep > 0 {
		return b.opts.CompressStep
	}
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
	next, saved, steps := u.VSum.Compress(b.compressStep(excess))
	if steps == 0 {
		return nil
	}
	delta, err := b.s.CompressDelta(u.ID, next, b.opts.AtomicCap)
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

// valuePhase compresses value summaries within ValueBudget. When the
// resolved plan splits the value budget across summary kinds, each kind
// is first compressed toward its own sub-budget (so a workload-derived
// plan can, say, spend PST bytes on term histograms); the global pass
// then enforces the Bval total exactly as in the paper, reclaiming any
// slack a kind could not use. Unsplit plans — every legacy caller —
// take only the global pass, bit for bit the original behavior.
func (b *builder) valuePhase() error {
	if p := b.opts.Plan; p != nil && p.HasValueSplit() {
		for _, vt := range []xmltree.ValueType{xmltree.TypeNumeric, xmltree.TypeString, xmltree.TypeText} {
			vt := vt
			err := b.compressValues(p.valueKindBudget(vt), func(n *Node) bool {
				return n.VSum != nil && n.VSum.Type() == vt
			})
			if err != nil {
				return err
			}
		}
	}
	return b.compressValues(b.opts.ValueBudget, func(n *Node) bool { return n.VSum != nil })
}

// compressValues runs one minimum-marginal-loss compression pass over
// the summaries include admits, stopping when their combined charge
// fits budget or no admitted summary can shrink further.
func (b *builder) compressValues(budget int, include func(*Node) bool) error {
	cur := 0
	for _, n := range b.s.Nodes() {
		if include(n) {
			cur += n.VSum.SizeBytes()
		}
	}
	if cur <= budget {
		return nil
	}
	defer func() { b.emitProgress("value", b.s.ValueBytes()) }()
	var h valHeap
	for _, n := range b.s.Nodes() {
		if !include(n) {
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
