package core

import (
	"context"
	"time"

	"xcluster/internal/query"
)

// Pipeline stage names of one estimate, in execution order. StageParse
// is emitted by the serving layer (query text → AST happens above
// core); the remaining stages are recorded by the estimation pipeline.
const (
	StageParse        = "parse"
	StageCanonicalize = "canonicalize"
	StageResultCache  = "result_cache"
	StagePlanCache    = "plan_cache"
	StageCompile      = "compile"
	StageExecute      = "execute"
)

// Span is one timed pipeline stage of a single estimate. Offset is the
// stage's start relative to the start of the estimate, so a span tree
// built from the trace (the request-correlation layer in internal/obs)
// can place stages on an absolute timeline.
type Span struct {
	Stage    string
	Offset   time.Duration
	Duration time.Duration
}

// EstimateTrace records where one estimate's wall time went: one span
// per pipeline stage actually run (a result-cache hit has no compile or
// execute span; a disabled cache has no lookup span), in execution
// order.
type EstimateTrace struct {
	// Canonical is the query's canonical string — its identity in both
	// caches and the slow-query log.
	Canonical string
	// CanonicalHash is the 64-bit FNV-1a hash of Canonical, computed
	// once per estimate in the tracing layer so downstream consumers
	// (the workload profiler's shape lookup, slow-log shape tagging)
	// never re-hash the canonical string on the hot path.
	CanonicalHash uint64
	// Spans are the stage timings in execution order. The slice aliases
	// the trace's own storage (the pipeline records at most one span per
	// stage, so the trace and its spans are one allocation): a copy of
	// the EstimateTrace value shares its spans with the original.
	Spans []Span
	// Start is when the estimate began; span offsets are relative to
	// it. Total is the wall time of the whole call; it is at least the
	// sum of the spans (inter-stage bookkeeping is not attributed to any
	// stage). Together they are the estimate's one clock: the serving
	// layer times requests, SLOs and the slow log from them.
	Start time.Time
	Total time.Duration
	// ResultCacheHit and PlanCacheHit report the cache outcomes (false
	// when the corresponding lookup never ran).
	ResultCacheHit bool
	PlanCacheHit   bool
	// Subproblems is the executed plan's size (0 on a result-cache hit:
	// no plan was consulted).
	Subproblems int
	// Estimate is the selectivity the pipeline produced (0 on error).
	// Carrying it in the trace makes the trace a self-contained record
	// of one estimate, so accuracy monitoring can pair it with ground
	// truth later without re-running the pipeline.
	Estimate float64
	// Generation is the build generation of the synopsis the estimate
	// ran against; PlanGeneration is the generation of the plan it
	// executed. The two are always equal — plans never cross a hot swap
	// (each swap installs a fresh estimator and invalidates the old
	// caches) — and the lifecycle tests assert exactly that.
	Generation     uint64
	PlanGeneration uint64
	// spans backs Spans: one slot per stage the pipeline records.
	spans [numStages]Span
}

// numStages is the number of stages the estimation pipeline records
// (every stage but StageParse).
const numStages = 5

// CanonicalHash is the 64-bit FNV-1a hash of a canonical query string,
// the cheap per-request identity SelectivityTracedCanonical stamps on
// every trace (EstimateTrace.CanonicalHash).
func CanonicalHash(canonical string) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for i := 0; i < len(canonical); i++ {
		h ^= uint64(canonical[i])
		h *= prime64
	}
	return h
}

// SelectivityTracedCanonical is SelectivityContext with per-stage
// tracing into a trace the caller owns: it runs the same pipeline and
// records, alongside the estimate, where the time went, also on error,
// covering the stages that ran. The caller may already hold the query's
// canonical string, q.String() (ParseQuery and WarmPlan return it), so
// the pipeline does not canonicalize q again; an empty canonical
// canonicalizes q here. tr is overwritten: a batch
// can trace each estimate into storage it already holds, such as the
// query's own record.
// deadline, unless zero, bounds the estimate like a context deadline
// would, checked where ctx is (before each root variable's subproblem
// group of an executed plan) and failing with context.DeadlineExceeded,
// without a timer or a derived context per call.
func (e *Estimator) SelectivityTracedCanonical(ctx context.Context, q *query.Query, canonical string, deadline time.Time, tr *EstimateTrace) (float64, error) {
	g := e.s.fp.Generation
	*tr = EstimateTrace{
		Generation:     g,
		PlanGeneration: g, // refined when a plan runs
		Start:          time.Now(),
	}
	tr.Spans = tr.spans[:0]
	return e.pipeline(ctx, deadline, q, canonical, tr)
}

// now returns the start time of the next stage, or the zero time on a
// nil trace, so the untraced pipeline takes no timestamps.
func (t *EstimateTrace) now() time.Time {
	if t == nil {
		return time.Time{}
	}
	return time.Now()
}

// span records one stage that started at ts and ends now (no-op on a
// nil trace).
func (t *EstimateTrace) span(stage string, ts time.Time) {
	if t == nil {
		return
	}
	t.Spans = append(t.Spans, Span{Stage: stage, Offset: ts.Sub(t.Start), Duration: time.Since(ts)})
}

// finish closes the pipeline: it completes the trace (no-op on a nil
// trace) and passes the outcome through.
func (t *EstimateTrace) finish(v float64, err error) (float64, error) {
	if t != nil {
		t.Estimate = v
		t.Total = time.Since(t.Start)
	}
	return v, err
}

// RunSummary and RunStages make a finished trace an obs.Run, so a
// request's span tree holds the trace itself and renders it only when
// the tree is snapshotted: one "estimate" node detailed by the
// canonical query, with one child per stage.
func (t *EstimateTrace) RunSummary() (name, detail string, start time.Time, d time.Duration) {
	return "estimate", t.Canonical, t.Start, t.Total
}

// RunStages calls fn for each stage in execution order.
func (t *EstimateTrace) RunStages(fn func(stage string, offset, d time.Duration)) {
	for _, sp := range t.Spans {
		fn(sp.Stage, sp.Offset, sp.Duration)
	}
}
