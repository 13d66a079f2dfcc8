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
	// Total is the wall time of the whole call; it is at least the sum
	// of the spans (inter-stage bookkeeping is not attributed to any
	// stage).
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
	// start is when the estimate began; span offsets are relative to it.
	start time.Time
	// spans backs Spans: one slot per stage the pipeline records.
	spans [numStages]Span
}

// numStages is the number of stages the estimation pipeline records
// (every stage but StageParse).
const numStages = 5

// CanonicalHash is the 64-bit FNV-1a hash of a canonical query string,
// the cheap per-request identity SelectivityTraced stamps on every
// trace (EstimateTrace.CanonicalHash).
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

// SpanSum returns the summed stage durations (at most Total).
func (t *EstimateTrace) SpanSum() time.Duration {
	var s time.Duration
	for _, sp := range t.Spans {
		s += sp.Duration
	}
	return s
}

// SelectivityTraced is SelectivityContext with per-stage tracing: it
// runs the same pipeline and returns, alongside the estimate, a trace of
// where the time went. The trace is also returned on error, covering
// the stages that ran. When a metric sink is configured the trace is
// additionally emitted into it.
func (e *Estimator) SelectivityTraced(ctx context.Context, q *query.Query) (float64, *EstimateTrace, error) {
	tr := e.newTrace()
	v, err := e.pipeline(ctx, q, tr)
	return v, tr, err
}

// newTrace starts the trace of one estimate over this estimator's
// generation.
func (e *Estimator) newTrace() *EstimateTrace {
	g := e.s.fp.Generation
	tr := &EstimateTrace{
		Generation:     g,
		PlanGeneration: g, // refined when a plan runs
		start:          time.Now(),
	}
	tr.Spans = tr.spans[:0]
	return tr
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
	t.Spans = append(t.Spans, Span{Stage: stage, Offset: ts.Sub(t.start), Duration: time.Since(ts)})
}

// finish closes the pipeline: it completes and emits the trace, if any,
// and passes the outcome through.
func (e *Estimator) finish(tr *EstimateTrace, v float64, err error) (float64, error) {
	if tr != nil {
		tr.Estimate = v
		tr.Total = time.Since(tr.start)
		e.emit(tr)
	}
	return v, err
}

// emit forwards one trace's stage timings and cache outcomes to the
// configured sink, if any. Every label list is a constant, so emission
// allocates nothing once the sink's series exist.
func (e *Estimator) emit(tr *EstimateTrace) {
	if e.sink == nil {
		return
	}
	resultLooked, planLooked := false, false
	for _, sp := range tr.Spans {
		var labels string
		switch sp.Stage {
		case StageCanonicalize:
			labels = `stage="` + StageCanonicalize + `"`
		case StageResultCache:
			labels = `stage="` + StageResultCache + `"`
			resultLooked = true
		case StagePlanCache:
			labels = `stage="` + StagePlanCache + `"`
			planLooked = true
		case StageCompile:
			labels = `stage="` + StageCompile + `"`
		case StageExecute:
			labels = `stage="` + StageExecute + `"`
		}
		e.sink.Observe(MetricPipelineStageSeconds, labels, sp.Duration.Seconds())
	}
	if resultLooked {
		outcome := `cache="result",outcome="miss"`
		if tr.ResultCacheHit {
			outcome = `cache="result",outcome="hit"`
		}
		e.sink.Add(MetricCacheLookupsTotal, outcome, 1)
	}
	if planLooked {
		outcome := `cache="plan",outcome="miss"`
		if tr.PlanCacheHit {
			outcome = `cache="plan",outcome="hit"`
		}
		e.sink.Add(MetricCacheLookupsTotal, outcome, 1)
	}
}
