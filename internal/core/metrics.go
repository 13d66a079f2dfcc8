package core

// MetricSink is the small observability hook core components emit into:
// counters via Add and latency/size observations via Observe. labels is
// a rendered Prometheus label list without braces (e.g. `stage="compile"`,
// possibly empty). internal/obs.Registry satisfies it structurally, so
// core carries no observability dependency; a nil sink (the default)
// disables emission with no overhead on the untraced paths.
//
// Implementations must be safe for concurrent use.
type MetricSink interface {
	Add(name, labels string, delta float64)
	Observe(name, labels string, value float64)
}

// Metric names core emits. The serving layer registers help text and
// reuses the same names so one registry aggregates both.
const (
	// MetricPipelineStageSeconds is a histogram of per-stage wall time
	// of the estimation pipeline, labeled stage="parse|canonicalize|
	// result_cache|plan_cache|compile|execute".
	MetricPipelineStageSeconds = "xcluster_pipeline_stage_seconds"
	// MetricCacheLookupsTotal counts estimate-pipeline cache lookups,
	// labeled cache="result|plan" and outcome="hit|miss".
	MetricCacheLookupsTotal = "xcluster_cache_lookups_total"
	// MetricBuildPhaseSeconds is a histogram of synopsis-build phase
	// wall time, labeled phase="merge|value".
	MetricBuildPhaseSeconds = "xcluster_build_phase_seconds"
	// MetricBuildPairsTotal counts candidate-pair Δ lookups during
	// builds, labeled outcome="computed|memo_hit".
	MetricBuildPairsTotal = "xcluster_build_pairs_total"
	// MetricBuildMergesTotal counts node merges applied during builds.
	MetricBuildMergesTotal = "xcluster_build_merges_total"
)

// SetMetricSink routes the estimator's pipeline stage timings and cache
// outcomes to the sink (nil disables). Like the other estimator
// configuration it must be set before the estimator is shared across
// goroutines. With a sink set, every estimate — Selectivity,
// SelectivityContext or SelectivityTraced — records per-stage timings.
func (e *Estimator) SetMetricSink(sink MetricSink) { e.sink = sink }
