package core

// MetricSink is the small observability hook a synopsis build emits
// into (BuildOptions.Metrics): counters via Add and latency/size
// observations via Observe. labels is a rendered Prometheus label list
// without braces (e.g. `phase="merge"`, possibly empty).
// internal/obs.Registry satisfies it structurally, so core carries no
// observability dependency; a nil sink (the default) disables emission.
// Estimates emit nothing: each returns its EstimateTrace, and the
// serving layer records metrics from it.
//
// Implementations must be safe for concurrent use.
type MetricSink interface {
	Add(name, labels string, delta float64)
	Observe(name, labels string, value float64)
}

// Metric names a build emits. The serving layer registers help text
// for them in the registry it passes as the sink.
const (
	// MetricBuildPhaseSeconds is a histogram of synopsis-build phase
	// wall time, labeled phase="merge|value".
	MetricBuildPhaseSeconds = "xcluster_build_phase_seconds"
	// MetricBuildPairsTotal counts candidate-pair Δ evaluations during
	// builds, labeled outcome="computed" (the only outcome).
	MetricBuildPairsTotal = "xcluster_build_pairs_total"
	// MetricBuildMergesTotal counts node merges applied during builds.
	MetricBuildMergesTotal = "xcluster_build_merges_total"
)
