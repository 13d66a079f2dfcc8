// Package accuracy is the estimation-quality feedback loop of the
// serving stack: the paper's error metric (average absolute relative
// error with a sanity bound, Section 6) as one shared implementation,
// a per-predicate-class classification of twig queries, an online
// Monitor that aggregates estimate/ground-truth pairs into registry
// histograms and rolling-window drift gauges, and a Shadow sampler
// that re-runs a fraction of live estimates through an exact evaluator
// on a bounded worker pool so shadow work can never affect serving
// latency.
//
// The metric functions here are the single source of truth for every
// error number the repository reports: internal/workload delegates its
// RelError/AvgRelError to them, and the harness ablations score their
// probe sets through Avg.
package accuracy

import (
	"math"
	"sort"
)

// DefaultSanityBound is the paper's sanity bound s = 10 (Section 6):
// relative errors are measured against max(true, s) so that queries
// with tiny true counts cannot inflate the average without bound.
const DefaultSanityBound = 10

// SanityBound returns the paper's workload sanity bound: the
// 10-percentile s of the true counts, so that 90% of the queries have
// a true result size >= s (at least 1; 1 for an empty workload).
func SanityBound(truths []float64) float64 {
	if len(truths) == 0 {
		return 1
	}
	sorted := append([]float64(nil), truths...)
	sort.Float64s(sorted)
	b := sorted[len(sorted)/10]
	if b < 1 {
		b = 1
	}
	return b
}

// RelError returns the absolute relative error |truth − est| /
// max(truth, sanity) of one estimate — the paper's per-query accuracy
// metric (EXPERIMENTS.md scores every figure with it). A zero
// denominator (truth and sanity both zero) yields 0.
func RelError(truth, est, sanity float64) float64 {
	denom := math.Max(truth, sanity)
	if denom == 0 {
		return 0
	}
	return math.Abs(truth-est) / denom
}

// Avg returns the average of RelError over positionally paired truths
// and estimates (0 when empty). The slices must have equal length.
func Avg(truths, ests []float64, sanity float64) float64 {
	if len(truths) == 0 {
		return 0
	}
	total := 0.0
	for i, truth := range truths {
		total += RelError(truth, ests[i], sanity)
	}
	return total / float64(len(truths))
}
