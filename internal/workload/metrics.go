package workload

import (
	"math"

	"xcluster/internal/accuracy"
	"xcluster/internal/query"
)

// EstimateFunc maps a query to an estimated selectivity (typically an
// Estimator bound to a synopsis).
type EstimateFunc func(*query.Query) float64

// AvgRelError returns the average absolute relative error
// (accuracy.RelError, the paper's per-query metric) of the estimator
// over the queries, with the given sanity bound.
func AvgRelError(qs []Query, est EstimateFunc, sanity float64) float64 {
	if len(qs) == 0 {
		return 0
	}
	total := 0.0
	for _, q := range qs {
		total += accuracy.RelError(q.True, est(q.Q), sanity)
	}
	return total / float64(len(qs))
}

// AvgAbsError returns the average absolute error |c − e| of the estimator
// over the queries (the Figure 9 metric).
func AvgAbsError(qs []Query, est EstimateFunc) float64 {
	if len(qs) == 0 {
		return 0
	}
	total := 0.0
	for _, q := range qs {
		total += math.Abs(q.True - est(q.Q))
	}
	return total / float64(len(qs))
}

// LowCount returns the queries whose true selectivity falls below the
// sanity bound (the Figure 9 slice).
func LowCount(qs []Query, bound float64) []Query {
	var out []Query
	for _, q := range qs {
		if q.True < bound {
			out = append(out, q)
		}
	}
	return out
}

// AvgTrue returns the average true result size of the queries (Table 2).
func AvgTrue(qs []Query) float64 {
	if len(qs) == 0 {
		return 0
	}
	total := 0.0
	for _, q := range qs {
		total += q.True
	}
	return total / float64(len(qs))
}

// Report is one row of the Figure 8 error curves: the per-class and
// overall average relative errors of a synopsis on a workload.
type Report struct {
	ByClass map[accuracy.Class]float64
	Overall float64
	Sanity  float64
}

// Evaluate scores an estimator on the workload with the workload's own
// sanity bound.
func (w *Workload) Evaluate(est EstimateFunc) Report {
	sanity := w.SanityBound()
	rep := Report{ByClass: make(map[accuracy.Class]float64), Sanity: sanity}
	for _, cn := range classNames {
		rep.ByClass[cn.class] = AvgRelError(w.ByClass(cn.class), est, sanity)
	}
	rep.Overall = AvgRelError(w.Queries, est, sanity)
	return rep
}
