package service

import (
	"context"
	"time"

	"xcluster/internal/budget"
	"xcluster/internal/core"
)

// WithAdaptiveBudget turns on workload-adaptive budget planning:
// drift-triggered rebuilds search their struct/value split on the live
// workload profile's shapes (budget.Plan) instead of inheriting the
// previous split verbatim. Manual rebuilds opt in per request
// (RebuildOptions.Adaptive, or {"adaptive":true} on
// POST /admin/rebuild). Requires the workload profiler (on by
// default); adaptive rebuilds fail with ErrNoProfiler when it was
// disabled.
func WithAdaptiveBudget() Option {
	return func(s *Service) { s.adaptiveBudget = true }
}

// AdaptiveBudget reports whether WithAdaptiveBudget was configured.
func (s *Service) AdaptiveBudget() bool { return s.adaptiveBudget }

// planAdaptive runs budget.Plan for a rebuild that would otherwise
// build under inherited: it searches the split of inherited's total on
// the live profile's shapes, with ground truth from the resident
// document, and records the inputs and decision for GET /debug/budget.
// It returns the synopsis built under the decided plan.
func (s *Service) planAdaptive(ctx context.Context, ref *core.Synopsis, inherited core.BudgetPlan, opts core.BuildOptions) (*core.Synopsis, error) {
	in := budget.Inputs{
		Inherited:           inherited,
		WorkloadFingerprint: s.prof.Fingerprint(time.Now()),
		Shapes:              s.prof.Representatives(),
	}
	d, syn, err := budget.Plan(ctx, in, ref, s.doc, opts)
	if err != nil {
		return nil, err
	}
	s.planMu.Lock()
	s.lastPlanInputs = &in
	s.lastPlanDecision = &d
	s.planMu.Unlock()
	return syn, nil
}

// BudgetResponse is the body of GET /debug/budget: the serving
// generation's plan and realized split, and the planning run behind
// the last adaptive rebuild.
type BudgetResponse struct {
	// Adaptive reports whether WithAdaptiveBudget is configured (drift
	// rebuilds plan automatically).
	Adaptive bool `json:"adaptive"`
	// Current is the plan the serving synopsis was built under (zero
	// for legacy artifacts built before plans existed).
	Current core.BudgetPlan `json:"current,omitzero"`
	// Actual is the serving synopsis's realized byte split, for
	// planned-vs-actual comparison against Current.
	Actual core.ByteSplit `json:"actual"`
	// LastInputs and LastDecision are the planning run behind the most
	// recent adaptive rebuild of this process (absent before the first).
	LastInputs   *budget.Inputs   `json:"last_inputs,omitempty"`
	LastDecision *budget.Decision `json:"last_decision,omitempty"`
}

// BudgetReport builds the GET /debug/budget body.
func (s *Service) BudgetReport() BudgetResponse {
	sl := s.cur.Load()
	resp := BudgetResponse{
		Adaptive: s.adaptiveBudget,
		Current:  sl.syn.Fingerprint().Plan,
		Actual:   sl.syn.Split(),
	}
	s.planMu.Lock()
	resp.LastInputs, resp.LastDecision = s.lastPlanInputs, s.lastPlanDecision
	s.planMu.Unlock()
	return resp
}

// syncBudgetGauges mirrors the serving plan and realized split into
// xcluster_budget_* series at scrape time.
func (s *Service) syncBudgetGauges() {
	r := s.reg
	sl := s.cur.Load()
	plan := sl.syn.Fingerprint().Plan
	split := sl.syn.Split()
	r.Gauge("xcluster_budget_plan_total_bytes", "").Set(float64(plan.TotalBytes))
	for _, prov := range []core.Provenance{core.ProvenanceStatic, core.ProvenanceAuto, core.ProvenanceWorkload} {
		v := 0.0
		if plan.Provenance == prov {
			v = 1
		}
		r.Gauge("xcluster_budget_plan_provenance", `provenance="`+string(prov)+`"`).Set(v)
	}
	for _, c := range []struct {
		component       string
		planned, actual int
	}{
		{"struct", plan.StructBudget(), split.NodeBytes + split.EdgeBytes},
		// A plan splits only structure from values, so the value
		// components are never planned individually.
		{"histogram", 0, split.HistogramBytes},
		{"pst", 0, split.PSTBytes},
		{"termhist", 0, split.TermHistBytes},
	} {
		label := `component="` + c.component + `"`
		r.Gauge("xcluster_budget_planned_bytes", label).Set(float64(c.planned))
		r.Gauge("xcluster_budget_actual_bytes", label).Set(float64(c.actual))
	}
}
