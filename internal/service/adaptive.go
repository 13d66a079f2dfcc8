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

// planAdaptive runs budget.Plan for a rebuild that would otherwise
// build at inherited's budgets: it searches the split of their total
// on the live profile's shapes, with ground truth from the resident
// document, and records the inputs and decision for GET /debug/budget.
// It returns the synopsis built at the decided split.
func (s *Service) planAdaptive(ctx context.Context, ref *core.Synopsis, inherited core.Fingerprint, opts core.BuildOptions) (*core.Synopsis, error) {
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
// generation's fingerprint and realized split, and the planning run
// behind the last adaptive rebuild.
type BudgetResponse struct {
	// Adaptive reports whether WithAdaptiveBudget is configured (drift
	// rebuilds plan automatically).
	Adaptive bool `json:"adaptive"`
	// Current is the serving synopsis's fingerprint: the budgets it
	// was built under and their provenance (zero for legacy v1
	// artifacts).
	Current core.Fingerprint `json:"current,omitzero"`
	// Actual is the serving synopsis's realized byte split, for
	// planned-vs-actual comparison against Current's budgets.
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
		Current:  sl.syn.Fingerprint(),
		Actual:   sl.syn.Split(),
	}
	s.planMu.Lock()
	resp.LastInputs, resp.LastDecision = s.lastPlanInputs, s.lastPlanDecision
	s.planMu.Unlock()
	return resp
}

// syncBudgetGauges mirrors the serving budgets and realized split into
// xcluster_budget_* series at scrape time. The planned budgets read 0
// when the provenance is unknown (the reference synopsis, v1/v2
// artifacts).
func (s *Service) syncBudgetGauges() {
	r := s.reg
	sl := s.cur.Load()
	fp := sl.syn.Fingerprint()
	split := sl.syn.Split()
	bstr, bval := 0, 0
	if fp.Provenance != "" {
		bstr, bval = fp.StructBudget, fp.ValueBudget
	}
	r.Gauge("xcluster_budget_plan_total_bytes", "").Set(float64(bstr + bval))
	for _, prov := range []core.Provenance{core.ProvenanceStatic, core.ProvenanceAuto, core.ProvenanceWorkload} {
		v := 0.0
		if fp.Provenance == prov {
			v = 1
		}
		r.Gauge("xcluster_budget_plan_provenance", `provenance="`+string(prov)+`"`).Set(v)
	}
	for _, c := range []struct {
		component       string
		planned, actual int
	}{
		{"struct", bstr, split.NodeBytes + split.EdgeBytes},
		// The budgets split only structure from values, so the value
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
