package service

import (
	"time"

	"xcluster/internal/budget"
	"xcluster/internal/core"
	"xcluster/internal/profile"
)

// WithAdaptiveBudget turns on workload-adaptive budget planning:
// drift-triggered rebuilds derive their BudgetPlan from the live
// workload profile via the internal/budget planner instead of
// inheriting the previous split verbatim. Manual rebuilds opt in per
// request (RebuildOptions.Adaptive, or {"adaptive":true} on
// POST /admin/rebuild). Requires the workload profiler (on by
// default); adaptive rebuilds fail with ErrNoProfiler when it was
// disabled.
func WithAdaptiveBudget() Option {
	return func(s *Service) { s.adaptiveBudget = true }
}

// AdaptiveBudget reports whether WithAdaptiveBudget was configured.
func (s *Service) AdaptiveBudget() bool { return s.adaptiveBudget }

// actualSplit measures the synopsis's realized byte split by component
// — the planner's presence/proportion signal and the "actual" half of
// every planned-vs-actual comparison.
func actualSplit(syn *core.Synopsis) profile.BudgetSplit {
	b := synopsisBudget(syn)
	return profile.BudgetSplit{
		NodeBytes:      b.NodeBytes,
		EdgeBytes:      b.EdgeBytes,
		HistogramBytes: b.HistogramBytes,
		PSTBytes:       b.PSTBytes,
		TermHistBytes:  b.TermHistBytes,
	}
}

// budgetInputs assembles the planner inputs an adaptive rebuild of
// total bytes would run on right now: the live profile (with accuracy
// joined), the serving synopsis's actual split, and the serving plan
// for hysteresis.
func (s *Service) budgetInputs(total int) (budget.Inputs, error) {
	if s.prof == nil {
		return budget.Inputs{}, ErrNoProfiler
	}
	prof := s.prof.Profile(time.Now(), s.mon.Report())
	sl := s.cur.Load()
	return budget.Inputs{
		TotalBytes:          total,
		Classes:             prof.Classes,
		WorkloadFingerprint: prof.Fingerprint,
		Actual:              actualSplit(sl.syn),
		Current:             sl.syn.Fingerprint().Plan,
	}, nil
}

// planAdaptive runs the planner for a rebuild of total bytes and
// records the inputs and decision for GET /debug/budget.
func (s *Service) planAdaptive(total int) (budget.Decision, error) {
	in, err := s.budgetInputs(total)
	if err != nil {
		return budget.Decision{}, err
	}
	d, err := budget.Plan(in)
	if err != nil {
		return budget.Decision{}, err
	}
	s.planMu.Lock()
	s.lastPlanInputs = &in
	s.lastPlanDecision = &d
	s.planMu.Unlock()
	return d, nil
}

// rebuildTotal is the total byte budget a budget-less rebuild inherits:
// per group, the serving fingerprint's budgets, then the
// WithRebuildBudgets defaults, then the serving synopsis's actual
// sizes — the same chain rebuild walks (steps 3–5 of the precedence
// documented there).
func (s *Service) rebuildTotal() int {
	cur := s.cur.Load()
	fp := cur.syn.Fingerprint()
	bstr := fp.StructBudget
	if bstr <= 0 {
		bstr = s.defaultBstr
	}
	if bstr <= 0 {
		bstr = cur.syn.StructBytes()
	}
	bval := fp.ValueBudget
	if bval <= 0 {
		bval = s.defaultBval
	}
	if bval <= 0 {
		bval = cur.syn.ValueBytes()
	}
	return bstr + bval
}

// BudgetResponse is the body of GET /debug/budget: the serving
// generation's plan and realized split, the planner run behind the
// last adaptive rebuild, and a dry-run of what the next adaptive
// rebuild would choose on the live profile.
type BudgetResponse struct {
	// Adaptive reports whether WithAdaptiveBudget is configured (drift
	// rebuilds plan automatically).
	Adaptive bool `json:"adaptive"`
	// Current is the plan the serving synopsis was built under (zero
	// for legacy artifacts built before plans existed).
	Current core.BudgetPlan `json:"current,omitzero"`
	// Actual is the serving synopsis's realized byte split, for
	// planned-vs-actual comparison against Current.
	Actual profile.BudgetSplit `json:"actual"`
	// LastInputs and LastDecision are the planner run behind the most
	// recent adaptive rebuild of this process (absent before the first).
	LastInputs   *budget.Inputs   `json:"last_inputs,omitempty"`
	LastDecision *budget.Decision `json:"last_decision,omitempty"`
	// Next is a dry-run: the decision an adaptive rebuild started now
	// would get, on the live profile and inherited total. NextError
	// explains its absence (e.g. profiling disabled).
	Next      *budget.Decision `json:"next,omitempty"`
	NextError string           `json:"next_error,omitempty"`
}

// BudgetReport builds the GET /debug/budget body.
func (s *Service) BudgetReport() BudgetResponse {
	sl := s.cur.Load()
	resp := BudgetResponse{
		Adaptive: s.adaptiveBudget,
		Current:  sl.syn.Fingerprint().Plan,
		Actual:   actualSplit(sl.syn),
	}
	s.planMu.Lock()
	resp.LastInputs, resp.LastDecision = s.lastPlanInputs, s.lastPlanDecision
	s.planMu.Unlock()
	// The dry-run never touches lastPlan state: /debug/budget is
	// read-only and must not perturb the hysteresis history.
	in, err := s.budgetInputs(s.rebuildTotal())
	if err == nil {
		var d budget.Decision
		if d, err = budget.Plan(in); err == nil {
			resp.Next = &d
		}
	}
	if err != nil {
		resp.NextError = err.Error()
	}
	return resp
}

// syncBudgetGauges mirrors the serving plan and realized split into
// xcluster_budget_* series at scrape time.
func (s *Service) syncBudgetGauges() {
	r := s.reg
	sl := s.cur.Load()
	plan := sl.syn.Fingerprint().Plan
	split := actualSplit(sl.syn)
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
		{"histogram", plan.HistogramBytes, split.HistogramBytes},
		{"pst", plan.PSTBytes, split.PSTBytes},
		{"termhist", plan.TermHistBytes, split.TermHistBytes},
	} {
		label := `component="` + c.component + `"`
		r.Gauge("xcluster_budget_planned_bytes", label).Set(float64(c.planned))
		r.Gauge("xcluster_budget_actual_bytes", label).Set(float64(c.actual))
	}
}
