package harness

import (
	"encoding/json"
	"fmt"
	"strings"

	"xcluster/internal/accuracy"
	"xcluster/internal/budget"
	"xcluster/internal/core"
	"xcluster/internal/profile"
	"xcluster/internal/workload"
	"xcluster/internal/xmltree"
)

// AutoBudgetRow compares one structural/value split of a unified budget.
type AutoBudgetRow struct {
	Dataset string `json:"dataset"`
	// Split is the human label; Provenance classifies the row the way
	// BudgetPlan does: static (fixed split), auto (sample-guided
	// search) or workload (planner output on a profiled class mix).
	Split      string `json:"split"`
	Provenance string `json:"provenance"`
	Bstr       int    `json:"bstr_bytes"`
	Bval       int    `json:"bval_bytes"`
	// Plan carries the full per-component split when the row was built
	// under one (the workload-adaptive row); fixed and auto rows only
	// have the two-way split.
	Plan *core.BudgetPlan `json:"plan,omitempty"`
	// Overall is the average relative error on the held-out workload
	// (queries never shown to the auto search or the planner).
	Overall float64 `json:"overall_err"`
}

// measureSplit computes a synopsis's realized byte split by component —
// the same measurement the serving layer feeds the planner (presence
// and node/edge proportion signals).
func measureSplit(s *core.Synopsis) profile.BudgetSplit {
	sp := profile.BudgetSplit{
		NodeBytes: s.NumNodes() * core.NodeBytes,
		EdgeBytes: s.NumEdges() * core.EdgeBytes,
	}
	for _, n := range s.Nodes() {
		if n.VSum == nil {
			continue
		}
		b := n.VSum.SizeBytes()
		switch n.VSum.Type() {
		case xmltree.TypeNumeric:
			sp.HistogramBytes += b
		case xmltree.TypeString:
			sp.PSTBytes += b
		case xmltree.TypeText:
			sp.TermHistBytes += b
		}
	}
	return sp
}

// sampleClassStats profiles the sample workload through a synopsis the
// way a serving process would: per accuracy class, the traffic share
// and measured relative error, joined into pain = share × error.
func sampleClassStats(sample []workload.Query, s *core.Synopsis, sanity float64) []profile.ClassStat {
	est := core.NewEstimator(s)
	byClass := map[accuracy.Class][]workload.Query{}
	for _, q := range sample {
		byClass[q.Class] = append(byClass[q.Class], q)
	}
	var stats []profile.ClassStat
	for _, c := range accuracy.Classes() {
		qs := byClass[c]
		if len(qs) == 0 {
			continue
		}
		share := float64(len(qs)) / float64(len(sample))
		relErr := workload.AvgRelError(qs, est.Selectivity, sanity)
		stats = append(stats, profile.ClassStat{
			Class:        c.String(),
			Count:        uint64(len(qs)),
			TrafficShare: share,
			RelError:     relErr,
			Pain:         share * relErr,
		})
	}
	return stats
}

// AutoBudgetExperiment exercises the Section 4.3 future-work extension:
// given one total budget, it compares three ways of splitting it —
// fixed structural/value fractions, the split chosen by
// core.AutoAllocate, and the per-component BudgetPlan produced by the
// internal/budget planner from a profiled sample (the same pipeline an
// adaptive rebuild runs in the serving layer). The search and the
// planner see every fourth workload query (the "sample workload" of
// the paper's sketch); all rows are scored on the remaining held-out
// queries, so no adaptive row can win by overfitting its sample.
func AutoBudgetExperiment(d *Dataset, cfg Config) ([]AutoBudgetRow, error) {
	cfg = cfg.forDataset(d.Name)
	budgets := cfg.StructBudgets(d)
	total := budgets[len(budgets)-1] + cfg.ValueBudget(d)

	var sample, holdout []workload.Query
	for i, q := range d.Workload.Queries {
		if i%4 == 0 {
			sample = append(sample, q)
		} else {
			holdout = append(holdout, q)
		}
	}
	holdoutW := &workload.Workload{Queries: holdout}
	sanity := holdoutW.SanityBound()

	scoreOn := func(qs []workload.Query, s *core.Synopsis) float64 {
		est := core.NewEstimator(s)
		return workload.AvgRelError(qs, est.Selectivity, sanity)
	}

	var rows []AutoBudgetRow
	addRow := func(label string, s *core.Synopsis) {
		plan := s.Fingerprint().Plan
		row := AutoBudgetRow{
			Dataset:    d.Name,
			Split:      label,
			Provenance: string(plan.Provenance),
			Bstr:       plan.StructBudget(),
			Bval:       plan.ValueBudget(),
			Overall:    scoreOn(holdout, s),
		}
		if plan.HasValueSplit() {
			row.Plan = &plan
		}
		rows = append(rows, row)
	}

	// Fixed splits. The 50/50 row doubles as the acceptance baseline
	// for the adaptive row and as the planner's "serving synopsis":
	// its measured class errors and byte split are the profile an
	// adaptive rebuild would observe.
	var baseline *core.Synopsis
	for _, frac := range []float64{0.1, 0.3, 0.5} {
		bstr := int(frac * float64(total))
		s, err := core.XClusterBuild(d.Ref, core.BuildOptions{
			StructBudget: bstr, ValueBudget: total - bstr,
		})
		if err != nil {
			return nil, err
		}
		if frac == 0.5 {
			baseline = s
		}
		addRow(fmt.Sprintf("fixed %2.0f%% struct", frac*100), s)
	}

	s, _, _, err := core.AutoAllocate(d.Ref, total,
		func(s *core.Synopsis) float64 { return scoreOn(sample, s) },
		core.BuildOptions{})
	if err != nil {
		return nil, err
	}
	addRow("auto (sample-guided)", s)

	// Workload-adaptive: profile the sample through the 50/50 baseline,
	// plan a per-component split from the class mix, rebuild under it.
	dec, err := budget.Plan(budget.Inputs{
		TotalBytes:          total,
		Classes:             sampleClassStats(sample, baseline, sanity),
		WorkloadFingerprint: "bench-" + strings.ToLower(d.Name) + "-sample",
		Actual:              measureSplit(baseline),
	})
	if err != nil {
		return nil, err
	}
	plan := dec.Plan
	ws, err := core.XClusterBuild(d.Ref, core.BuildOptions{Plan: &plan})
	if err != nil {
		return nil, err
	}
	addRow("workload (planner)", ws)
	return rows, nil
}

// FormatAutoBudgetJSON renders the rows as the BENCH_autobudget.json
// artifact.
func FormatAutoBudgetJSON(rows []AutoBudgetRow) string {
	b, err := json.MarshalIndent(rows, "", "  ")
	if err != nil {
		return fmt.Sprintf(`{"error":%q}`, err)
	}
	return string(b)
}

// FormatAutoBudget renders the comparison as aligned text.
func FormatAutoBudget(rows []AutoBudgetRow) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "Budget allocation (one unified budget; held-out workload error)\n")
	fmt.Fprintf(&sb, "%-8s %-22s %-10s %10s %10s %12s\n",
		"Dataset", "split", "provenance", "Bstr(B)", "Bval(B)", "overall err")
	for _, r := range rows {
		fmt.Fprintf(&sb, "%-8s %-22s %-10s %10d %10d %11.1f%%\n",
			r.Dataset, r.Split, r.Provenance, r.Bstr, r.Bval, r.Overall*100)
	}
	return sb.String()
}
