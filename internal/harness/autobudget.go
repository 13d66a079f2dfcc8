package harness

import (
	"context"
	"encoding/json"
	"fmt"
	"strings"
	"time"

	"xcluster/internal/budget"
	"xcluster/internal/core"
	"xcluster/internal/profile"
	"xcluster/internal/workload"
)

// AutoBudgetRow compares one structural/value split of a unified budget.
type AutoBudgetRow struct {
	Dataset string `json:"dataset"`
	// Split is the human label; Provenance is the synopsis
	// fingerprint's: static (fixed split), auto (sample-guided search)
	// or workload (the same search, scored on the profiled shapes of
	// the sample).
	Split      string `json:"split"`
	Provenance string `json:"provenance"`
	Bstr       int    `json:"bstr_bytes"`
	Bval       int    `json:"bval_bytes"`
	// WorkloadFingerprint is the fingerprint of the profile the
	// workload row was searched on; fixed and auto rows omit it.
	WorkloadFingerprint string `json:"workload_fingerprint,omitempty"`
	// Overall is the average relative error on the held-out workload
	// (queries never shown to either search).
	Overall float64 `json:"overall_err"`
}

// AutoBudgetExperiment exercises the Section 4.3 future-work extension:
// given one total budget, it compares three ways of splitting it —
// fixed structural/value fractions, the split chosen by
// core.AutoAllocate on the sample queries, and the split an adaptive
// rebuild would choose after serving the sample (budget.Plan on the
// profiler's shapes, the same function the serving layer runs). Both
// searches see every fourth workload query (the "sample workload" of
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
		fp := s.Fingerprint()
		rows = append(rows, AutoBudgetRow{
			Dataset:             d.Name,
			Split:               label,
			Provenance:          string(fp.Provenance),
			Bstr:                fp.StructBudget,
			Bval:                fp.ValueBudget,
			WorkloadFingerprint: fp.WorkloadFingerprint,
			Overall:             scoreOn(holdout, s),
		})
	}

	// Fixed splits. The 50/50 row's fingerprint is the one the adaptive
	// row inherits, as a rebuild of a 50/50 synopsis would.
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

	s, _, err := core.AutoAllocate(context.Background(), d.Ref, total,
		func(s *core.Synopsis) float64 { return scoreOn(sample, s) },
		core.BuildOptions{})
	if err != nil {
		return nil, err
	}
	addRow("auto (sample-guided)", s)

	// Workload-adaptive: serve the sample through a profiler, then
	// plan from its shapes. The clock is fixed so the profile's
	// fingerprint, and with it the artifact, is reproducible.
	prof := profile.New(0)
	at := time.Unix(0, 0)
	for _, q := range sample {
		prof.Record(at, q.Q, q.Q.String(), 0, 0, 0, false)
	}
	_, ws, err := budget.Plan(context.Background(), budget.Inputs{
		Inherited:           baseline.Fingerprint(),
		WorkloadFingerprint: prof.Fingerprint(at),
		Shapes:              prof.Representatives(),
	}, d.Ref, d.Tree, core.BuildOptions{})
	if err != nil {
		return nil, err
	}
	addRow("workload (profiled)", ws)
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
