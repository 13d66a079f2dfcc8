package harness

import (
	"fmt"
	"runtime"
	"strings"
	"sync"

	"xcluster/internal/accuracy"
	"xcluster/internal/core"
	"xcluster/internal/workload"
)

// Table1Row is one row of Table 1 (data set characteristics).
type Table1Row struct {
	Dataset    string
	FileMB     float64
	Elements   int
	RefKB      float64
	ValueNodes int
	TotalNodes int
}

// Table1 reproduces Table 1: file size, element count, reference-synopsis
// size, and node counts (value / total).
func Table1(d *Dataset) Table1Row {
	return Table1Row{
		Dataset:    d.Name,
		FileMB:     float64(d.XMLBytes) / (1 << 20),
		Elements:   d.Tree.Len(),
		RefKB:      float64(d.Ref.TotalBytes()) / 1024,
		ValueNodes: d.Ref.NumValueNodes(),
		TotalNodes: d.Ref.NumNodes(),
	}
}

// Table2Row is one row of Table 2 (workload characteristics).
type Table2Row struct {
	Dataset    string
	AvgStruct  float64 // avg result size, structure-only queries
	AvgPred    float64 // avg result size, predicate queries
	NumQueries int
}

// Table2 reproduces Table 2: average result sizes of the positive
// workload, split into structure-only and predicate queries.
func Table2(d *Dataset) Table2Row {
	var pred []workload.Query
	for _, c := range []accuracy.Class{accuracy.Range, accuracy.Substring, accuracy.FTContains} {
		pred = append(pred, d.Workload.ByClass(c)...)
	}
	return Table2Row{
		Dataset:    d.Name,
		AvgStruct:  workload.AvgTrue(d.Workload.ByClass(accuracy.Struct)),
		AvgPred:    workload.AvgTrue(pred),
		NumQueries: len(d.Workload.Queries),
	}
}

// Fig8Row is one point of a Figure 8 error curve.
type Fig8Row struct {
	StructBudget int
	TotalKB      float64 // actual synopsis size (struct + value)
	Overall      float64
	Numeric      float64
	String       float64
	Text         float64
	Struct       float64
}

// Figure8 reproduces one panel of Figure 8: average relative estimation
// error versus synopsis size, per predicate class, at the config's sweep
// of structural budgets with the fixed value budget. The whole panel
// shares one merge phase (core.XClusterSweep snapshots each budget
// crossing) and the per-budget workload evaluations run in parallel.
func Figure8(d *Dataset, cfg Config) ([]Fig8Row, error) {
	budgets := cfg.StructBudgets(d)
	syns, err := core.XClusterSweep(d.Ref, budgets, cfg.ValueBudget(d), core.BuildOptions{})
	if err != nil {
		return nil, err
	}
	rows := make([]Fig8Row, len(budgets))
	workers := runtime.GOMAXPROCS(0)
	if workers > len(budgets) {
		workers = len(budgets)
	}
	var wg sync.WaitGroup
	next := make(chan int)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				s := syns[i]
				est := core.NewEstimator(s)
				rep := d.Workload.Evaluate(est.Selectivity)
				rows[i] = Fig8Row{
					StructBudget: budgets[i],
					TotalKB:      float64(s.TotalBytes()) / 1024,
					Overall:      rep.Overall,
					Numeric:      rep.ByClass[accuracy.Range],
					String:       rep.ByClass[accuracy.Substring],
					Text:         rep.ByClass[accuracy.FTContains],
					Struct:       rep.ByClass[accuracy.Struct],
				}
			}
		}()
	}
	for i := range budgets {
		next <- i
	}
	close(next)
	wg.Wait()
	return rows, nil
}

// Fig9Row is one cell of Figure 9: average absolute error for low-count
// queries of one class on one data set, at the largest synopsis.
type Fig9Row struct {
	Dataset string
	Class   accuracy.Class
	AbsErr  float64
	AvgTrue float64
	N       int
}

// Figure9 reproduces Figure 9: the average absolute error of low-count
// queries (true selectivity below the sanity bound) at the full
// structural budget, which explains the inflated relative errors of
// low-selectivity predicates.
func Figure9(d *Dataset, cfg Config) ([]Fig9Row, error) {
	budgets := cfg.StructBudgets(d)
	s, err := cfg.BuildAt(d, budgets[len(budgets)-1])
	if err != nil {
		return nil, err
	}
	est := core.NewEstimator(s)
	bound := d.Workload.SanityBound()
	var rows []Fig9Row
	for _, c := range []accuracy.Class{accuracy.Range, accuracy.Substring, accuracy.FTContains} {
		low := workload.LowCount(d.Workload.ByClass(c), bound)
		rows = append(rows, Fig9Row{
			Dataset: d.Name,
			Class:   c,
			AbsErr:  workload.AvgAbsError(low, est.Selectivity),
			AvgTrue: workload.AvgTrue(low),
			N:       len(low),
		})
	}
	return rows, nil
}

// NegativeRow summarizes the negative-workload experiment for one class.
type NegativeRow struct {
	Dataset string
	Class   accuracy.Class
	AvgEst  float64 // average estimate on zero-selectivity queries
	MaxEst  float64
	N       int
}

// NegativeExperiment verifies the prose claim of Section 6.1: XClusters
// consistently yield close-to-zero estimates for negative (zero
// selectivity) queries at any budget. It evaluates at the smallest
// structural budget, the hardest case.
func NegativeExperiment(d *Dataset, cfg Config) ([]NegativeRow, error) {
	s, err := cfg.BuildAt(d, 0)
	if err != nil {
		return nil, err
	}
	est := core.NewEstimator(s)
	var rows []NegativeRow
	for _, c := range []accuracy.Class{accuracy.Range, accuracy.Substring, accuracy.FTContains} {
		qs := d.Negative.ByClass(c)
		row := NegativeRow{Dataset: d.Name, Class: c, N: len(qs)}
		for _, q := range qs {
			e := est.Selectivity(q.Q)
			row.AvgEst += e
			if e > row.MaxEst {
				row.MaxEst = e
			}
		}
		if len(qs) > 0 {
			row.AvgEst /= float64(len(qs))
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// ---- formatting ----

// FormatTable1 renders Table 1 rows as aligned text.
func FormatTable1(rows []Table1Row) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "Table 1. Data Set Characteristics\n")
	fmt.Fprintf(&sb, "%-8s %12s %12s %12s %20s\n", "", "File Size(MB)", "# Elements", "Ref. Size(KB)", "# Nodes: Value/Total")
	for _, r := range rows {
		fmt.Fprintf(&sb, "%-8s %13.2f %12d %13.1f %13d / %d\n",
			r.Dataset, r.FileMB, r.Elements, r.RefKB, r.ValueNodes, r.TotalNodes)
	}
	return sb.String()
}

// FormatTable2 renders Table 2 rows as aligned text.
func FormatTable2(rows []Table2Row) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "Table 2. Workload Characteristics (Avg. Result Size)\n")
	fmt.Fprintf(&sb, "%-8s %12s %12s %10s\n", "", "Struct", "Pred", "#Queries")
	for _, r := range rows {
		fmt.Fprintf(&sb, "%-8s %12.0f %12.0f %10d\n", r.Dataset, r.AvgStruct, r.AvgPred, r.NumQueries)
	}
	return sb.String()
}

// FormatFigure8 renders a Figure 8 panel as a data table (one series per
// column, as the paper plots them).
func FormatFigure8(name string, rows []Fig8Row) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "Figure 8 (%s). Avg. Rel. Error (%%) vs Synopsis Size\n", name)
	fmt.Fprintf(&sb, "%10s %10s %8s %8s %8s %8s %8s\n",
		"Bstr(B)", "Size(KB)", "Text", "String", "Numeric", "Struct", "Overall")
	for _, r := range rows {
		fmt.Fprintf(&sb, "%10d %10.1f %8.1f %8.1f %8.1f %8.1f %8.1f\n",
			r.StructBudget, r.TotalKB, r.Text*100, r.String*100, r.Numeric*100,
			r.Struct*100, r.Overall*100)
	}
	return sb.String()
}

// FormatFigure9 renders Figure 9 as the paper's small table.
func FormatFigure9(rows []Fig9Row) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "Figure 9. Avg. Absolute Error for Low-Count Queries\n")
	fmt.Fprintf(&sb, "%-8s %-8s %12s %12s %6s\n", "Dataset", "Class", "AbsError", "AvgTrueSel", "N")
	for _, r := range rows {
		fmt.Fprintf(&sb, "%-8s %-8s %12.3f %12.2f %6d\n", r.Dataset, workload.ClassName(r.Class), r.AbsErr, r.AvgTrue, r.N)
	}
	return sb.String()
}

// FormatNegative renders the negative-workload summary.
func FormatNegative(rows []NegativeRow) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "Negative workload (zero-selectivity queries): estimates at Bstr=0\n")
	fmt.Fprintf(&sb, "%-8s %-8s %12s %12s %6s\n", "Dataset", "Class", "AvgEstimate", "MaxEstimate", "N")
	for _, r := range rows {
		fmt.Fprintf(&sb, "%-8s %-8s %12.4f %12.4f %6d\n", r.Dataset, workload.ClassName(r.Class), r.AvgEst, r.MaxEst, r.N)
	}
	return sb.String()
}
