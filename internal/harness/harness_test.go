package harness

import (
	"strings"
	"testing"

	"xcluster/internal/accuracy"
)

// smallCfg keeps harness tests fast.
func smallCfg() Config {
	return Config{Scale: 0.2, Seed: 7, PerClass: 10, Points: 3}
}

func TestNewDataset(t *testing.T) {
	for _, name := range DatasetNames() {
		d, err := NewDataset(name, smallCfg())
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if d.Tree.Len() == 0 || d.Ref.NumNodes() == 0 {
			t.Fatalf("%s: empty dataset", name)
		}
		if len(d.Workload.Queries) == 0 || len(d.Negative.Queries) == 0 {
			t.Fatalf("%s: empty workloads", name)
		}
		if d.XMLBytes == 0 {
			t.Fatalf("%s: zero file size", name)
		}
		if err := d.Ref.Validate(); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
	}
	if _, err := NewDataset("nope", smallCfg()); err == nil {
		t.Fatal("unknown dataset accepted")
	}
}

func TestTables(t *testing.T) {
	d, err := NewDataset("IMDB", smallCfg())
	if err != nil {
		t.Fatal(err)
	}
	t1 := Table1(d)
	if t1.Elements != d.Tree.Len() || t1.TotalNodes != d.Ref.NumNodes() {
		t.Fatalf("Table1 = %+v", t1)
	}
	if t1.ValueNodes == 0 || t1.RefKB <= 0 || t1.FileMB <= 0 {
		t.Fatalf("Table1 = %+v", t1)
	}
	t2 := Table2(d)
	if t2.AvgStruct <= 0 || t2.AvgPred <= 0 {
		t.Fatalf("Table2 = %+v", t2)
	}
	out := FormatTable1([]Table1Row{t1}) + FormatTable2([]Table2Row{t2})
	for _, want := range []string{"IMDB", "Elements", "Struct"} {
		if !strings.Contains(out, want) {
			t.Fatalf("formatted output missing %q:\n%s", want, out)
		}
	}
}

func TestFigure8SweepShape(t *testing.T) {
	if testing.Short() {
		t.Skip("full experiment sweep; skipped in -short")
	}
	cfg := smallCfg()
	d, err := NewDataset("IMDB", cfg)
	if err != nil {
		t.Fatal(err)
	}
	rows, err := Figure8(d, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != cfg.Points {
		t.Fatalf("rows = %d, want %d", len(rows), cfg.Points)
	}
	// Budgets increase, sizes stay sane, errors are finite and the final
	// (full-budget) overall error does not exceed the coarsest one by
	// much — the headline shape of the paper.
	for i, r := range rows {
		if i > 0 && r.StructBudget <= rows[i-1].StructBudget {
			t.Fatalf("budgets not increasing: %+v", rows)
		}
		for _, e := range []float64{r.Overall, r.Numeric, r.String, r.Text, r.Struct} {
			if e < 0 || e > 100 {
				t.Fatalf("implausible error %g in %+v", e, r)
			}
		}
	}
	first, last := rows[0].Overall, rows[len(rows)-1].Overall
	if last > first+0.05 {
		t.Fatalf("error grew with budget: %g -> %g", first, last)
	}
	out := FormatFigure8("IMDB", rows)
	if !strings.Contains(out, "Overall") {
		t.Fatal("missing header")
	}
}

func TestFigure9AndNegative(t *testing.T) {
	if testing.Short() {
		t.Skip("full experiment sweep; skipped in -short")
	}
	cfg := smallCfg()
	d, err := NewDataset("XMark", cfg)
	if err != nil {
		t.Fatal(err)
	}
	rows, err := Figure9(d, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("Figure9 rows = %d", len(rows))
	}
	for _, r := range rows {
		if r.AbsErr < 0 {
			t.Fatalf("negative abs error: %+v", r)
		}
	}
	neg, err := NegativeExperiment(d, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range neg {
		if r.N == 0 {
			continue
		}
		// The paper: estimates close to zero for all budgets. Allow a
		// small epsilon per query.
		if r.AvgEst > 1.0 {
			t.Fatalf("negative workload avg estimate %g for %s/%v", r.AvgEst, r.Dataset, r.Class)
		}
	}
	_ = FormatFigure9(rows)
	_ = FormatNegative(neg)
}

func TestAblations(t *testing.T) {
	if testing.Short() {
		t.Skip("full experiment sweep; skipped in -short")
	}
	cfg := smallCfg()
	d, err := NewDataset("IMDB", cfg)
	if err != nil {
		t.Fatal(err)
	}
	th := AblationTermHist(d, []int{2048, 128})
	if len(th) != 2 {
		t.Fatalf("termhist rows = %d", len(th))
	}
	for _, r := range th {
		// The end-biased histogram never leaks frequency onto absent
		// terms — the paper's core argument for the design.
		if r.EndBiasedZero != 0 {
			t.Fatalf("end-biased absent-term frequency %g at %dB", r.EndBiasedZero, r.Budget)
		}
		if r.EndBiasedErr < 0 || r.ConvErr < 0 {
			t.Fatalf("negative errors: %+v", r)
		}
	}
	ps := AblationPSTPruning(d, []float64{0.5}, 3)
	if len(ps) != 1 || ps[0].Nodes <= 0 {
		t.Fatalf("pst rows = %+v", ps)
	}
	num := AblationNumericSummaries(d, []int{256, 64}, 3)
	if len(num) != 2 {
		t.Fatalf("numeric rows = %d", len(num))
	}
	for _, r := range num {
		for _, e := range []float64{r.Histogram, r.MaxDiff, r.Wavelet, r.Sample} {
			if e < 0 {
				t.Fatalf("negative error in %+v", r)
			}
		}
	}
	if !strings.Contains(FormatNumericAblation(num), "maxdiff") {
		t.Fatal("numeric ablation format")
	}
	bd, err := AblationBuild(d, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(bd) != 4 {
		t.Fatalf("build rows = %d", len(bd))
	}
	// Random merging must not beat the Δ-guided construction.
	var full, random float64
	for _, r := range bd {
		switch r.Policy {
		case "localized Δ + levels":
			full = r.Overall
		case "random merges":
			random = r.Overall
		}
	}
	if full > random {
		t.Fatalf("Δ-guided build (%.3f) worse than random merging (%.3f)", full, random)
	}
	out := FormatAblations(th, ps, bd)
	if !strings.Contains(out, "end-biased") || !strings.Contains(out, "random merges") {
		t.Fatal("missing ablation sections")
	}
}

func TestAutoBudgetExperiment(t *testing.T) {
	if testing.Short() {
		t.Skip("full experiment sweep; skipped in -short")
	}
	cfg := smallCfg()
	d, err := NewDataset("IMDB", cfg)
	if err != nil {
		t.Fatal(err)
	}
	rows, err := AutoBudgetExperiment(d, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 5 {
		t.Fatalf("rows = %d, want 5 (3 fixed + auto + workload)", len(rows))
	}
	for _, r := range rows {
		if r.Overall < 0 || r.Bstr < 0 || r.Bval < 0 {
			t.Fatalf("bad row %+v", r)
		}
	}
	if rows[3].Split != "auto (sample-guided)" || rows[3].Provenance != "auto" {
		t.Fatalf("auto row = %+v", rows[3])
	}
	wl := rows[4]
	if wl.Split != "workload (profiled)" || wl.Provenance != "workload" {
		t.Fatalf("workload row = %+v", wl)
	}
	if wl.WorkloadFingerprint == "" {
		t.Fatalf("workload row carries no workload fingerprint: %+v", wl)
	}
	if wl.Bstr+wl.Bval != rows[2].Bstr+rows[2].Bval {
		t.Fatalf("workload row total %d != fixed 50%% total %d",
			wl.Bstr+wl.Bval, rows[2].Bstr+rows[2].Bval)
	}
	out := FormatAutoBudget(rows)
	if !strings.Contains(out, "auto") || !strings.Contains(out, "workload") {
		t.Fatal("format missing auto or workload row")
	}
	if !strings.Contains(FormatAutoBudgetJSON(rows), `"provenance": "workload"`) {
		t.Fatal("JSON missing workload provenance")
	}
}

func TestBudgetHelpers(t *testing.T) {
	cfg := smallCfg()
	d, _ := NewDataset("IMDB", cfg)
	budgets := cfg.StructBudgets(d)
	if budgets[0] != 0 || budgets[len(budgets)-1] > d.Ref.StructBytes() || budgets[len(budgets)-1] <= 0 {
		t.Fatalf("budgets = %v", budgets)
	}
	if vb := cfg.ValueBudget(d); vb <= 0 || vb >= d.Ref.ValueBytes() {
		t.Fatalf("value budget = %d (ref %d)", vb, d.Ref.ValueBytes())
	}
	// Evaluate on the workload's own classes to ensure coverage.
	for _, c := range []accuracy.Class{accuracy.Range, accuracy.Substring, accuracy.FTContains, accuracy.Struct} {
		if len(d.Workload.ByClass(c)) == 0 {
			t.Fatalf("class %v empty", c)
		}
	}
}
