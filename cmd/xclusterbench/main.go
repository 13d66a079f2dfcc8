// Command xclusterbench regenerates every table and figure of the
// paper's experimental study (Section 6) on the synthetic stand-ins for
// the IMDB and XMark data sets.
//
// Usage:
//
//	xclusterbench                       # everything, laptop scale
//	xclusterbench -scale 4 -points 11   # larger sweep
//	xclusterbench -table 1              # Table 1 only
//	xclusterbench -figure 8a            # Figure 8(a) only
//	xclusterbench -experiment negative  # negative-workload check
//	xclusterbench -experiment autobudget # fixed vs auto vs workload-planned budget splits (JSON)
//
// Absolute numbers differ from the paper (different hardware, synthetic
// data); the shapes — error falling with budget, struct error < 5%,
// XMark TEXT relative error inflated by tiny true selectivities while
// its absolute error stays around a tuple — are the reproduction target.
// See EXPERIMENTS.md for a paper-vs-measured discussion. Wall-clock
// timing is not measured here: the serving benchmark in bench/ and the
// `go test -bench` benchmarks cover it.
package main

import (
	"flag"
	"fmt"
	"os"
	"slices"
	"strings"
	"time"

	"xcluster/internal/harness"
)

// validExperiments lists the -experiment selector's legal values; an
// unknown name is a hard error naming them, not a silent no-op.
var validExperiments = []string{"negative", "ablations", "autobudget"}

var (
	validTables  = []string{"1", "2"}
	validFigures = []string{"8a", "8b", "9"}
)

// checkSelector exits with a usage error when an explicitly given
// selector flag names no known target.
func checkSelector(flagName, got string, valid []string) {
	if got != "" && !slices.Contains(valid, got) {
		fmt.Fprintf(os.Stderr, "xclusterbench: unknown -%s %q (valid: %s)\n",
			flagName, got, strings.Join(valid, ", "))
		os.Exit(2)
	}
}

func main() {
	scale := flag.Float64("scale", 1, "dataset scale multiplier")
	seed := flag.Int64("seed", 42, "data and workload seed")
	perClass := flag.Int("queries", 50, "workload queries per class")
	points := flag.Int("points", 6, "structural budget points in the Figure 8 sweep")
	table := flag.String("table", "", "run one table: 1 or 2")
	figure := flag.String("figure", "", "run one figure: 8a, 8b or 9")
	experiment := flag.String("experiment", "", "run one experiment: "+strings.Join(validExperiments, ", "))
	csvOut := flag.Bool("csv", false, "emit Figure 8 rows as CSV (for plotting)")
	flag.Parse()
	checkSelector("table", *table, validTables)
	checkSelector("figure", *figure, validFigures)
	checkSelector("experiment", *experiment, validExperiments)

	cfg := harness.Config{Scale: *scale, Seed: *seed, PerClass: *perClass, Points: *points}
	all := *table == "" && *figure == "" && *experiment == ""

	datasets := map[string]*harness.Dataset{}
	load := func(name string) *harness.Dataset {
		if d, ok := datasets[name]; ok {
			return d
		}
		t0 := time.Now()
		d, err := harness.NewDataset(name, cfg)
		if err != nil {
			fmt.Fprintf(os.Stderr, "xclusterbench: %v\n", err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "[%s: %d elements, reference %d nodes, %.1fs]\n",
			name, d.Tree.Len(), d.Ref.NumNodes(), time.Since(t0).Seconds())
		datasets[name] = d
		return d
	}

	check := func(err error) {
		if err != nil {
			fmt.Fprintf(os.Stderr, "xclusterbench: %v\n", err)
			os.Exit(1)
		}
	}

	if all || *table == "1" {
		var rows []harness.Table1Row
		for _, name := range harness.DatasetNames() {
			rows = append(rows, harness.Table1(load(name)))
		}
		fmt.Println(harness.FormatTable1(rows))
	}
	if all || *table == "2" {
		var rows []harness.Table2Row
		for _, name := range harness.DatasetNames() {
			rows = append(rows, harness.Table2(load(name)))
		}
		fmt.Println(harness.FormatTable2(rows))
	}
	printFig8 := func(name string, rows []harness.Fig8Row) {
		if *csvOut {
			fmt.Printf("dataset,bstr_bytes,total_kb,text,string,numeric,struct,overall\n")
			for _, r := range rows {
				fmt.Printf("%s,%d,%.1f,%.4f,%.4f,%.4f,%.4f,%.4f\n",
					name, r.StructBudget, r.TotalKB, r.Text, r.String, r.Numeric, r.Struct, r.Overall)
			}
			fmt.Println()
			return
		}
		fmt.Println(harness.FormatFigure8(name, rows))
	}
	if all || *figure == "8a" {
		rows, err := harness.Figure8(load("IMDB"), cfg)
		check(err)
		printFig8("a: IMDB", rows)
	}
	if all || *figure == "8b" {
		rows, err := harness.Figure8(load("XMark"), cfg)
		check(err)
		printFig8("b: XMark", rows)
	}
	if all || *figure == "9" {
		var rows []harness.Fig9Row
		for _, name := range harness.DatasetNames() {
			r, err := harness.Figure9(load(name), cfg)
			check(err)
			rows = append(rows, r...)
		}
		fmt.Println(harness.FormatFigure9(rows))
	}
	if all || *experiment == "negative" {
		var rows []harness.NegativeRow
		for _, name := range harness.DatasetNames() {
			r, err := harness.NegativeExperiment(load(name), cfg)
			check(err)
			rows = append(rows, r...)
		}
		fmt.Println(harness.FormatNegative(rows))
	}
	if all || *experiment == "ablations" {
		d := load("IMDB")
		th := harness.AblationTermHist(d, []int{4096, 1024, 256, 64})
		ps := harness.AblationPSTPruning(d, []float64{0.25, 0.5, 0.75, 0.9}, *seed)
		// XMark carries the structural-error signal (recursive
		// descriptions), which the policy comparison needs.
		bd, err := harness.AblationBuild(load("XMark"), cfg)
		check(err)
		fmt.Println(harness.FormatAblations(th, ps, bd))
		num := harness.AblationNumericSummaries(d, []int{512, 128, 64, 32}, *seed)
		fmt.Println(harness.FormatNumericAblation(num))
	}
	if *experiment == "autobudget" { // opt-in: several extra builds per dataset
		var rows []harness.AutoBudgetRow
		for _, name := range harness.DatasetNames() {
			r, err := harness.AutoBudgetExperiment(load(name), cfg)
			check(err)
			rows = append(rows, r...)
		}
		fmt.Fprintln(os.Stderr, harness.FormatAutoBudget(rows))
		fmt.Println(harness.FormatAutoBudgetJSON(rows))
	}
}
