// Benchmarks regenerating every table and figure of the paper's
// evaluation (Section 6), plus micro-benchmarks of the pipeline stages.
// Each experiment benchmark reports its headline numbers as custom
// metrics so `go test -bench` output documents the reproduced shapes:
//
//	go test -bench=. -benchmem
//
// The experiments run at a reduced scale (the bench fixtures are ~20% of
// the default harness scale) so the full suite completes in minutes; use
// cmd/xclusterbench for full-scale runs.
package xcluster_test

import (
	"bytes"
	"runtime"
	"sync"
	"testing"

	"xcluster"
	"xcluster/internal/core"
	"xcluster/internal/datagen"
	"xcluster/internal/harness"
	"xcluster/internal/query"
	"xcluster/internal/workload"
	"xcluster/internal/xmltree"
)

// benchCfg is the shared experiment configuration for benchmarks. Scale 1
// (the harness default, ~15k-element documents) is the smallest scale at
// which the per-dataset budget balance reproduces the paper's shapes.
var benchCfg = harness.Config{Scale: 1, Seed: 42, PerClass: 30, Points: 4}

var (
	fixtureOnce sync.Once
	fixtures    map[string]*harness.Dataset
)

// datasets materializes the two benchmark datasets once per process.
func datasets(b *testing.B) map[string]*harness.Dataset {
	b.Helper()
	fixtureOnce.Do(func() {
		fixtures = make(map[string]*harness.Dataset)
		for _, name := range harness.DatasetNames() {
			d, err := harness.NewDataset(name, benchCfg)
			if err != nil {
				panic(err)
			}
			fixtures[name] = d
		}
	})
	return fixtures
}

// BenchmarkTable1DatasetCharacteristics regenerates Table 1: data set and
// reference-synopsis characteristics.
func BenchmarkTable1DatasetCharacteristics(b *testing.B) {
	ds := datasets(b)
	b.ResetTimer()
	var rows []harness.Table1Row
	for i := 0; i < b.N; i++ {
		rows = rows[:0]
		for _, name := range harness.DatasetNames() {
			rows = append(rows, harness.Table1(ds[name]))
		}
	}
	b.ReportMetric(float64(rows[0].Elements), "imdb-elements")
	b.ReportMetric(rows[0].RefKB, "imdb-ref-KB")
	b.ReportMetric(float64(rows[1].Elements), "xmark-elements")
	b.ReportMetric(rows[1].RefKB, "xmark-ref-KB")
}

// BenchmarkTable2WorkloadCharacteristics regenerates Table 2: average
// result sizes of the positive workloads.
func BenchmarkTable2WorkloadCharacteristics(b *testing.B) {
	ds := datasets(b)
	b.ResetTimer()
	var rows []harness.Table2Row
	for i := 0; i < b.N; i++ {
		rows = rows[:0]
		for _, name := range harness.DatasetNames() {
			rows = append(rows, harness.Table2(ds[name]))
		}
	}
	b.ReportMetric(rows[0].AvgStruct, "imdb-avg-struct")
	b.ReportMetric(rows[0].AvgPred, "imdb-avg-pred")
	b.ReportMetric(rows[1].AvgStruct, "xmark-avg-struct")
	b.ReportMetric(rows[1].AvgPred, "xmark-avg-pred")
}

// figure8Bench runs one panel of Figure 8 and reports the end-point
// errors: the coarsest (tag-level) and largest synopses of the sweep.
func figure8Bench(b *testing.B, name string) {
	d := datasets(b)[name]
	b.ResetTimer()
	var rows []harness.Fig8Row
	for i := 0; i < b.N; i++ {
		var err error
		rows, err = harness.Figure8(d, benchCfg)
		if err != nil {
			b.Fatal(err)
		}
	}
	first, last := rows[0], rows[len(rows)-1]
	b.ReportMetric(first.Overall*100, "overall%-min-budget")
	b.ReportMetric(last.Overall*100, "overall%-max-budget")
	b.ReportMetric(last.Numeric*100, "numeric%-max-budget")
	b.ReportMetric(last.String*100, "string%-max-budget")
	b.ReportMetric(last.Text*100, "text%-max-budget")
	b.ReportMetric(last.Struct*100, "struct%-max-budget")
}

// BenchmarkFigure8aIMDBError regenerates Figure 8(a): estimation error
// versus synopsis size on IMDB.
func BenchmarkFigure8aIMDBError(b *testing.B) { figure8Bench(b, "IMDB") }

// BenchmarkFigure8bXMarkError regenerates Figure 8(b): estimation error
// versus synopsis size on XMark.
func BenchmarkFigure8bXMarkError(b *testing.B) { figure8Bench(b, "XMark") }

// BenchmarkFigure9LowCountAbsoluteError regenerates Figure 9: average
// absolute error for low-count queries at the largest synopsis.
func BenchmarkFigure9LowCountAbsoluteError(b *testing.B) {
	ds := datasets(b)
	b.ResetTimer()
	var rows []harness.Fig9Row
	for i := 0; i < b.N; i++ {
		rows = rows[:0]
		for _, name := range harness.DatasetNames() {
			r, err := harness.Figure9(ds[name], benchCfg)
			if err != nil {
				b.Fatal(err)
			}
			rows = append(rows, r...)
		}
	}
	for _, r := range rows {
		if r.N > 0 {
			b.ReportMetric(r.AbsErr, r.Dataset+"-"+r.Class.String()+"-abs")
		}
	}
}

// BenchmarkNegativeWorkload verifies the Section 6.1 prose claim: zero
// estimates for zero-selectivity queries at the smallest budget.
func BenchmarkNegativeWorkload(b *testing.B) {
	ds := datasets(b)
	b.ResetTimer()
	var rows []harness.NegativeRow
	for i := 0; i < b.N; i++ {
		rows = rows[:0]
		for _, name := range harness.DatasetNames() {
			r, err := harness.NegativeExperiment(ds[name], benchCfg)
			if err != nil {
				b.Fatal(err)
			}
			rows = append(rows, r...)
		}
	}
	worst := 0.0
	for _, r := range rows {
		if r.MaxEst > worst {
			worst = r.MaxEst
		}
	}
	b.ReportMetric(worst, "worst-negative-estimate")
}

// ---- ablations ----

// BenchmarkAblationTermHist compares the end-biased term histogram
// against a conventional range-bucket histogram on term vectors (the
// Section 3 design argument).
func BenchmarkAblationTermHist(b *testing.B) {
	d := datasets(b)["IMDB"]
	b.ResetTimer()
	var rows []harness.AblationTermHistRow
	for i := 0; i < b.N; i++ {
		rows = harness.AblationTermHist(d, []int{1024, 128})
	}
	b.ReportMetric(rows[1].EndBiasedErr, "end-biased-err@128B")
	b.ReportMetric(rows[1].ConvErr, "conventional-err@128B")
	b.ReportMetric(rows[1].EndBiasedZero, "end-biased-absent@128B")
	b.ReportMetric(rows[1].ConvZero, "conventional-absent@128B")
}

// BenchmarkAblationPSTPruning compares pruning-error leaf ordering with
// naive lowest-count ordering (the st_cmprs design argument).
func BenchmarkAblationPSTPruning(b *testing.B) {
	d := datasets(b)["IMDB"]
	b.ResetTimer()
	var rows []harness.AblationPSTRow
	for i := 0; i < b.N; i++ {
		rows = harness.AblationPSTPruning(d, []float64{0.75}, 7)
	}
	b.ReportMetric(rows[0].ByErrorErr, "pruning-error-order")
	b.ReportMetric(rows[0].ByCountErr, "lowest-count-order")
}

// BenchmarkAblationBuildPolicy compares the full construction algorithm
// with the no-level-heuristic and random-merge baselines.
func BenchmarkAblationBuildPolicy(b *testing.B) {
	d := datasets(b)["IMDB"]
	b.ResetTimer()
	var rows []harness.AblationBuildRow
	for i := 0; i < b.N; i++ {
		var err error
		rows, err = harness.AblationBuild(d, benchCfg)
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, r := range rows {
		name := map[string]string{
			"localized Δ + levels":       "full%",
			"localized Δ, no levels":     "no-levels%",
			"global (TreeSketch) metric": "global%",
			"random merges":              "random%",
		}[r.Policy]
		b.ReportMetric(r.Overall*100, name)
	}
}

// BenchmarkAblationNumericSummaries compares histogram, wavelet and
// sample NUMERIC summaries at equal budgets on range estimation (the
// paper's Section 3 note that all three tools apply).
func BenchmarkAblationNumericSummaries(b *testing.B) {
	d := datasets(b)["IMDB"]
	b.ResetTimer()
	var rows []harness.AblationNumericRow
	for i := 0; i < b.N; i++ {
		rows = harness.AblationNumericSummaries(d, []int{128}, 7)
	}
	b.ReportMetric(rows[0].Histogram, "histogram-err@128B")
	b.ReportMetric(rows[0].Wavelet, "wavelet-err@128B")
	b.ReportMetric(rows[0].Sample, "sample-err@128B")
}

// BenchmarkAutoBudgetAllocation runs the Section 4.3 future-work
// extension: the unified-budget split search versus fixed splits, scored
// on held-out queries.
func BenchmarkAutoBudgetAllocation(b *testing.B) {
	d := datasets(b)["IMDB"]
	b.ResetTimer()
	var rows []harness.AutoBudgetRow
	for i := 0; i < b.N; i++ {
		var err error
		rows, err = harness.AutoBudgetExperiment(d, benchCfg)
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, r := range rows {
		if r.Split == "auto (sample-guided)" {
			b.ReportMetric(r.Overall*100, "auto-split%")
			b.ReportMetric(float64(r.Bstr), "auto-bstr-bytes")
		}
	}
}

// ---- micro-benchmarks ----

// BenchmarkBuildReference measures reference-synopsis construction.
func BenchmarkBuildReference(b *testing.B) {
	d := datasets(b)["IMDB"]
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ref, err := core.BuildReference(d.Tree, core.ReferenceOptions{ValuePaths: d.ValuePaths})
		if err != nil {
			b.Fatal(err)
		}
		_ = ref
	}
}

// BenchmarkXClusterBuild measures the two-phase compression to a mid
// budget, with the Δ-evaluation pool at one worker and at GOMAXPROCS
// workers: their ratio is what the build pool buys on this machine.
func BenchmarkXClusterBuild(b *testing.B) {
	d := datasets(b)["IMDB"]
	bstr := d.Ref.StructBytes() / 20
	bval := benchCfg.ValueBudget(d)
	for _, w := range []struct {
		name    string
		workers int
	}{
		{"workers=1", 1},
		{"workers=GOMAXPROCS", runtime.GOMAXPROCS(0)},
	} {
		b.Run(w.name, func(b *testing.B) {
			opts := core.BuildOptions{StructBudget: bstr, ValueBudget: bval, Workers: w.workers}
			for i := 0; i < b.N; i++ {
				if _, err := core.XClusterBuild(d.Ref, opts); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// served holds one synopsis file per dataset, built the way the serving
// benchmark (bench/) builds its collections.
var (
	servedOnce  sync.Once
	servedFiles map[string][]byte
)

// servedSynopses generates the IMDB and XMark scale-1 documents (seed 1),
// parses their XML text, builds the reference with default options and
// compresses it to StructBytes/20 and ValueBytes/3, then encodes it.
func servedSynopses(b *testing.B) map[string][]byte {
	b.Helper()
	servedOnce.Do(func() {
		servedFiles = make(map[string][]byte)
		for name, gen := range map[string]*xmltree.Tree{
			"IMDB":  datagen.IMDB(datagen.IMDBConfig{Seed: 1, Scale: 1}),
			"XMark": datagen.XMark(datagen.XMarkConfig{Seed: 1, Scale: 1}),
		} {
			var doc, file bytes.Buffer
			if err := xcluster.WriteXML(&doc, gen); err != nil {
				panic(err)
			}
			tree, err := xcluster.ParseXML(&doc)
			if err != nil {
				panic(err)
			}
			ref, err := core.BuildReference(tree, core.ReferenceOptions{})
			if err != nil {
				panic(err)
			}
			s, err := core.XClusterBuild(ref, core.BuildOptions{
				StructBudget: ref.StructBytes() / 20, ValueBudget: ref.ValueBytes() / 3,
			})
			if err != nil {
				panic(err)
			}
			if _, err := s.WriteTo(&file); err != nil {
				panic(err)
			}
			servedFiles[name] = file.Bytes()
		}
	})
	return servedFiles
}

// BenchmarkReadSynopsis measures decoding a served synopsis file, the
// part of a daemon's start-up that scales with the synopsis.
func BenchmarkReadSynopsis(b *testing.B) {
	files := servedSynopses(b)
	for _, name := range harness.DatasetNames() {
		b.Run(name, func(b *testing.B) {
			data := files[name]
			b.SetBytes(int64(len(data)))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := core.ReadSynopsis(bytes.NewReader(data)); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// benchSynopsis builds the mid-budget IMDB synopsis the estimation
// benchmarks share.
func benchSynopsis(b *testing.B) (*core.Synopsis, *harness.Dataset) {
	b.Helper()
	d := datasets(b)["IMDB"]
	s, err := benchCfg.BuildAt(d, d.Ref.StructBytes()/20)
	if err != nil {
		b.Fatal(err)
	}
	return s, d
}

// BenchmarkEstimate measures per-query estimation over a compressed
// synopsis (the operation a query optimizer issues). The workload
// repeats after the first pass, so with the default result cache this is
// dominated by cache hits; see BenchmarkEstimateCold for the uncached
// rate.
func BenchmarkEstimate(b *testing.B) {
	s, d := benchSynopsis(b)
	est := core.NewEstimator(s)
	qs := d.Workload.Queries
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		est.Selectivity(qs[i%len(qs)].Q)
	}
}

// BenchmarkEstimateCold measures estimation with both caches disabled:
// every call pays the full compile + execute cost, the baseline the
// prepared path is measured against.
func BenchmarkEstimateCold(b *testing.B) {
	s, d := benchSynopsis(b)
	est := core.NewEstimator(s)
	est.SetCacheCapacity(0)
	est.SetPlanCacheCapacity(0)
	qs := d.Workload.Queries
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		est.Selectivity(qs[i%len(qs)].Q)
	}
}

// BenchmarkPrepared measures executing already-compiled plans: the
// workload is Prepared once outside the timer, so each operation is the
// pure execute stage of the canonicalize → compile → execute pipeline.
// Compare ns/op with BenchmarkEstimateCold for the compilation ratio.
func BenchmarkPrepared(b *testing.B) {
	s, d := benchSynopsis(b)
	est := core.NewEstimator(s)
	est.SetCacheCapacity(0)
	qs := d.Workload.Queries
	prepared := make([]*core.PreparedQuery, len(qs))
	for i := range qs {
		pq, err := est.Prepare(qs[i].Q)
		if err != nil {
			b.Fatal(err)
		}
		prepared[i] = pq
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		prepared[i%len(prepared)].Selectivity()
	}
}

// BenchmarkEstimateCacheHit measures the pure cache-hit path (one query,
// already resident).
func BenchmarkEstimateCacheHit(b *testing.B) {
	s, d := benchSynopsis(b)
	est := core.NewEstimator(s)
	q := d.Workload.Queries[0].Q
	est.Selectivity(q) // warm
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		est.Selectivity(q)
	}
}

// BenchmarkEstimateParallel measures aggregate throughput of one shared
// estimator under GOMAXPROCS concurrent clients, cache disabled so every
// operation does real work (compare ns/op with BenchmarkEstimateCold for
// the scaling factor).
func BenchmarkEstimateParallel(b *testing.B) {
	s, d := benchSynopsis(b)
	est := core.NewEstimator(s)
	est.SetCacheCapacity(0)
	est.SetPlanCacheCapacity(0)
	qs := d.Workload.Queries
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		i := 0
		for pb.Next() {
			est.Selectivity(qs[i%len(qs)].Q)
			i++
		}
	})
}

// BenchmarkExactEvaluation measures exact binding-tuple counting over the
// document — the cost a synopsis avoids.
func BenchmarkExactEvaluation(b *testing.B) {
	d := datasets(b)["IMDB"]
	ev := query.NewEvaluator(d.Tree)
	qs := d.Workload.Queries
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ev.Selectivity(qs[i%len(qs)].Q)
	}
}

// BenchmarkWorkloadGeneration measures workload sampling + exact scoring.
func BenchmarkWorkloadGeneration(b *testing.B) {
	d := datasets(b)["XMark"]
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w, err := workload.Generate(d.Tree, workload.Options{
			Seed: int64(i), PerClass: 5, ValuePaths: d.ValuePaths,
		})
		if err != nil {
			b.Fatal(err)
		}
		_ = w
	}
}
