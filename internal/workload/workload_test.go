package workload

import (
	"math"
	"testing"

	"xcluster/internal/accuracy"
	"xcluster/internal/datagen"
	"xcluster/internal/query"
	"xcluster/internal/xmltree"
)

func testTree(t testing.TB) *xmltree.Tree {
	t.Helper()
	return datagen.IMDB(datagen.IMDBConfig{Seed: 5, Movies: 120, Shows: 40})
}

func TestGeneratePositive(t *testing.T) {
	tr := testTree(t)
	w, err := Generate(tr, Options{Seed: 1, PerClass: 20})
	if err != nil {
		t.Fatal(err)
	}
	if len(w.Queries) != 80 {
		t.Fatalf("queries = %d, want 80", len(w.Queries))
	}
	ev := query.NewEvaluator(tr)
	for _, q := range w.Queries {
		if q.True <= 0 {
			t.Fatalf("positive workload query %s has selectivity %g", q.Q, q.True)
		}
		// Stored true selectivity matches re-evaluation.
		if got := ev.Selectivity(q.Q); got != q.True {
			t.Fatalf("stored %g, re-evaluated %g for %s", q.True, got, q.Q)
		}
	}
	// Class purity: predicate kinds match the class.
	for _, q := range w.Queries {
		kinds := q.Q.PredTypes()
		switch q.Class {
		case accuracy.Struct:
			if len(kinds) != 0 {
				t.Fatalf("struct query %s has predicates", q.Q)
			}
		case accuracy.Range:
			if !kinds[query.KindRange] || kinds[query.KindContains] || kinds[query.KindFTContains] {
				t.Fatalf("numeric query %s has kinds %v", q.Q, kinds)
			}
		case accuracy.Substring:
			if !kinds[query.KindContains] {
				t.Fatalf("string query %s has kinds %v", q.Q, kinds)
			}
		case accuracy.FTContains:
			if !kinds[query.KindFTContains] {
				t.Fatalf("text query %s has kinds %v", q.Q, kinds)
			}
		}
	}
}

func TestGenerateDeterministic(t *testing.T) {
	tr := testTree(t)
	a, _ := Generate(tr, Options{Seed: 9, PerClass: 10})
	b, _ := Generate(tr, Options{Seed: 9, PerClass: 10})
	if len(a.Queries) != len(b.Queries) {
		t.Fatal("same seed, different workloads")
	}
	for i := range a.Queries {
		if a.Queries[i].Q.String() != b.Queries[i].Q.String() {
			t.Fatalf("query %d differs: %s vs %s", i, a.Queries[i].Q, b.Queries[i].Q)
		}
	}
}

func TestGenerateNegative(t *testing.T) {
	tr := testTree(t)
	w, err := Generate(tr, Options{Seed: 2, PerClass: 10, Negative: true})
	if err != nil {
		t.Fatal(err)
	}
	for _, q := range w.Queries {
		if q.Class == accuracy.Struct {
			continue // structural twigs are sampled from the data, so positive
		}
		if q.True != 0 {
			t.Fatalf("negative query %s has selectivity %g", q.Q, q.True)
		}
	}
}

// TestRelError checks that the workload scorer charges each query the
// paper's per-query relative error: on a one-query workload,
// AvgRelError is that query's error with the sanity bound applied.
func TestRelError(t *testing.T) {
	cases := []struct{ truth, est, sanity, want float64 }{
		{100, 90, 10, 0.1}, // 10% under
		{1, 11, 10, 1},     // sanity bound caps a tiny count's error
		{0, 0, 0, 0},       // empty and exact, no sanity bound
	}
	for _, c := range cases {
		qs := []Query{{True: c.truth}}
		est := func(*query.Query) float64 { return c.est }
		if got := AvgRelError(qs, est, c.sanity); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("AvgRelError(truth %g, est %g, sanity %g) = %g, want %g",
				c.truth, c.est, c.sanity, got, c.want)
		}
	}
}

func TestSanityBound(t *testing.T) {
	w := &Workload{}
	for i := 1; i <= 100; i++ {
		w.Queries = append(w.Queries, Query{True: float64(i)})
	}
	// 10th percentile of 1..100 is ~11 (index 10).
	if got := w.SanityBound(); got != 11 {
		t.Fatalf("SanityBound = %g, want 11", got)
	}
	// Bound never drops below 1.
	w2 := &Workload{Queries: []Query{{True: 0.1}, {True: 0.2}, {True: 100}}}
	if got := w2.SanityBound(); got != 1 {
		t.Fatalf("SanityBound = %g, want 1", got)
	}
}

func TestEvaluatePerfectEstimator(t *testing.T) {
	tr := testTree(t)
	w, _ := Generate(tr, Options{Seed: 3, PerClass: 10})
	ev := query.NewEvaluator(tr)
	rep := w.Evaluate(ev.Selectivity)
	if rep.Overall != 0 {
		t.Fatalf("perfect estimator has error %g", rep.Overall)
	}
	for c, e := range rep.ByClass {
		if e != 0 {
			t.Fatalf("class %v error %g", c, e)
		}
	}
}

func TestEvaluateZeroEstimator(t *testing.T) {
	tr := testTree(t)
	w, _ := Generate(tr, Options{Seed: 3, PerClass: 10})
	rep := w.Evaluate(func(*query.Query) float64 { return 0 })
	// Every positive query is missed entirely: error near 1 (exactly 1
	// for queries above the sanity bound).
	if rep.Overall < 0.5 || rep.Overall > 1 {
		t.Fatalf("zero estimator error = %g", rep.Overall)
	}
}

func TestLowCountAndAbsError(t *testing.T) {
	qs := []Query{{True: 1}, {True: 2}, {True: 50}}
	low := LowCount(qs, 10)
	if len(low) != 2 {
		t.Fatalf("LowCount = %d", len(low))
	}
	got := AvgAbsError(low, func(*query.Query) float64 { return 2 })
	if math.Abs(got-0.5) > 1e-12 { // |1-2|=1, |2-2|=0 → avg 0.5
		t.Fatalf("AvgAbsError = %g", got)
	}
	if AvgAbsError(nil, nil) != 0 {
		t.Fatal("empty AvgAbsError")
	}
}

func TestAvgTrue(t *testing.T) {
	qs := []Query{{True: 10}, {True: 30}}
	if got := AvgTrue(qs); got != 20 {
		t.Fatalf("AvgTrue = %g", got)
	}
}

func TestPredicatePathPurity(t *testing.T) {
	// XMark has nested description texts that are NOT on the summarized
	// value paths; a generated text query must never reach them (the
	// paper samples twigs from the reference synopsis, so predicate
	// paths are unambiguous).
	tr := datagen.XMark(datagen.XMarkConfig{Seed: 9, Scale: 0.3})
	paths := datagen.XMarkValuePaths()
	wanted := make(map[string]bool, len(paths))
	for _, p := range paths {
		wanted[p] = true
	}
	w, err := Generate(tr, Options{Seed: 2, PerClass: 15, ValuePaths: paths})
	if err != nil {
		t.Fatal(err)
	}
	ev := query.NewEvaluator(tr)
	for _, q := range w.Queries {
		if q.Class == accuracy.Struct {
			continue
		}
		root := q.Q.Roots[0]
		for _, branch := range root.Children {
			if branch.Pred == nil {
				continue
			}
			steps := append(append([]query.Step{}, root.Steps...), branch.Steps...)
			for _, m := range ev.Matches(steps) {
				if !wanted[m.Path()] {
					t.Fatalf("query %s: predicate branch reaches unsummarized path %s", q.Q, m.Path())
				}
			}
		}
	}
}
