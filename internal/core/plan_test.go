package core

import (
	"context"
	"math/rand"
	"slices"
	"strings"
	"sync"
	"testing"

	"xcluster/internal/query"
)

// planQueries is a workload spanning every pipeline feature: child and
// descendant axes, wildcards, multi-step edges, branching twigs,
// multiple predicates per query, all four predicate kinds, and
// zero-selectivity shapes.
var planQueries = []string{
	"//paper",
	"//paper/title",
	"/dblp/author/paper/year",
	"//author//title",
	"//*",
	"//*/year",
	"//author/*/title",
	"//paper[year>2000]",
	"//paper[year range(1999,2001)]/title",
	"//title[contains(Tree)]",
	"//paper[abstract ftcontains(xml,synopsis)]",
	"//keywords[ftsim(1,xml,quantum)]",
	"//paper[abstract ftsim(2,xml,synopsis)]",
	"//author[./paper[year>2001]][./paper/keywords]/name",
	"//author[.//title[contains(Book)]]",
	"//nosuchtag",
	"//paper[year>2999]",
	"//paper[title contains(zzzznothing)]",
	"//book[foreword ftcontains(database)]/title",
	"//author[name contains(Author)]//year",
}

// planEstimators builds estimators over the figure-1 reference and a
// heavily merged compression of it, so plans are exercised both on
// tight single-element clusters and on merged multi-path clusters.
func planEstimators(t testing.TB) map[string]*Estimator {
	t.Helper()
	tr := figure1(t)
	ref, err := BuildReference(tr, ReferenceOptions{})
	if err != nil {
		t.Fatal(err)
	}
	merged, err := XClusterBuild(ref, BuildOptions{StructBudget: 128, ValueBudget: 128})
	if err != nil {
		t.Fatal(err)
	}
	return map[string]*Estimator{
		"reference": NewEstimator(ref),
		"merged":    NewEstimator(merged),
	}
}

// TestCompiledMatchesInterpreter pins the tentpole invariant: for every
// query shape, the compiled plan's result equals the original memoized
// interpreter's bit-for-bit, through Selectivity, SelectivityContext,
// and PreparedQuery execution.
func TestCompiledMatchesInterpreter(t *testing.T) {
	for name, est := range planEstimators(t) {
		est.SetCacheCapacity(0) // estimates must come from execution, not the result cache
		for _, qs := range planQueries {
			q := query.MustParse(qs)
			want := est.interpretedSelectivity(q)
			if got := est.Selectivity(q); got != want {
				t.Errorf("%s: Selectivity(%s) = %v, interpreter %v", name, qs, got, want)
			}
			if got, err := est.SelectivityContext(context.Background(), q); err != nil || got != want {
				t.Errorf("%s: SelectivityContext(%s) = %v, %v, interpreter %v", name, qs, got, err, want)
			}
			pq, err := est.Prepare(q)
			if err != nil {
				t.Fatalf("%s: Prepare(%s): %v", name, qs, err)
			}
			if got := pq.Selectivity(); got != want {
				t.Errorf("%s: Prepared(%s) = %v, interpreter %v", name, qs, got, want)
			}
			if got, err := pq.SelectivityContext(context.Background()); err != nil || got != want {
				t.Errorf("%s: PreparedContext(%s) = %v, %v, interpreter %v", name, qs, got, err, want)
			}
		}
	}
}

// TestPreparedConcurrentExecution executes every prepared plan from 16
// goroutines at once; every result must equal the sequential answer
// bit-for-bit (run under -race).
func TestPreparedConcurrentExecution(t *testing.T) {
	est := planEstimators(t)["merged"]
	prepared := make([]*PreparedQuery, len(planQueries))
	want := make([]float64, len(planQueries))
	for i, qs := range planQueries {
		q := query.MustParse(qs)
		pq, err := est.Prepare(q)
		if err != nil {
			t.Fatal(err)
		}
		prepared[i] = pq
		want[i] = est.interpretedSelectivity(q)
	}
	const goroutines = 16
	var wg sync.WaitGroup
	errs := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g)))
			for r := 0; r < 200; r++ {
				i := rng.Intn(len(prepared))
				if got := prepared[i].Selectivity(); got != want[i] {
					errs <- &planMismatch{q: planQueries[i], got: got, want: want[i]}
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

type planMismatch struct {
	q         string
	got, want float64
}

func (e *planMismatch) Error() string { return e.q }

// TestPlanCache checks compile-once/execute-many accounting: the first
// Prepare of a shape misses the plan cache and compiles; repeats (and
// uncached Selectivity calls on the same shape) hit it and share the
// identical plan.
func TestPlanCache(t *testing.T) {
	est := planEstimators(t)["reference"]
	est.SetCacheCapacity(0)
	q := query.MustParse("//paper[year>2000]/title")

	pq1, err := est.Prepare(q)
	if err != nil {
		t.Fatal(err)
	}
	if st := est.PlanCacheStats(); st.Misses != 1 || st.Hits != 0 || st.Len != 1 {
		t.Fatalf("after first Prepare: %+v", st)
	}
	pq2, err := est.Prepare(query.MustParse("//paper[year>2000]/title"))
	if err != nil {
		t.Fatal(err)
	}
	if pq1.plan != pq2.plan {
		t.Fatal("re-Prepare of the same shape did not share the plan")
	}
	est.Selectivity(q) // uncached result → plan-cache hit
	if st := est.PlanCacheStats(); st.Misses != 1 || st.Hits != 2 {
		t.Fatalf("after reuse: %+v", st)
	}
	// WarmPlan is one lookup: a hit here, a compile for a new shape,
	// and either way the canonical string comes back.
	for i, s := range []string{"//paper[year>2000]/title", "//author/name"} {
		wq := query.MustParse(s)
		c, err := est.WarmPlan(wq, "")
		if err != nil || c != wq.String() {
			t.Fatalf("WarmPlan(%s) = %q, %v; want %q", s, c, err, wq.String())
		}
		if st := est.PlanCacheStats(); st.Hits != 3 || st.Misses != uint64(1+i) {
			t.Fatalf("after WarmPlan(%s): %+v", s, st)
		}
	}

	// Disabling the plan cache recompiles per call and reports zeros;
	// WarmPlan then only canonicalizes.
	est.SetPlanCacheCapacity(0)
	if _, err := est.Prepare(q); err != nil {
		t.Fatal(err)
	}
	if c, err := est.WarmPlan(q, ""); err != nil || c != q.String() {
		t.Fatalf("uncached WarmPlan = %q, %v", c, err)
	}
	if st := est.PlanCacheStats(); st != (CacheStats{}) {
		t.Fatalf("disabled plan cache reports %+v", st)
	}
}

// TestWarmPlanSkipsCachedAnswers: with the result cache on, WarmPlan
// skips a query whose answer is cached and whose plan is not, since its
// estimate never reaches the plan layer, and touches neither cache's
// counters doing so; a query with a cached plan keeps its one counted
// lookup, and one in neither cache compiles.
func TestWarmPlanSkipsCachedAnswers(t *testing.T) {
	est := planEstimators(t)["reference"]
	est.SetCacheCapacity(16)
	est.SetPlanCacheCapacity(1)
	a := query.MustParse("//paper[year>2000]/title")
	b := query.MustParse("//author/name")
	est.Selectivity(a) // answer cached; plan cached
	est.Selectivity(b) // answer cached; b's plan evicts a's
	res, plans := est.CacheStats(), est.PlanCacheStats()
	if c, err := est.WarmPlan(a, ""); err != nil || c != a.String() {
		t.Fatalf("WarmPlan(a) = %q, %v", c, err)
	}
	if st := est.PlanCacheStats(); st != plans {
		t.Fatalf("WarmPlan of a cached answer reached the plan cache: %+v, was %+v", st, plans)
	}
	if st := est.CacheStats(); st != res {
		t.Fatalf("WarmPlan counted a result-cache lookup: %+v, was %+v", st, res)
	}
	if _, err := est.WarmPlan(b, ""); err != nil {
		t.Fatal(err)
	}
	if st := est.PlanCacheStats(); st.Hits != plans.Hits+1 || st.Misses != plans.Misses {
		t.Fatalf("WarmPlan of a cached plan: %+v, was %+v", st, plans)
	}
	if _, err := est.WarmPlan(query.MustParse("//book/title"), ""); err != nil {
		t.Fatal(err)
	}
	if st := est.PlanCacheStats(); st.Misses != plans.Misses+1 {
		t.Fatalf("WarmPlan of a new shape did not compile: %+v, was %+v", st, plans)
	}
}

// TestExplainPlan checks the rendered plan names the resolved clusters
// and subproblem structure.
func TestExplainPlan(t *testing.T) {
	est := planEstimators(t)["reference"]
	pq, err := est.Prepare(query.MustParse("//paper[year>2000]/title"))
	if err != nil {
		t.Fatal(err)
	}
	out := pq.ExplainPlan()
	for _, want := range []string{"plan //paper[", "range(2001,", "subproblems", "lowered steps", "title", "s0"} {
		if !strings.Contains(out, want) {
			t.Errorf("ExplainPlan output missing %q:\n%s", want, out)
		}
	}
	if pq.Query() != query.MustParse("//paper[year>2000]/title").String() {
		t.Errorf("Query() = %q", pq.Query())
	}
	clusters := make(map[NodeID]bool)
	for _, sub := range pq.plan.subs {
		for _, term := range sub.terms {
			clusters[term.node] = true
		}
	}
	if pq.plan.NumSubproblems() == 0 || len(clusters) == 0 {
		t.Error("plan has no subproblems or clusters")
	}
}

// TestCompileRejectsStepless checks that a hand-built variable with no
// steps is a compile error (the interpreter panicked on it): Prepare,
// SelectivityContext and SelectivityTraced surface it, while the
// error-free Selectivity answers 0 and Explain no embeddings — none of
// them panics.
func TestCompileRejectsStepless(t *testing.T) {
	est := planEstimators(t)["reference"]
	bad := &query.Query{Roots: []*query.Node{{}}}
	if _, err := est.Prepare(bad); err == nil {
		t.Fatal("Prepare accepted a stepless variable")
	}
	if _, err := est.SelectivityContext(context.Background(), bad); err == nil {
		t.Fatal("SelectivityContext accepted a stepless variable")
	}
	if _, _, err := est.SelectivityTraced(context.Background(), bad); err == nil {
		t.Fatal("SelectivityTraced accepted a stepless variable")
	}
	if got := est.Selectivity(bad); got != 0 {
		t.Fatalf("Selectivity of a stepless variable = %v, want 0", got)
	}
	if ems := est.Explain(bad, 5); len(ems) != 0 {
		t.Fatalf("Explain of a stepless variable = %v, want none", ems)
	}
}

// TestReachSingleChildFastPath pins the A/B fast path to the generic
// frontier propagation: forcing multi-step traversal through a
// preceding wildcard descendant step must agree with the single-step
// shape on every suffix.
func TestReachSingleChildFastPath(t *testing.T) {
	est := planEstimators(t)["merged"]
	est.SetCacheCapacity(0)
	for _, pair := range [][2]string{
		{"//author/paper", "//author[./paper]"},
		{"//paper/title", "//paper[./title]"},
		{"//author/nosuch", "//author[./nosuch]"},
	} {
		a := est.Selectivity(query.MustParse(pair[0]))
		b := est.Selectivity(query.MustParse(pair[1]))
		if a != b {
			t.Errorf("fast path: %s = %v, %s = %v", pair[0], a, pair[1], b)
		}
	}
	// Direct comparison: reach via the fast path equals a frontier
	// rebuilt through the slow map+sort route (two-step //*/child).
	for id := range est.s.nodes {
		fast := est.reach(id, []query.Step{{Axis: query.Child, Label: "title"}})
		slow := est.reach(id, []query.Step{{Axis: query.Child, Label: query.Wildcard}})
		want := 0.0
		for _, w := range fast {
			want += w.w
		}
		got := 0.0
		for _, w := range slow {
			if est.s.nodes[w.id].Label == "title" {
				got += w.w
			}
		}
		if got != want {
			t.Errorf("node %d: fast-path title mass %v, wildcard-filtered %v", id, want, got)
		}
	}
}

// TestReachMatchesInterpreterFrontiers compares the compiler's reach —
// the dense accumulator — with the interpreter's map-based reach
// frontier by frontier: the same cluster ids in the same order with
// bit-identical weights, from the document and from every cluster, over
// step sequences covering both axes, wildcards, unknown labels and
// multi-step paths. On the merged synopsis every edge into "title" has
// its average count zeroed first, so frontiers carry clusters whose
// weight is 0: a touched cluster stays in the frontier (and so becomes
// a term and a subproblem origin) exactly as the map kept its entry.
func TestReachMatchesInterpreterFrontiers(t *testing.T) {
	ests := planEstimators(t)
	zeroed := ests["merged"].Synopsis().Clone()
	zeros := 0
	for _, n := range zeroed.nodes {
		for c := range n.Children {
			if zeroed.nodes[c].Label == "title" {
				n.Children[c] = 0
				zeros++
			}
		}
	}
	if zeros == 0 {
		t.Fatal("fixture has no edge into a title cluster")
	}
	ests["zeroed"] = NewEstimator(zeroed)
	paths := []string{
		"//title", "/title", "/*", "//*", "//*/title", "/*/*", "//author//title",
		"/author/paper/title", "//nosuch", "/nosuch/title", "//paper/*", "/dblp//*/title",
	}
	for name, est := range ests {
		ids := []NodeID{-1}
		for _, n := range est.s.Nodes() {
			ids = append(ids, n.ID)
		}
		zeroSeen := false
		for _, p := range paths {
			steps := query.MustParse(p).Roots[0].Steps
			for _, from := range ids {
				want := est.reach(from, steps)
				c := est.getCompiler()
				got := slices.Clone(c.reach(from, steps))
				est.scratch.Put(c)
				if !slices.Equal(got, want) {
					t.Errorf("%s: reach(%d, %s) = %v, interpreter %v", name, from, p, got, want)
				}
				for _, w := range got {
					zeroSeen = zeroSeen || w.w == 0
				}
			}
		}
		if name == "zeroed" && !zeroSeen {
			t.Error("zeroed: no frontier carried a zero-weight cluster")
		}
	}
	// The zero-weight clusters reach the plan: the compiled estimate and
	// the explain text agree with the interpreter's frontier.
	est := ests["zeroed"]
	est.SetCacheCapacity(0)
	for _, s := range []string{"//paper/title", "//author[.//title]/name", "//*[./title]"} {
		q := query.MustParse(s)
		if got, want := est.Selectivity(q), est.interpretedSelectivity(q); got != want {
			t.Errorf("zeroed: Selectivity(%s) = %v, interpreter %v", s, got, want)
		}
	}
}
