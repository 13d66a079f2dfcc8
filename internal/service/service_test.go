package service

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"xcluster/internal/core"
	"xcluster/internal/query"
	"xcluster/internal/xmltree"
)

// testDoc generates a document with enough tag and value variety that a
// small structural budget forces real cluster merges.
func testDoc() string {
	var b strings.Builder
	b.WriteString("<library>")
	for i := 0; i < 120; i++ {
		fmt.Fprintf(&b, "<book><title>Title %d</title><year>%d</year><pages>%d</pages>",
			i, 1950+i%60, 100+(7*i)%400)
		if i%3 == 0 {
			fmt.Fprintf(&b, "<summary>systems design analysis volume %d concurrency</summary>", i)
		}
		b.WriteString("</book>")
		if i%4 == 0 {
			fmt.Fprintf(&b, "<journal><title>Journal %d</title><year>%d</year></journal>", i, 1960+i%50)
		}
	}
	b.WriteString("</library>")
	return b.String()
}

// runBatch runs qs as one batch on the pinned slot sl and returns the
// positional estimates and pipeline traces.
func runBatch(ctx context.Context, svc *Service, sl *slot, qs []*query.Query) ([]float64, []*core.EstimateTrace, error) {
	batch := make([]batchQuery, len(qs))
	for i, q := range qs {
		batch[i].q = q
	}
	err := svc.estimateBatch(ctx, sl, batch)
	vs := make([]float64, len(qs))
	trs := make([]*core.EstimateTrace, len(qs))
	for i, bq := range batch {
		vs[i], trs[i] = bq.sel, bq.tr
	}
	return vs, trs, err
}

var testWorkload = []string{
	"//book",
	"//book/title",
	"//book[year>1990]",
	"//book[year>1990]/title",
	"//book[pages>=300]",
	"//book[year>1980][pages<250]",
	"//book[summary ftcontains(concurrency)]",
	"//book[title contains(Title 1)]",
	"//journal[year<2000]/title",
	"//library/book[year range(1960,1975)]",
}

// newTestSynopsis builds a compressed synopsis of testDoc.
func newTestSynopsis(t testing.TB) *core.Synopsis {
	t.Helper()
	tree, err := xmltree.Parse(strings.NewReader(testDoc()), xmltree.ParseOptions{})
	if err != nil {
		t.Fatal(err)
	}
	ref, err := core.BuildReference(tree, core.ReferenceOptions{})
	if err != nil {
		t.Fatal(err)
	}
	syn, err := core.XClusterBuild(ref, core.BuildOptions{StructBudget: 512, ValueBudget: 512})
	if err != nil {
		t.Fatal(err)
	}
	return syn
}

func parseWorkload(t testing.TB) []*query.Query {
	t.Helper()
	qs := make([]*query.Query, len(testWorkload))
	for i, s := range testWorkload {
		q, err := query.Parse(s)
		if err != nil {
			t.Fatalf("%s: %v", s, err)
		}
		qs[i] = q
	}
	return qs
}

// sequentialAnswers computes the ground truth with a fresh, cache-less
// estimator: the values every concurrent path must reproduce bit-for-bit.
func sequentialAnswers(syn *core.Synopsis, qs []*query.Query) []float64 {
	est := core.NewEstimator(syn)
	est.SetCacheCapacity(0)
	out := make([]float64, len(qs))
	for i, q := range qs {
		out[i] = est.Selectivity(q)
	}
	return out
}

func TestEstimateMatchesSequential(t *testing.T) {
	syn := newTestSynopsis(t)
	qs := parseWorkload(t)
	want := sequentialAnswers(syn, qs)
	svc := New(syn)
	for i, q := range qs {
		got, err := svc.Estimate(context.Background(), q)
		if err != nil {
			t.Fatalf("query %d: %v", i, err)
		}
		if got != want[i] {
			t.Fatalf("query %d (%s): service %v != sequential %v", i, testWorkload[i], got, want[i])
		}
	}
	if st := svc.Stats(); st.Served != uint64(len(qs)) {
		t.Fatalf("served = %d, want %d", st.Served, len(qs))
	}
}

func TestEstimateBatchMatchesSequential(t *testing.T) {
	syn := newTestSynopsis(t)
	qs := parseWorkload(t)
	want := sequentialAnswers(syn, qs)
	// A big batch with repeated shapes: results must stay positional.
	const rep = 16
	big := make([]*query.Query, 0, rep*len(qs))
	for r := 0; r < rep; r++ {
		big = append(big, qs...)
	}
	svc := New(syn)
	got, err := svc.EstimateBatch(context.Background(), big)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(big) {
		t.Fatalf("len = %d, want %d", len(got), len(big))
	}
	for i, v := range got {
		if v != want[i%len(qs)] {
			t.Fatalf("batch[%d]: %v != sequential %v", i, v, want[i%len(qs)])
		}
	}
	// The empty batch is a no-op, not an error.
	if out, err := svc.EstimateBatch(context.Background(), nil); err != nil || len(out) != 0 {
		t.Fatalf("empty batch: %v, %v", out, err)
	}
}

// TestConcurrentHammer drives one shared Estimator and one Service from
// 32 goroutines with a mixed twig workload and requires every answer to
// match the sequential ground truth bit-for-bit. Run under -race.
func TestConcurrentHammer(t *testing.T) {
	syn := newTestSynopsis(t)
	qs := parseWorkload(t)
	want := sequentialAnswers(syn, qs)
	svc := New(syn)
	shared := svc.Estimator()

	const goroutines = 32
	const rounds = 25
	var wg sync.WaitGroup
	errs := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				// Each goroutine walks the workload in its own rotation
				// so different queries are in flight at the same time.
				i := (g + r) % len(qs)
				if v := shared.Selectivity(qs[i]); v != want[i] {
					errs <- fmt.Errorf("goroutine %d: estimator %s = %v, want %v", g, testWorkload[i], v, want[i])
					return
				}
				v, err := svc.Estimate(context.Background(), qs[i])
				if err != nil {
					errs <- fmt.Errorf("goroutine %d: service: %v", g, err)
					return
				}
				if v != want[i] {
					errs <- fmt.Errorf("goroutine %d: service %s = %v, want %v", g, testWorkload[i], v, want[i])
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
	st := svc.Stats()
	if st.Served != goroutines*rounds {
		t.Fatalf("served = %d, want %d", st.Served, goroutines*rounds)
	}
	if st.Cache.Hits == 0 {
		t.Fatalf("no cache hits after %d repeated queries: %+v", goroutines*rounds, st.Cache)
	}
}

func TestTimeoutAndCancellation(t *testing.T) {
	syn := newTestSynopsis(t)
	qs := parseWorkload(t)

	// The cache would short-circuit before the deadline check, so these
	// paths run uncached.
	svc := New(syn, WithCacheCapacity(0), WithTimeout(time.Nanosecond))
	if _, err := svc.Estimate(context.Background(), qs[0]); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("timeout: %v, want DeadlineExceeded", err)
	}
	if _, err := svc.EstimateBatch(context.Background(), qs); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("batch timeout: %v, want DeadlineExceeded", err)
	}
	if st := svc.Stats(); st.Failed == 0 || st.Served != 0 {
		t.Fatalf("stats after timeouts: %+v", st)
	}

	svc2 := New(syn, WithCacheCapacity(0))
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := svc2.Estimate(ctx, qs[0]); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancel: %v, want Canceled", err)
	}
	_, err := svc2.EstimateBatch(ctx, qs)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("batch cancel: %v, want Canceled", err)
	}
	if !strings.Contains(err.Error(), "query") {
		t.Fatalf("batch error %q does not identify the failing query", err)
	}
}

func TestStatsPercentiles(t *testing.T) {
	syn := newTestSynopsis(t)
	qs := parseWorkload(t)
	svc := New(syn)
	for r := 0; r < 3; r++ {
		if _, err := svc.EstimateBatch(context.Background(), qs); err != nil {
			t.Fatal(err)
		}
	}
	st := svc.Stats()
	if st.Served != uint64(3*len(qs)) {
		t.Fatalf("served = %d", st.Served)
	}
	if st.LatencySamples != 3*len(qs) {
		t.Fatalf("latency samples = %d", st.LatencySamples)
	}
	if st.P50 < 0 || st.P99 < st.P50 {
		t.Fatalf("p50 = %v, p99 = %v", st.P50, st.P99)
	}
	// Rounds 2 and 3 repeat round 1's queries, so the cache must hit.
	if st.Cache.Hits < uint64(2*len(qs)) {
		t.Fatalf("cache hits = %d, want >= %d", st.Cache.Hits, 2*len(qs))
	}
	if st.Cache.HitRate() <= 0 || st.Cache.HitRate() > 1 {
		t.Fatalf("hit rate = %v", st.Cache.HitRate())
	}
	if st.Uptime <= 0 {
		t.Fatalf("uptime = %v", st.Uptime)
	}
}

// TestEstimateBatchCompilesOnce pins the batch pipeline's compile-once
// guarantee: a batch full of repeated query shapes compiles each
// distinct shape exactly once, no matter how many workers race over it
// (plan-cache misses count compilations).
func TestEstimateBatchCompilesOnce(t *testing.T) {
	syn := newTestSynopsis(t)
	qs := parseWorkload(t)
	const rep = 32
	big := make([]*query.Query, 0, rep*len(qs))
	for r := 0; r < rep; r++ {
		// Re-parse so repeated shapes are distinct *query.Query values:
		// dedup must happen on the canonical string, not on pointers.
		for _, s := range testWorkload {
			big = append(big, query.MustParse(s))
		}
	}
	// Result cache off so every execution reaches the plan layer.
	svc := New(syn, WithCacheCapacity(0))
	if _, err := svc.EstimateBatch(context.Background(), big); err != nil {
		t.Fatal(err)
	}
	st := svc.Stats().PlanCache
	if st.Misses != uint64(len(qs)) {
		t.Fatalf("plan-cache misses = %d, want exactly %d (one compile per distinct shape)", st.Misses, len(qs))
	}
	if st.Hits == 0 {
		t.Fatalf("plan cache never hit across %d repeated executions: %+v", rep*len(qs), st)
	}
	// Each query costs exactly two plan-cache lookups: one in the warm
	// pass and one when its estimate misses the (disabled) result cache.
	if got := st.Hits + st.Misses; got != uint64(2*len(big)) {
		t.Fatalf("plan-cache lookups = %d, want %d (2 per query)", got, 2*len(big))
	}
	// A second identical batch compiles nothing new, and every estimate
	// carries its own query's canonical string from the warm pass.
	_, trs, err := runBatch(context.Background(), svc, svc.cur.Load(), big)
	if err != nil {
		t.Fatal(err)
	}
	if after := svc.Stats().PlanCache; after.Misses != st.Misses {
		t.Fatalf("second batch recompiled: misses %d -> %d", st.Misses, after.Misses)
	}
	for i, tr := range trs {
		if want := big[i].String(); tr.Canonical != want || tr.CanonicalHash != core.CanonicalHash(want) {
			t.Fatalf("batch[%d] traced as %q (hash %x), want %q", i, tr.Canonical, tr.CanonicalHash, want)
		}
	}

	// With the plan cache disabled the batch still answers correctly.
	want := sequentialAnswers(syn, qs)
	svc2 := New(syn, WithCacheCapacity(0), WithPlanCacheCapacity(0))
	got, err := svc2.EstimateBatch(context.Background(), big)
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range got {
		if v != want[i%len(qs)] {
			t.Fatalf("uncached batch[%d]: %v != sequential %v", i, v, want[i%len(qs)])
		}
	}
	if st := svc2.Stats().PlanCache; st != (core.CacheStats{}) {
		t.Fatalf("disabled plan cache reports %+v", st)
	}
}

func TestExplainPlan(t *testing.T) {
	svc := New(newTestSynopsis(t))
	out, err := svc.ExplainPlan(query.MustParse("//book[year>1990]/title"))
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"plan //book[", "subproblems", "lowered steps"} {
		if !strings.Contains(out, want) {
			t.Fatalf("ExplainPlan output missing %q:\n%s", want, out)
		}
	}
	// A query over labels absent from the synopsis still has a plan (an
	// empty one); only malformed queries error.
	if _, err := svc.ExplainPlan(query.MustParse("//nosuchtag")); err != nil {
		t.Fatalf("ExplainPlan(//nosuchtag): %v", err)
	}
}

func TestExplain(t *testing.T) {
	syn := newTestSynopsis(t)
	svc := New(syn)
	lines := svc.Explain(query.MustParse("//book[year>1990]"), 3)
	if len(lines) == 0 {
		t.Fatal("no embeddings explained")
	}
	for _, l := range lines {
		if !strings.Contains(l, "->") {
			t.Fatalf("embedding %q has no tuple count", l)
		}
	}
}
