package service

import (
	"context"
	"errors"
	"reflect"
	"testing"
	"time"

	"xcluster/internal/core"
	"xcluster/internal/obs"
	"xcluster/internal/query"
)

// raceEnabled is set under the race detector, whose instrumentation
// makes allocation counts meaningless (race_test.go).
var raceEnabled bool

// TestEstimateRecordsPipelineMetrics: the service records each
// estimate's stages and cache outcomes from its trace, failed estimates
// included, while a batch's plan-cache seeding (untraced Prepare
// lookups) reaches only the estimator's own LRU counters.
func TestEstimateRecordsPipelineMetrics(t *testing.T) {
	svc := New(newTestSynopsis(t))
	t.Cleanup(svc.Close)
	ctx := context.Background()
	q := query.MustParse("//book/title")
	for i := 0; i < 2; i++ { // a miss, then a result-cache hit
		if _, err := svc.Estimate(ctx, q); err != nil {
			t.Fatal(err)
		}
	}
	stage := func(name string) uint64 {
		return svc.reg.Histogram(metricStageSeconds, `stage="`+name+`"`, nil).Count()
	}
	lookups := func(cache, outcome string) uint64 {
		return svc.reg.Counter(metricCacheLookups, `cache="`+cache+`",outcome="`+outcome+`"`).Value()
	}
	for name, want := range map[string]uint64{
		core.StageCanonicalize: 2, core.StageResultCache: 2, core.StagePlanCache: 1,
		core.StageCompile: 1, core.StageExecute: 1, core.StageParse: 0,
	} {
		if got := stage(name); got != want {
			t.Errorf("stage %s observed %d times, want %d", name, got, want)
		}
	}
	if got := lookups("result", "miss"); got != 1 {
		t.Errorf("result-cache misses = %d, want 1", got)
	}
	if got := lookups("result", "hit"); got != 1 {
		t.Errorf("result-cache hits = %d, want 1", got)
	}
	if got := lookups("plan", "miss"); got != 1 {
		t.Errorf("plan-cache misses = %d, want 1", got)
	}

	// A batch of two new shapes: seeding compiles both through Prepare
	// (two LRU misses), then each estimate's traced lookup is a hit.
	planBefore := svc.Estimator().PlanCacheStats()
	qs := []*query.Query{query.MustParse("//book[year>1990]"), query.MustParse("//journal[year<2000]/title")}
	if _, err := svc.EstimateBatch(ctx, qs, nil); err != nil {
		t.Fatal(err)
	}
	if got := lookups("plan", "hit"); got != 2 {
		t.Errorf("plan-cache hits = %d, want 2 (the batch's estimates)", got)
	}
	if got := lookups("plan", "miss"); got != 1 {
		t.Errorf("plan-cache misses = %d, want still 1 (seeding is not an estimate)", got)
	}
	if got := svc.Estimator().PlanCacheStats().Misses - planBefore.Misses; got != 2 {
		t.Errorf("estimator plan-cache misses rose by %d, want 2 (seeding compiled both)", got)
	}

	// A failed estimate still records the stages it ran.
	compiles := stage(core.StageCompile)
	dead, cancel := context.WithDeadline(ctx, time.Now().Add(-time.Second))
	defer cancel()
	if _, err := svc.Estimate(dead, query.MustParse("//book[pages>=300]")); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("expired estimate error = %v, want deadline exceeded", err)
	}
	if got := stage(core.StageCompile); got != compiles+1 {
		t.Errorf("failed estimate's compile not recorded: %d → %d", compiles, got)
	}
	if st := svc.Stats(); st.Failed != 1 || st.Served != 4 {
		t.Errorf("stats served/failed = %d/%d, want 4/1", st.Served, st.Failed)
	}
	if got := svc.RequestsTotal(); got != 5 {
		t.Errorf("RequestsTotal = %d, want 5", got)
	}
}

// TestSpanSnapshotMatchesTrace: an estimate attaches to the request's
// span as its trace, and the snapshot renders that trace — the
// canonical query, the trace's start and total, the error, and one
// child per stage at start plus offset — for a result-cache hit, a
// plan-cache hit, a compile and a deadline error.
func TestSpanSnapshotMatchesTrace(t *testing.T) {
	syn := newTestSynopsis(t)
	cached := New(syn)
	planOnly := New(syn, WithCacheCapacity(-1))
	t.Cleanup(cached.Close)
	t.Cleanup(planOnly.Close)
	q := query.MustParse("//book[year>1990]/title")
	expired, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel()

	root := obs.NewSpan("POST /estimate", "req-1")
	ctx := obs.WithSpan(context.Background(), root)
	type estimate struct {
		name string
		tr   *core.EstimateTrace
		err  error
	}
	var runs []estimate
	for _, c := range []struct {
		name string
		svc  *Service
		ctx  context.Context
		q    *query.Query
	}{
		{"compile", cached, ctx, q},
		{"result hit", cached, ctx, q},
		{"plan warm-up", planOnly, ctx, q},
		{"plan hit", planOnly, ctx, q},
		{"deadline", cached, obs.WithSpan(expired, root), query.MustParse("//book[pages>=300]")},
	} {
		tr := new(core.EstimateTrace)
		_, err := c.svc.estimateOne(c.ctx, time.Time{}, c.svc.cur.Load(), c.q, "", tr)
		runs = append(runs, estimate{c.name, tr, err})
	}
	if !runs[1].tr.ResultCacheHit || !runs[3].tr.PlanCacheHit || runs[4].err == nil {
		t.Fatalf("fixtures did not hit the intended paths: %+v", runs)
	}
	root.Finish()

	snap := root.Snapshot()
	if len(snap.Spans) != len(runs) {
		t.Fatalf("root has %d children, want %d", len(snap.Spans), len(runs))
	}
	for i, r := range runs {
		want := obs.SpanSnapshot{
			Name:   "estimate",
			Detail: r.tr.Canonical,
			Start:  r.tr.Start,
			Nanos:  int64(r.tr.Total),
		}
		if r.err != nil {
			want.Err = r.err.Error()
		}
		for _, st := range r.tr.Spans {
			want.Spans = append(want.Spans, obs.SpanSnapshot{
				Name: st.Stage, Start: r.tr.Start.Add(st.Offset), Nanos: int64(st.Duration),
			})
		}
		if got := snap.Spans[i]; !reflect.DeepEqual(got, want) {
			t.Errorf("%s: snapshot\n%+v\nwant\n%+v", r.name, got, want)
		}
	}
}

// TestServiceEstimateCacheHitAllocs pins the served cost of a
// result-cache hit: the trace and the canonical string are the only
// allocations, with the profiler and the pipeline metrics recording
// from the trace. In a traced request the estimate attaches to the
// span by reference, so it costs nothing more than the span's child
// list growth (amortized away over the runs). A service deadline
// (WithTimeout, set to xclusterd's default -timeout) costs nothing: it
// is a time the executed plan checks, not a timer context.
func TestServiceEstimateCacheHitAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	syn := newTestSynopsis(t)
	plain := context.Background()
	traced := obs.WithSpan(plain, obs.NewSpan("POST /estimate", "req-1"))
	for svcName, opts := range map[string][]Option{"no timeout": nil, "timeout": {WithTimeout(5 * time.Second)}} {
		svc := New(syn, opts...)
		t.Cleanup(svc.Close)
		for _, s := range testWorkload {
			q := query.MustParse(s)
			if _, err := svc.Estimate(plain, q); err != nil { // warm the caches and the profiler
				t.Fatal(err)
			}
			for name, ctx := range map[string]context.Context{"untraced": plain, "traced": traced} {
				if n := testing.AllocsPerRun(100, func() { svc.Estimate(ctx, q) }); n > 2 {
					t.Errorf("Service.Estimate, result-cache hit, %s, %s: %q: %v allocs, want ≤2", svcName, name, s, n)
				}
			}
		}
	}
}
