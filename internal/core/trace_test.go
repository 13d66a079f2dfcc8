package core

import (
	"context"
	"strings"
	"sync"
	"testing"
	"time"

	"xcluster/internal/query"
)

// SelectivityTraced is SelectivityTracedCanonical into a fresh trace,
// canonicalizing q.
func (e *Estimator) SelectivityTraced(ctx context.Context, q *query.Query) (float64, *EstimateTrace, error) {
	tr := new(EstimateTrace)
	v, err := e.SelectivityTracedCanonical(ctx, q, "", time.Time{}, tr)
	return v, tr, err
}

// SpanSum returns the summed stage durations (at most Total).
func (t *EstimateTrace) SpanSum() time.Duration {
	var s time.Duration
	for _, sp := range t.Spans {
		s += sp.Duration
	}
	return s
}

// fakeSink collects MetricSink emissions for assertions.
type fakeSink struct {
	mu       sync.Mutex
	adds     map[string]float64 // name{labels} → summed delta
	observes map[string]int     // name{labels} → observation count
}

func newFakeSink() *fakeSink {
	return &fakeSink{adds: make(map[string]float64), observes: make(map[string]int)}
}

func (f *fakeSink) key(name, labels string) string {
	if labels == "" {
		return name
	}
	return name + "{" + labels + "}"
}

func (f *fakeSink) Add(name, labels string, delta float64) {
	f.mu.Lock()
	f.adds[f.key(name, labels)] += delta
	f.mu.Unlock()
}

func (f *fakeSink) Observe(name, labels string, value float64) {
	f.mu.Lock()
	f.observes[f.key(name, labels)]++
	f.mu.Unlock()
}

func tracedFixture(t *testing.T) *Estimator {
	t.Helper()
	ref, err := BuildReference(figure1(t), ReferenceOptions{})
	if err != nil {
		t.Fatal(err)
	}
	return NewEstimator(ref)
}

func TestSelectivityTracedMatchesSelectivity(t *testing.T) {
	est := tracedFixture(t)
	plain := tracedFixture(t)
	for _, qs := range []string{
		"//paper/title",
		"//paper[year>2000]/title",
		"//*[year>2000]",
		"/dblp/*",
	} {
		q := query.MustParse(qs)
		got, tr, err := est.SelectivityTraced(context.Background(), q)
		if err != nil {
			t.Fatalf("SelectivityTraced(%s): %v", qs, err)
		}
		if want := plain.Selectivity(q); got != want {
			t.Errorf("traced s(%s) = %g, untraced %g", qs, got, want)
		}
		if tr.Canonical != q.String() {
			t.Errorf("Canonical = %q, want %q", tr.Canonical, q.String())
		}
		if tr.SpanSum() > tr.Total {
			t.Errorf("s(%s): SpanSum %v exceeds Total %v", qs, tr.SpanSum(), tr.Total)
		}
	}
}

func TestSelectivityTracedStages(t *testing.T) {
	est := tracedFixture(t)
	q := query.MustParse("//paper[year>2000]/title")

	// Cold call: canonicalize, result-cache miss, plan-cache miss,
	// compile, execute — in that order.
	_, tr, err := est.SelectivityTraced(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	wantStages := []string{StageCanonicalize, StageResultCache, StagePlanCache, StageCompile, StageExecute}
	if len(tr.Spans) != len(wantStages) {
		t.Fatalf("cold spans = %v, want stages %v", tr.Spans, wantStages)
	}
	for i, sp := range tr.Spans {
		if sp.Stage != wantStages[i] {
			t.Errorf("cold span[%d] = %q, want %q", i, sp.Stage, wantStages[i])
		}
	}
	if tr.ResultCacheHit || tr.PlanCacheHit {
		t.Errorf("cold call reported cache hits: %+v", tr)
	}
	if tr.Subproblems <= 0 {
		t.Errorf("cold Subproblems = %d, want > 0", tr.Subproblems)
	}

	// Warm call: the result cache answers; no plan stages.
	_, tr, err = est.SelectivityTraced(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	if !tr.ResultCacheHit {
		t.Fatalf("second call missed the result cache: %+v", tr)
	}
	wantStages = []string{StageCanonicalize, StageResultCache}
	if len(tr.Spans) != len(wantStages) {
		t.Fatalf("warm spans = %v, want stages %v", tr.Spans, wantStages)
	}
	if tr.Subproblems != 0 {
		t.Errorf("warm Subproblems = %d, want 0 (no plan consulted)", tr.Subproblems)
	}
}

func TestSelectivityTracedPlanCacheHit(t *testing.T) {
	est := tracedFixture(t)
	est.SetCacheCapacity(0) // result cache off: every call reaches the plan stage
	q := query.MustParse("//paper/title")

	_, tr, err := est.SelectivityTraced(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	if tr.PlanCacheHit {
		t.Fatal("first call hit the plan cache")
	}
	_, tr, err = est.SelectivityTraced(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	if !tr.PlanCacheHit {
		t.Fatal("second call missed the plan cache")
	}
	for _, sp := range tr.Spans {
		if sp.Stage == StageCompile {
			t.Errorf("plan-cache hit still compiled: %v", tr.Spans)
		}
		if sp.Stage == StageResultCache {
			t.Errorf("disabled result cache still looked up: %v", tr.Spans)
		}
	}
}

func TestBuildPhaseMetrics(t *testing.T) {
	ref, err := BuildReference(figure1(t), ReferenceOptions{})
	if err != nil {
		t.Fatal(err)
	}
	sink := newFakeSink()
	var stats BuildStats
	if _, err := XClusterBuild(ref, BuildOptions{
		StructBudget: ref.StructBytes() / 2,
		ValueBudget:  1 << 20,
		Metrics:      sink,
		Stats:        &stats,
	}); err != nil {
		t.Fatal(err)
	}
	for _, phase := range []string{"merge", "value"} {
		k := MetricBuildPhaseSeconds + `{phase="` + phase + `"}`
		if sink.observes[k] != 1 {
			t.Errorf("build phase %s observed %d times, want 1 (%v)", phase, sink.observes[k], sink.observes)
		}
	}
	if stats.Merges == 0 || stats.PairsEvaluated == 0 {
		t.Fatalf("degenerate build: stats %+v", stats)
	}
	computed := MetricBuildPairsTotal + `{outcome="computed"}`
	if got := sink.adds[computed]; got != float64(stats.PairsEvaluated) {
		t.Errorf("%s = %g, want PairsEvaluated %d", computed, got, stats.PairsEvaluated)
	}
	if got := sink.adds[MetricBuildMergesTotal]; got != float64(stats.Merges) {
		t.Errorf("%s = %g, want Merges %d", MetricBuildMergesTotal, got, stats.Merges)
	}
	for k := range sink.adds {
		if strings.HasPrefix(k, MetricBuildPairsTotal) && k != computed {
			t.Errorf("unexpected pairs outcome emitted: %s", k)
		}
	}
}
