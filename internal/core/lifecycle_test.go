package core

import (
	"context"
	"testing"

	"xcluster/internal/query"
)

// TestTraceCarriesGeneration checks that traced estimates are stamped
// with the synopsis generation and the executed plan's generation, on
// both the compile path and the cache-hit paths.
func TestTraceCarriesGeneration(t *testing.T) {
	tr := figure1(t)
	ref, err := BuildReference(tr, ReferenceOptions{})
	if err != nil {
		t.Fatal(err)
	}
	fp := ref.Fingerprint()
	fp.Generation = 42
	ref.SetFingerprint(fp)
	est := NewEstimator(ref)
	q := query.MustParse("//paper/title")

	for i, wantPlanHit := range []bool{false, false} {
		if i == 1 {
			est = NewEstimator(ref) // force recompute, same generation
		}
		_, trc, err := est.SelectivityTraced(context.Background(), q)
		if err != nil {
			t.Fatal(err)
		}
		if trc.Generation != 42 || trc.PlanGeneration != 42 {
			t.Fatalf("call %d: generations %d/%d, want 42/42", i, trc.Generation, trc.PlanGeneration)
		}
		if trc.PlanCacheHit != wantPlanHit {
			t.Fatalf("call %d: plan hit %v", i, trc.PlanCacheHit)
		}
	}
	// Result-cache hit: no plan consulted, stamp still consistent.
	_, trc, err := est.SelectivityTraced(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	if !trc.ResultCacheHit {
		t.Fatal("expected a result-cache hit")
	}
	if trc.Generation != 42 || trc.PlanGeneration != 42 {
		t.Fatalf("cache hit: generations %d/%d, want 42/42", trc.Generation, trc.PlanGeneration)
	}
}
