package core

import (
	"context"
	"errors"
	"math/rand"
	"testing"
)

func refFor(t *testing.T, seed int64, elements int) *Synopsis {
	t.Helper()
	tr := randomTree(rand.New(rand.NewSource(seed)), elements)
	ref, err := BuildReference(tr, ReferenceOptions{})
	if err != nil {
		t.Fatal(err)
	}
	return ref
}

// TestAutoAllocateContextCancel is the cancellation contract:
// the sample-workload search must abort mid-search once its context
// ends, instead of finishing every candidate build.
func TestAutoAllocateContextCancel(t *testing.T) {
	ref := refFor(t, 29, 500)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	evals := 0
	_, _, err := AutoAllocate(ctx, ref, ref.TotalBytes()/4,
		func(*Synopsis) float64 { evals++; return 0 }, BuildOptions{})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled search returned %v, want context.Canceled", err)
	}
	if evals != 0 {
		t.Fatalf("search scored %d candidates after cancellation", evals)
	}
}

// TestAutoAllocatePlanProvenance checks the search stamps its winner
// with provenance auto and budgets that sum to the total.
func TestAutoAllocatePlanProvenance(t *testing.T) {
	ref := refFor(t, 31, 300)
	total := ref.TotalBytes() / 3
	s, _, err := AutoAllocate(context.Background(), ref, total,
		func(s *Synopsis) float64 { return float64(s.NumNodes()) }, BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	fp := s.Fingerprint()
	if fp.Provenance != ProvenanceAuto {
		t.Fatalf("provenance = %q, want auto", fp.Provenance)
	}
	if fp.StructBudget+fp.ValueBudget != total {
		t.Fatalf("budgets %d+%d, want total %d", fp.StructBudget, fp.ValueBudget, total)
	}
}
