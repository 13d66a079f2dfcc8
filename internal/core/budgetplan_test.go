package core

import (
	"bytes"
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

// serializeStable renders the synopsis with the build-time fields
// zeroed, so two builds of the same inputs compare byte for byte.
func serializeStable(t *testing.T, s *Synopsis) []byte {
	t.Helper()
	fp := s.Fingerprint()
	fp.BuiltAtUnix, fp.BuildNanos = 0, 0
	s.SetFingerprint(fp)
	var buf bytes.Buffer
	if _, err := s.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestPlanFromBudgetsBitIdentical is the core half of the refactor's
// compatibility contract: a plan synthesized from the legacy Bstr/Bval
// pair must drive the exact same build as the raw ints, down to the
// serialized bytes.
func TestPlanFromBudgetsBitIdentical(t *testing.T) {
	ref := refFor(t, 11, 400)
	bstr, bval := ref.StructBytes()/3, ref.ValueBytes()/3

	legacy, err := XClusterBuild(ref, BuildOptions{StructBudget: bstr, ValueBudget: bval})
	if err != nil {
		t.Fatal(err)
	}
	plan := PlanFromBudgets(bstr, bval)
	planned, err := XClusterBuild(ref, BuildOptions{Plan: &plan})
	if err != nil {
		t.Fatal(err)
	}
	if got, want := planned.Fingerprint().Plan, legacy.Fingerprint().Plan; got != want {
		t.Fatalf("stamped plans differ: %+v vs %+v", got, want)
	}
	a, b := serializeStable(t, legacy), serializeStable(t, planned)
	if !bytes.Equal(a, b) {
		t.Fatalf("legacy ints and synthesized plan produced different bytes (%d vs %d)", len(a), len(b))
	}
}

func TestBudgetPlanNormalize(t *testing.T) {
	p, err := (BudgetPlan{StructBytes: 400, ValueBytes: 100}).Normalize()
	if err != nil {
		t.Fatal(err)
	}
	if p.TotalBytes != 500 {
		t.Fatalf("derived total wrong: %+v", p)
	}
	if p.Provenance != ProvenanceStatic {
		t.Fatalf("default provenance = %q, want static", p.Provenance)
	}
	for _, bad := range []BudgetPlan{
		{TotalBytes: 10, StructBytes: 4, ValueBytes: 7},
		{StructBytes: -1},
		{ValueBytes: -1},
	} {
		if _, err := bad.Normalize(); err == nil {
			t.Fatalf("normalize accepted inconsistent plan %+v", bad)
		}
	}
}

func TestResolvePlanConflict(t *testing.T) {
	plan := PlanFromBudgets(100, 100)
	_, err := XClusterBuild(refFor(t, 3, 120), BuildOptions{StructBudget: 999, Plan: &plan})
	if err == nil {
		t.Fatal("conflicting StructBudget and plan accepted")
	}
}

// TestAutoAllocateContextCancel is the satellite cancellation contract:
// the sample-workload search must abort mid-search once its context
// ends, instead of finishing every candidate build.
func TestAutoAllocateContextCancel(t *testing.T) {
	ref := refFor(t, 29, 500)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	evals := 0
	_, _, _, err := AutoAllocateContext(ctx, ref, ref.TotalBytes()/4,
		func(*Synopsis) float64 { evals++; return 0 }, BuildOptions{})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled search returned %v, want context.Canceled", err)
	}
	if evals != 0 {
		t.Fatalf("search scored %d candidates after cancellation", evals)
	}
}

// TestAutoAllocatePlanProvenance checks the search stamps its winner
// with an auto-provenance plan whose groups sum to the total budget.
func TestAutoAllocatePlanProvenance(t *testing.T) {
	ref := refFor(t, 31, 300)
	total := ref.TotalBytes() / 3
	s, plan, _, err := AutoAllocateContext(context.Background(), ref, total,
		func(s *Synopsis) float64 { return float64(s.NumNodes()) }, BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if plan.Provenance != ProvenanceAuto {
		t.Fatalf("provenance = %q, want auto", plan.Provenance)
	}
	if plan.TotalBytes != total {
		t.Fatalf("plan total %d, want %d", plan.TotalBytes, total)
	}
	if s.Fingerprint().Plan != plan {
		t.Fatalf("winner's fingerprint plan %+v != returned plan %+v", s.Fingerprint().Plan, plan)
	}
}
