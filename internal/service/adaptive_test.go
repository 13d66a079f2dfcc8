package service

import (
	"context"
	"errors"
	"testing"

	"xcluster/internal/core"
)

// legacySynopsis strips the build fingerprint's budgets and plan,
// emulating an artifact from before budgets were recorded.
func legacySynopsis(t *testing.T) *core.Synopsis {
	t.Helper()
	syn := newTestSynopsis(t)
	fp := syn.Fingerprint()
	fp.StructBudget, fp.ValueBudget = 0, 0
	fp.Plan = core.BudgetPlan{}
	syn.SetFingerprint(fp)
	return syn
}

// profileTraffic pushes the test workload through the service so the
// profiler has a live class mix to plan from.
func profileTraffic(t *testing.T, svc *Service) {
	t.Helper()
	for _, q := range parseWorkload(t) {
		if _, err := svc.Estimate(context.Background(), q); err != nil {
			t.Fatal(err)
		}
	}
}

// TestRebuildBudgetPrecedence pins the documented budget chain:
// explicit options > adaptive plan > fingerprint budgets >
// WithRebuildBudgets defaults > the serving synopsis's actual sizes.
func TestRebuildBudgetPrecedence(t *testing.T) {
	tree := testTree(t)

	t.Run("explicit beats fingerprint and planner", func(t *testing.T) {
		svc := New(newTestSynopsis(t), WithDocument(tree))
		defer svc.Close()
		profileTraffic(t, svc)
		ev, err := svc.Rebuild(context.Background(), RebuildOptions{
			StructBudget: 700, ValueBudget: 300, Adaptive: true,
		})
		if err != nil {
			t.Fatal(err)
		}
		fp := svc.Synopsis().Fingerprint()
		if fp.StructBudget != 700 || fp.ValueBudget != 300 {
			t.Fatalf("explicit budgets lost: got %d/%d", fp.StructBudget, fp.ValueBudget)
		}
		// The operator override wins over Adaptive, so the plan stays
		// static — the planner must not have re-split the total.
		if ev.Plan == nil || ev.Plan.Provenance != core.ProvenanceStatic {
			t.Fatalf("explicit rebuild plan = %+v, want static provenance", ev.Plan)
		}
	})

	t.Run("fingerprint budgets inherited", func(t *testing.T) {
		svc := New(newTestSynopsis(t), WithDocument(tree), WithRebuildBudgets(9999, 9999))
		defer svc.Close()
		if _, err := svc.Rebuild(context.Background(), RebuildOptions{}); err != nil {
			t.Fatal(err)
		}
		// newTestSynopsis was built at 512/512; the fingerprint outranks
		// the WithRebuildBudgets defaults.
		fp := svc.Synopsis().Fingerprint()
		if fp.StructBudget != 512 || fp.ValueBudget != 512 {
			t.Fatalf("fingerprint budgets not inherited: got %d/%d", fp.StructBudget, fp.ValueBudget)
		}
	})

	t.Run("defaults cover legacy artifacts", func(t *testing.T) {
		svc := New(legacySynopsis(t), WithDocument(tree), WithRebuildBudgets(800, 400))
		defer svc.Close()
		if _, err := svc.Rebuild(context.Background(), RebuildOptions{}); err != nil {
			t.Fatal(err)
		}
		fp := svc.Synopsis().Fingerprint()
		if fp.StructBudget != 800 || fp.ValueBudget != 400 {
			t.Fatalf("WithRebuildBudgets defaults not used: got %d/%d", fp.StructBudget, fp.ValueBudget)
		}
	})

	t.Run("actual sizes are the last resort", func(t *testing.T) {
		syn := legacySynopsis(t)
		wantStr, wantVal := syn.StructBytes(), syn.ValueBytes()
		svc := New(syn, WithDocument(tree))
		defer svc.Close()
		if _, err := svc.Rebuild(context.Background(), RebuildOptions{}); err != nil {
			t.Fatal(err)
		}
		fp := svc.Synopsis().Fingerprint()
		if fp.StructBudget != wantStr || fp.ValueBudget != wantVal {
			t.Fatalf("actual sizes not used: got %d/%d, want %d/%d",
				fp.StructBudget, fp.ValueBudget, wantStr, wantVal)
		}
	})

	t.Run("adaptive re-splits the inherited total", func(t *testing.T) {
		svc := New(newTestSynopsis(t), WithDocument(tree), WithAdaptiveBudget())
		defer svc.Close()
		profileTraffic(t, svc)
		ev, err := svc.Rebuild(context.Background(), RebuildOptions{Adaptive: true})
		if err != nil {
			t.Fatal(err)
		}
		if ev.Plan == nil || ev.Plan.Provenance != core.ProvenanceWorkload {
			t.Fatalf("adaptive rebuild plan = %+v, want workload provenance", ev.Plan)
		}
		if ev.Plan.TotalBytes != 1024 {
			t.Fatalf("planner changed the total: %d, want 1024", ev.Plan.TotalBytes)
		}
	})
}

// TestAdaptiveRebuildSwapEvent is the acceptance contract: a
// workload-adaptive rebuild's SwapEvent carries the plan with workload
// provenance, the WorkloadProfile fingerprint it derived from, and the
// realized split for planned-vs-actual comparison.
func TestAdaptiveRebuildSwapEvent(t *testing.T) {
	svc := New(newTestSynopsis(t), WithDocument(testTree(t)))
	defer svc.Close()
	profileTraffic(t, svc)

	ev, err := svc.Rebuild(context.Background(), RebuildOptions{Adaptive: true, Reason: "drift:range"})
	if err != nil {
		t.Fatal(err)
	}
	if ev.Plan == nil {
		t.Fatal("adaptive swap event has no plan")
	}
	if ev.Plan.Provenance != core.ProvenanceWorkload {
		t.Fatalf("plan provenance = %q, want workload", ev.Plan.Provenance)
	}
	if ev.Plan.WorkloadFingerprint == "" {
		t.Fatal("plan lost its workload fingerprint")
	}
	if ev.ActualSplit == nil {
		t.Fatal("swap event has no actual split")
	}
	if got := ev.ActualSplit.NodeBytes + ev.ActualSplit.EdgeBytes +
		ev.ActualSplit.HistogramBytes + ev.ActualSplit.PSTBytes + ev.ActualSplit.TermHistBytes; got <= 0 {
		t.Fatalf("actual split is empty: %+v", ev.ActualSplit)
	}
	// The installed generation serves under the planned split.
	if fp := svc.Synopsis().Fingerprint(); fp.Plan != *ev.Plan {
		t.Fatalf("serving plan %+v != swap event plan %+v", fp.Plan, *ev.Plan)
	}

	// The planner run is recorded for /debug/budget.
	rep := svc.BudgetReport()
	if rep.LastDecision == nil || rep.LastInputs == nil {
		t.Fatal("budget report lost the last planner run")
	}
	if rep.Current.Provenance != core.ProvenanceWorkload {
		t.Fatalf("budget report current plan = %+v", rep.Current)
	}
	if rep.Next == nil {
		t.Fatalf("budget report has no dry-run decision: %+v", rep)
	}
}

// TestAdaptiveRebuildNeedsProfiler: Adaptive fails typed when workload
// profiling was disabled.
func TestAdaptiveRebuildNeedsProfiler(t *testing.T) {
	svc := New(newTestSynopsis(t), WithDocument(testTree(t)), WithWorkloadProfile(-1, 0))
	defer svc.Close()
	if _, err := svc.Rebuild(context.Background(), RebuildOptions{Adaptive: true}); !errors.Is(err, ErrNoProfiler) {
		t.Fatalf("adaptive rebuild without profiler: %v, want ErrNoProfiler", err)
	}
}
