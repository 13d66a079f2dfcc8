package service

import (
	"bytes"
	"context"
	"errors"
	"strings"
	"testing"

	"xcluster/internal/core"
)

// legacySynopsis strips the build fingerprint's budgets and provenance,
// emulating an artifact from before budgets were recorded.
func legacySynopsis(t *testing.T) *core.Synopsis {
	t.Helper()
	syn := newTestSynopsis(t)
	fp := syn.Fingerprint()
	fp.StructBudget, fp.ValueBudget = 0, 0
	fp.Provenance = ""
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
		if ev.Fingerprint.Provenance != core.ProvenanceStatic {
			t.Fatalf("explicit rebuild fingerprint = %+v, want static provenance", ev.Fingerprint)
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
		if ev.Fingerprint.Provenance != core.ProvenanceWorkload {
			t.Fatalf("adaptive rebuild fingerprint = %+v, want workload provenance", ev.Fingerprint)
		}
		if total := ev.Fingerprint.StructBudget + ev.Fingerprint.ValueBudget; total != 1024 {
			t.Fatalf("planner changed the total: %d, want 1024", total)
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
	if ev.Fingerprint.Provenance != core.ProvenanceWorkload {
		t.Fatalf("fingerprint provenance = %q, want workload", ev.Fingerprint.Provenance)
	}
	if ev.Fingerprint.WorkloadFingerprint == "" {
		t.Fatal("fingerprint lost its workload fingerprint")
	}
	if ev.ActualSplit == nil {
		t.Fatal("swap event has no actual split")
	}
	if got := ev.ActualSplit.NodeBytes + ev.ActualSplit.EdgeBytes +
		ev.ActualSplit.HistogramBytes + ev.ActualSplit.PSTBytes + ev.ActualSplit.TermHistBytes; got <= 0 {
		t.Fatalf("actual split is empty: %+v", ev.ActualSplit)
	}
	// The installed generation serves under the planned split.
	if fp := svc.Synopsis().Fingerprint(); fp != ev.Fingerprint {
		t.Fatalf("serving fingerprint %+v != swap event fingerprint %+v", fp, ev.Fingerprint)
	}

	// The planning run is recorded for /debug/budget.
	rep := svc.BudgetReport()
	if rep.LastDecision == nil || rep.LastInputs == nil {
		t.Fatal("budget report lost the last planning run")
	}
	if rep.Current.Provenance != core.ProvenanceWorkload {
		t.Fatalf("budget report current fingerprint = %+v", rep.Current)
	}
	if d := rep.LastDecision; len(rep.LastInputs.Shapes) == 0 ||
		d.StructBudget != ev.Fingerprint.StructBudget || d.ValueBudget != ev.Fingerprint.ValueBudget {
		t.Fatalf("budget report inputs/decision do not match the swap: %+v / %+v", rep.LastInputs, rep.LastDecision)
	}
}

// stableCodec encodes syn with its generation and wall-clock
// fingerprint fields zeroed, so a served synopsis compares byte for
// byte against a fresh build.
func stableCodec(t *testing.T, syn *core.Synopsis) []byte {
	t.Helper()
	fp := syn.Fingerprint()
	fp.Generation, fp.BuiltAtUnix, fp.BuildNanos = 0, 0, 0
	syn.SetFingerprint(fp)
	var buf bytes.Buffer
	if _, err := syn.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestAdaptiveRebuildInstallsSearchedSynopsis: an adaptive rebuild
// installs the split search's own winner, and that synopsis is
// codec-identical to XClusterBuild at the chosen plan.
func TestAdaptiveRebuildInstallsSearchedSynopsis(t *testing.T) {
	tree := testTree(t)
	svc := New(newTestSynopsis(t), WithDocument(tree))
	defer svc.Close()
	profileTraffic(t, svc)
	ev, err := svc.Rebuild(context.Background(), RebuildOptions{Adaptive: true})
	if err != nil {
		t.Fatal(err)
	}
	if ev.Fingerprint.Provenance != core.ProvenanceWorkload || ev.Build == nil {
		t.Fatalf("adaptive swap event = %+v", ev)
	}
	ref, err := core.BuildReference(tree, core.ReferenceOptions{})
	if err != nil {
		t.Fatal(err)
	}
	fp := ev.Fingerprint
	want, err := core.XClusterBuild(ref, core.BuildOptions{StructBudget: fp.StructBudget, ValueBudget: fp.ValueBudget})
	if err != nil {
		t.Fatal(err)
	}
	wfp := want.Fingerprint()
	wfp.Provenance, wfp.WorkloadFingerprint = fp.Provenance, fp.WorkloadFingerprint
	want.SetFingerprint(wfp)
	if got := stableCodec(t, svc.Synopsis()); !bytes.Equal(got, stableCodec(t, want)) {
		t.Fatalf("installed synopsis differs from XClusterBuild at %d/%d", fp.StructBudget, fp.ValueBudget)
	}
}

// TestAdaptiveRebuildIdleKeepsInheritedSplit: with no profiled shapes
// there is nothing to search on, so an adaptive rebuild keeps the
// serving plan and /debug/budget says why.
func TestAdaptiveRebuildIdleKeepsInheritedSplit(t *testing.T) {
	svc := New(newTestSynopsis(t), WithDocument(testTree(t)))
	defer svc.Close()
	before := svc.Synopsis().Fingerprint()
	ev, err := svc.Rebuild(context.Background(), RebuildOptions{Adaptive: true})
	if err != nil {
		t.Fatal(err)
	}
	if fp := ev.Fingerprint; fp.StructBudget != before.StructBudget || fp.ValueBudget != before.ValueBudget ||
		fp.Provenance != before.Provenance || fp.WorkloadFingerprint != before.WorkloadFingerprint {
		t.Fatalf("idle adaptive rebuild fingerprint = %+v, want the inherited split of %+v", fp, before)
	}
	d := svc.BudgetReport().LastDecision
	if d == nil || !d.Held || !strings.Contains(d.Reason, "no tracked query shapes") {
		t.Fatalf("idle decision = %+v", d)
	}
}

// TestAdaptiveRebuildNeedsProfiler: Adaptive fails typed when workload
// profiling was disabled.
func TestAdaptiveRebuildNeedsProfiler(t *testing.T) {
	svc := New(newTestSynopsis(t), WithDocument(testTree(t)), WithWorkloadProfile(-1))
	defer svc.Close()
	if _, err := svc.Rebuild(context.Background(), RebuildOptions{Adaptive: true}); !errors.Is(err, ErrNoProfiler) {
		t.Fatalf("adaptive rebuild without profiler: %v, want ErrNoProfiler", err)
	}
}
