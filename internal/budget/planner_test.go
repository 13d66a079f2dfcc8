package budget

import (
	"bytes"
	"context"
	"reflect"
	"testing"
	"time"

	"xcluster/internal/core"
	"xcluster/internal/datagen"
	"xcluster/internal/profile"
	"xcluster/internal/query"
	"xcluster/internal/vsum"
	"xcluster/internal/xmltree"
)

// fixture is a small IMDB document, its reference synopsis, and the
// shapes a profiler recorded for a mixed-class workload over it. Its
// builds use a small merge pool, to keep the searches fast.
type fixture struct {
	doc    *xmltree.Tree
	ref    *core.Synopsis
	shapes []profile.Representative
	total  int
	opts   core.BuildOptions
}

func newFixture(t *testing.T) fixture {
	t.Helper()
	doc := datagen.IMDB(datagen.IMDBConfig{Seed: 5, Scale: 0.02})
	ref, err := core.BuildReference(doc, core.ReferenceOptions{
		ValuePaths: datagen.IMDBValuePaths(),
		Detail:     vsum.BuildOptions{PSTDepth: 3, MaxSummaryBytes: 256},
	})
	if err != nil {
		t.Fatal(err)
	}
	prof := profile.New(0)
	at := time.Unix(0, 0)
	for i, qs := range []string{
		"//movie/title",
		"//movie[year>1990]/title",
		"//movie[year>2000]/title", // same shape as the line above
		"//movie/cast/actor/name",
		"//movie[title contains(The)]",
		"//show[plot ftcontains(family)]",
		"//imdb/show[year<1980]",
	} {
		q, err := query.Parse(qs)
		if err != nil {
			t.Fatal(err)
		}
		for n := 0; n <= i%3; n++ {
			prof.Record(at, q, q.String(), 0, 0, 0, false)
		}
	}
	return fixture{
		doc: doc, ref: ref, shapes: prof.Representatives(),
		total: ref.TotalBytes() / 4, opts: core.BuildOptions{Hm: 200, Hl: 100},
	}
}

// plan runs Plan on the fixture with the given inherited plan.
func (f fixture) plan(t *testing.T, inherited core.BudgetPlan) (Decision, *core.Synopsis) {
	t.Helper()
	d, s, err := Plan(context.Background(), Inputs{
		Inherited:           inherited,
		WorkloadFingerprint: "deadbeefdeadbeef",
		Shapes:              f.shapes,
	}, f.ref, f.doc, f.opts)
	if err != nil {
		t.Fatal(err)
	}
	if s.Fingerprint().Plan != d.Plan {
		t.Fatalf("synopsis plan %+v != decision plan %+v", s.Fingerprint().Plan, d.Plan)
	}
	return d, s
}

// workloadPlan is a workload-provenance plan of total bytes giving
// structure bstr.
func workloadPlan(bstr, total int) core.BudgetPlan {
	p := core.PlanFromBudgets(bstr, total-bstr)
	p.Provenance = core.ProvenanceWorkload
	p.WorkloadFingerprint = "0123456789abcdef"
	return p
}

// stableBytes encodes s with the wall-clock fingerprint fields zeroed.
func stableBytes(t *testing.T, s *core.Synopsis) []byte {
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

// TestPlannerHysteresis: an inherited workload plan whose struct share
// lies inside the dead band of the searched one is held, a real shift
// escapes it, and a static plan is never held — the first adaptive
// rebuild must be allowed to move off the configured split.
func TestPlannerHysteresis(t *testing.T) {
	f := newFixture(t)
	base, _ := f.plan(t, core.PlanFromBudgets(f.total/2, f.total-f.total/2))
	if base.Held || base.Plan.Provenance != core.ProvenanceWorkload {
		t.Fatalf("static inherited plan was held or kept: %+v", base)
	}
	if base.Plan.TotalBytes != f.total || base.Plan.WorkloadFingerprint != "deadbeefdeadbeef" {
		t.Fatalf("searched plan lost the total or the fingerprint: %+v", base.Plan)
	}
	// Jitter: inherited workload plans within the dead band are held.
	for _, shift := range []float64{-0.03, -0.01, 0.01, 0.03} {
		cur := workloadPlan(base.Plan.StructBytes+int(shift*float64(f.total)), f.total)
		d, _ := f.plan(t, cur)
		if !d.Held || d.Plan != cur {
			t.Fatalf("struct share shift %.2f flipped the plan:\n cur %v\n new %v", shift, cur, d.Plan)
		}
	}
	// A real shift escapes the band: the search's own winner comes back.
	shift := f.total / 4
	if base.Plan.StructBytes > f.total/2 {
		shift = -shift
	}
	far := workloadPlan(base.Plan.StructBytes+shift, f.total)
	d, _ := f.plan(t, far)
	if d.Held || d.Plan != base.Plan {
		t.Fatalf("plan 25%% off the searched split was held: %+v", d)
	}
	// A static plan at the searched split is not held either.
	d, _ = f.plan(t, core.PlanFromBudgets(base.Plan.StructBytes, base.Plan.ValueBytes))
	if d.Held || d.Plan != base.Plan {
		t.Fatalf("planner held a static plan: %+v", d)
	}
}

// TestPlannerDeterministic: identical inputs yield identical decisions
// and byte-identical synopses, which are XClusterBuild's at the plan.
func TestPlannerDeterministic(t *testing.T) {
	f := newFixture(t)
	inherited := core.PlanFromBudgets(f.total/2, f.total-f.total/2)
	a, sa := f.plan(t, inherited)
	b, sb := f.plan(t, inherited)
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("same inputs, different decisions:\n%+v\n%+v", a, b)
	}
	if !bytes.Equal(stableBytes(t, sa), stableBytes(t, sb)) {
		t.Fatal("same inputs, different synopses")
	}
	o := f.opts
	o.Plan = &a.Plan
	want, err := core.XClusterBuild(f.ref, o)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(stableBytes(t, sa), stableBytes(t, want)) {
		t.Fatalf("planned synopsis differs from XClusterBuild at %v", a.Plan)
	}
}

// TestPlannerIdleKeepsInherited: with no tracked shapes there is
// nothing to score, so the decision keeps the inherited split, says
// why, and builds under it.
func TestPlannerIdleKeepsInherited(t *testing.T) {
	f := newFixture(t)
	f.shapes = nil
	inherited := core.PlanFromBudgets(f.total/3, f.total-f.total/3)
	d, s := f.plan(t, inherited)
	if !d.Held || d.Plan != inherited || d.Reason == "" {
		t.Fatalf("idle decision = %+v, want the inherited plan held with a reason", d)
	}
	o := f.opts
	o.Plan = &inherited
	want, err := core.XClusterBuild(f.ref, o)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(stableBytes(t, s), stableBytes(t, want)) {
		t.Fatal("idle synopsis differs from XClusterBuild at the inherited plan")
	}
}

func TestPlannerRejectsNonPositiveTotal(t *testing.T) {
	f := newFixture(t)
	for _, p := range []core.BudgetPlan{{}, {StructBytes: -1, ValueBytes: 1}} {
		if _, _, err := Plan(context.Background(), Inputs{Inherited: p, Shapes: f.shapes}, f.ref, f.doc, f.opts); err == nil {
			t.Fatalf("inherited plan %+v accepted", p)
		}
	}
}
