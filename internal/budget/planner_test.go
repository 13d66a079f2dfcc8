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

// plan runs Plan on the fixture with the given inherited split.
func (f fixture) plan(t *testing.T, inherited core.Fingerprint) (Decision, *core.Synopsis) {
	t.Helper()
	d, s, err := Plan(context.Background(), Inputs{
		Inherited:           inherited,
		WorkloadFingerprint: "deadbeefdeadbeef",
		Shapes:              f.shapes,
	}, f.ref, f.doc, f.opts)
	if err != nil {
		t.Fatal(err)
	}
	if fp := s.Fingerprint(); fp.StructBudget != d.StructBudget || fp.ValueBudget != d.ValueBudget {
		t.Fatalf("synopsis budgets %d/%d != decision %+v", fp.StructBudget, fp.ValueBudget, d)
	}
	return d, s
}

// split is a fingerprint of total bytes giving structure bstr, with
// the given provenance (workload splits carry a profile fingerprint).
func split(bstr, total int, prov core.Provenance) core.Fingerprint {
	fp := core.Fingerprint{StructBudget: bstr, ValueBudget: total - bstr, Provenance: prov}
	if prov == core.ProvenanceWorkload {
		fp.WorkloadFingerprint = "0123456789abcdef"
	}
	return fp
}

// sameSplit reports whether two fingerprints carry the same budgets,
// provenance and workload fingerprint.
func sameSplit(a, b core.Fingerprint) bool {
	return a.StructBudget == b.StructBudget && a.ValueBudget == b.ValueBudget &&
		a.Provenance == b.Provenance && a.WorkloadFingerprint == b.WorkloadFingerprint
}

// buildAt is XClusterBuild at fp's budgets, stamped with fp's
// provenance and workload fingerprint.
func (f fixture) buildAt(t *testing.T, fp core.Fingerprint) *core.Synopsis {
	t.Helper()
	o := f.opts
	o.StructBudget, o.ValueBudget = fp.StructBudget, fp.ValueBudget
	s, err := core.XClusterBuild(f.ref, o)
	if err != nil {
		t.Fatal(err)
	}
	got := s.Fingerprint()
	got.Provenance, got.WorkloadFingerprint = fp.Provenance, fp.WorkloadFingerprint
	s.SetFingerprint(got)
	return s
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

// TestPlannerHysteresis: an inherited workload split whose struct
// share lies inside the dead band of the searched one is held, a real
// shift escapes it, and a static split is never held — the first
// adaptive rebuild must be allowed to move off the configured split.
func TestPlannerHysteresis(t *testing.T) {
	f := newFixture(t)
	base, bs := f.plan(t, split(f.total/2, f.total, core.ProvenanceStatic))
	searched := bs.Fingerprint()
	if base.Held || searched.Provenance != core.ProvenanceWorkload {
		t.Fatalf("static inherited split was held or kept: %+v", base)
	}
	if base.StructBudget+base.ValueBudget != f.total || searched.WorkloadFingerprint != "deadbeefdeadbeef" {
		t.Fatalf("searched split lost the total or the fingerprint: %+v / %+v", base, searched)
	}
	// Jitter: inherited workload splits within the dead band are held.
	for _, shift := range []float64{-0.03, -0.01, 0.01, 0.03} {
		cur := split(base.StructBudget+int(shift*float64(f.total)), f.total, core.ProvenanceWorkload)
		d, s := f.plan(t, cur)
		if !d.Held || !sameSplit(s.Fingerprint(), cur) {
			t.Fatalf("struct share shift %.2f flipped the split:\n cur %v\n new %v", shift, cur, s.Fingerprint())
		}
	}
	// A real shift escapes the band: the search's own winner comes back.
	shift := f.total / 4
	if base.StructBudget > f.total/2 {
		shift = -shift
	}
	d, s := f.plan(t, split(base.StructBudget+shift, f.total, core.ProvenanceWorkload))
	if d.Held || !sameSplit(s.Fingerprint(), searched) {
		t.Fatalf("split 25%% off the searched one was held: %+v", d)
	}
	// A static split at the searched one is not held either.
	d, s = f.plan(t, split(base.StructBudget, f.total, core.ProvenanceStatic))
	if d.Held || !sameSplit(s.Fingerprint(), searched) {
		t.Fatalf("planner held a static split: %+v", d)
	}
}

// TestPlannerDeterministic: identical inputs yield identical decisions
// and byte-identical synopses, which are XClusterBuild's at the split.
func TestPlannerDeterministic(t *testing.T) {
	f := newFixture(t)
	inherited := split(f.total/2, f.total, core.ProvenanceStatic)
	a, sa := f.plan(t, inherited)
	b, sb := f.plan(t, inherited)
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("same inputs, different decisions:\n%+v\n%+v", a, b)
	}
	if !bytes.Equal(stableBytes(t, sa), stableBytes(t, sb)) {
		t.Fatal("same inputs, different synopses")
	}
	want := f.buildAt(t, sa.Fingerprint())
	if !bytes.Equal(stableBytes(t, sa), stableBytes(t, want)) {
		t.Fatalf("planned synopsis differs from XClusterBuild at %+v", a)
	}
}

// TestPlannerIdleKeepsInherited: with no tracked shapes there is
// nothing to score, so the decision keeps the inherited split, says
// why, and builds under it.
func TestPlannerIdleKeepsInherited(t *testing.T) {
	f := newFixture(t)
	f.shapes = nil
	inherited := split(f.total/3, f.total, core.ProvenanceStatic)
	d, s := f.plan(t, inherited)
	if !d.Held || !sameSplit(s.Fingerprint(), inherited) || d.Reason == "" {
		t.Fatalf("idle decision = %+v, want the inherited split held with a reason", d)
	}
	if !bytes.Equal(stableBytes(t, s), stableBytes(t, f.buildAt(t, inherited))) {
		t.Fatal("idle synopsis differs from XClusterBuild at the inherited split")
	}
}

func TestPlannerRejectsNonPositiveTotal(t *testing.T) {
	f := newFixture(t)
	for _, fp := range []core.Fingerprint{{}, {StructBudget: -1, ValueBudget: 1}, {StructBudget: -1, ValueBudget: 2}} {
		if _, _, err := Plan(context.Background(), Inputs{Inherited: fp, Shapes: f.shapes}, f.ref, f.doc, f.opts); err == nil {
			t.Fatalf("inherited budgets %d/%d accepted", fp.StructBudget, fp.ValueBudget)
		}
	}
}
