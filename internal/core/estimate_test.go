package core

import (
	"math"
	"testing"

	"xcluster/internal/query"
	"xcluster/internal/xmltree"
)

func TestEstimateWildcardSteps(t *testing.T) {
	tr := figure1(t)
	ref, err := BuildReference(tr, ReferenceOptions{})
	if err != nil {
		t.Fatal(err)
	}
	est := NewEstimator(ref)
	ev := query.NewEvaluator(tr)
	for _, qs := range []string{
		"//*",
		"/dblp/*",
		"//author/*",
		"//*/year",
		"//author/*/title",
		"//*[year>2000]",
	} {
		q := query.MustParse(qs)
		got, want := est.Selectivity(q), ev.Selectivity(q)
		if math.Abs(got-want) > 1e-6*math.Max(1, want) {
			t.Errorf("s(%s) = %g, want %g", qs, got, want)
		}
	}
}

func TestEstimateFTSim(t *testing.T) {
	tr := figure1(t)
	ref, err := BuildReference(tr, ReferenceOptions{})
	if err != nil {
		t.Fatal(err)
	}
	est := NewEstimator(ref)
	ev := query.NewEvaluator(tr)
	for _, qs := range []string{
		"//keywords[ftsim(1,xml,quantum)]",
		"//paper[abstract ftsim(2,xml,synopsis)]",
		"//foreword[ftsim(1,database,nothere)]",
	} {
		q := query.MustParse(qs)
		got, want := est.Selectivity(q), ev.Selectivity(q)
		// Reference clusters are tight, so these single-cluster ftsim
		// estimates are exact up to term-independence (which holds
		// exactly for single-element clusters and approximately here).
		if math.Abs(got-want) > 0.6*math.Max(1, want) {
			t.Errorf("s(%s) = %g, want %g", qs, got, want)
		}
	}
	// ftsim with only unknown terms → 0.
	if got := est.Selectivity(query.MustParse("//keywords[ftsim(1,zzz,yyy)]")); got != 0 {
		t.Errorf("unknown-term ftsim = %g", got)
	}
}

func TestEstimateMultiStepDescendantEdges(t *testing.T) {
	tr := figure1(t)
	ref, _ := BuildReference(tr, ReferenceOptions{})
	est := NewEstimator(ref)
	ev := query.NewEvaluator(tr)
	for _, qs := range []string{
		"//author//year",
		"//author//title[contains(T)]",
		"/dblp//paper//*",
	} {
		q := query.MustParse(qs)
		got, want := est.Selectivity(q), ev.Selectivity(q)
		if math.Abs(got-want) > 1e-6*math.Max(1, want) {
			t.Errorf("s(%s) = %g, want %g", qs, got, want)
		}
	}
}

func TestEstimateZeroFrontier(t *testing.T) {
	tr := figure1(t)
	ref, _ := BuildReference(tr, ReferenceOptions{})
	est := NewEstimator(ref)
	for _, qs := range []string{
		"//nonexistent",
		"//paper/nonexistent",
		"//paper[nonexistent]",
		"/wrongroot",
	} {
		if got := est.Selectivity(query.MustParse(qs)); got != 0 {
			t.Errorf("s(%s) = %g, want 0", qs, got)
		}
	}
	// A type-matching predicate on a cluster without a value summary
	// estimates 0, keeping negative queries near zero as in the paper.
	bare, _ := BuildReference(tr, ReferenceOptions{ValuePaths: []string{}})
	if got := NewEstimator(bare).Selectivity(query.MustParse("//paper[year>2000]")); got != 0 {
		t.Errorf("unsummarized predicate = %g, want 0", got)
	}
}

func TestTypeRespectingClusters(t *testing.T) {
	// The same label with different value types must land in different
	// clusters (type-respecting partitioning), and predicates of the
	// wrong kind must estimate 0 against each.
	b := xmltree.NewBuilder(nil)
	b.Open("root")
	b.Open("item")
	b.Numeric("code", 42)
	b.Close()
	b.Open("item")
	b.String("code", "ABC-42")
	b.Close()
	b.Close()
	tr := b.Tree()
	ref, err := BuildReference(tr, ReferenceOptions{})
	if err != nil {
		t.Fatal(err)
	}
	var kinds []xmltree.ValueType
	for _, n := range ref.Nodes() {
		if n.Label == "code" {
			kinds = append(kinds, n.VType)
		}
	}
	if len(kinds) != 2 || kinds[0] == kinds[1] {
		t.Fatalf("code clusters = %v, want numeric + string", kinds)
	}
	est := NewEstimator(ref)
	ev := query.NewEvaluator(tr)
	for _, qs := range []string{
		"//code[range(42,42)]",
		"//code[contains(ABC)]",
		"//item[code>40]",
	} {
		q := query.MustParse(qs)
		got, want := est.Selectivity(q), ev.Selectivity(q)
		if math.Abs(got-want) > 1e-9 {
			t.Errorf("s(%s) = %g, want %g", qs, got, want)
		}
	}
}
