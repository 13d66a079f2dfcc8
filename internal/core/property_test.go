package core

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"xcluster/internal/query"
	"xcluster/internal/xmltree"
)

// randomTree generates a random document with heterogeneous structure and
// values: a configurable mix of optional sections, repeated children, and
// typed leaves.
func randomTree(rng *rand.Rand, elements int) *xmltree.Tree {
	b := xmltree.NewBuilder(nil)
	labels := []string{"a", "b", "c", "d"}
	terms := []string{"alpha", "beta", "gamma", "delta", "epsilon"}
	words := []string{"foo", "bar", "baz", "qux"}
	count := 1
	b.Open("root")
	var grow func(depth int)
	grow = func(depth int) {
		for count < elements && depth < 5 {
			switch rng.Intn(6) {
			case 0:
				b.Numeric("num", rng.Intn(100))
				count++
			case 1:
				b.String("str", words[rng.Intn(len(words))]+words[rng.Intn(len(words))])
				count++
			case 2:
				b.Text("txt", terms[rng.Intn(len(terms))]+" "+terms[rng.Intn(len(terms))])
				count++
			case 3:
				b.Empty(labels[rng.Intn(len(labels))])
				count++
			default:
				b.Open(labels[rng.Intn(len(labels))])
				count++
				grow(depth + 1)
				b.Close()
			}
			if rng.Intn(3) == 0 {
				return
			}
		}
	}
	for count < elements {
		grow(1)
	}
	b.Close()
	return b.Tree()
}

// randomStructQuery samples a structural twig from the document (an
// element's ancestor path plus optional branches), guaranteed positive.
func randomStructQuery(rng *rand.Rand, tr *xmltree.Tree) *query.Query {
	nodes := tr.Nodes()
	e := nodes[rng.Intn(len(nodes))]
	var labels []string
	for n := e; n != nil; n = n.Parent {
		labels = append(labels, n.Label)
	}
	steps := make([]query.Step, 0, len(labels))
	start := rng.Intn(len(labels))
	for i := len(labels) - 1 - start; i >= 0; i-- {
		axis := query.Child
		if i == len(labels)-1-start && start > 0 {
			axis = query.Descendant
		}
		steps = append(steps, query.Step{Axis: axis, Label: labels[i]})
	}
	v := &query.Node{Steps: steps}
	if len(e.Children) > 0 && rng.Intn(2) == 0 {
		c := e.Children[rng.Intn(len(e.Children))]
		v.Children = append(v.Children, &query.Node{
			Steps: []query.Step{{Axis: query.Child, Label: c.Label}},
		})
	}
	return &query.Query{Roots: []*query.Node{v}}
}

// TestPropertyReferenceStructuralExactness: on any document, the
// reference synopsis (lossless count-stable partition) must estimate any
// structural twig exactly.
func TestPropertyReferenceStructuralExactness(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for iter := 0; iter < 25; iter++ {
		tr := randomTree(rng, 80+rng.Intn(200))
		if err := tr.Validate(); err != nil {
			t.Fatalf("iter %d: %v", iter, err)
		}
		ref, err := BuildReference(tr, ReferenceOptions{})
		if err != nil {
			t.Fatalf("iter %d: %v", iter, err)
		}
		if err := ref.Validate(); err != nil {
			t.Fatalf("iter %d: %v", iter, err)
		}
		est := NewEstimator(ref)
		ev := query.NewEvaluator(tr)
		for q := 0; q < 20; q++ {
			qq := randomStructQuery(rng, tr)
			got, want := est.Selectivity(qq), ev.Selectivity(qq)
			if math.Abs(got-want) > 1e-6*math.Max(1, want) {
				t.Fatalf("iter %d query %s: estimated %g, exact %g", iter, qq, got, want)
			}
		}
	}
}

// TestPropertyMergeSequencePreservesMass: any sequence of random valid
// merges keeps the synopsis valid, preserves the total extent, and keeps
// per-label element totals (so unqualified //label counts stay exact).
func TestPropertyMergeSequencePreservesMass(t *testing.T) {
	rng := rand.New(rand.NewSource(123))
	for iter := 0; iter < 15; iter++ {
		tr := randomTree(rng, 150)
		ref, err := BuildReference(tr, ReferenceOptions{})
		if err != nil {
			t.Fatal(err)
		}
		labelMass := make(map[string]float64)
		for _, n := range ref.Nodes() {
			labelMass[n.Label] += n.Count
		}
		s := ref.Clone()
		for merges := 0; merges < 100; merges++ {
			nodes := s.Nodes()
			var u, v *Node
			found := false
			for tries := 0; tries < 50 && !found; tries++ {
				u = nodes[rng.Intn(len(nodes))]
				v = nodes[rng.Intn(len(nodes))]
				found = Compatible(u, v)
			}
			if !found {
				break
			}
			if _, err := s.Merge(u.ID, v.ID); err != nil {
				t.Fatalf("iter %d merge %d: %v", iter, merges, err)
			}
		}
		if err := s.Validate(); err != nil {
			t.Fatalf("iter %d: %v", iter, err)
		}
		if math.Abs(s.TotalExtent()-float64(tr.Len())) > 1e-9 {
			t.Fatalf("iter %d: extent %g, want %d", iter, s.TotalExtent(), tr.Len())
		}
		got := make(map[string]float64)
		for _, n := range s.Nodes() {
			got[n.Label] += n.Count
		}
		for label, mass := range labelMass {
			if math.Abs(got[label]-mass) > 1e-9 {
				t.Fatalf("iter %d: label %s mass %g, want %g", iter, label, got[label], mass)
			}
		}
		// Estimates stay finite and positive for every present label.
		// (Accuracy bounds are not an invariant here: these merges are
		// adversarially random, and cycle truncation on pathological
		// merge sequences can lose substantial mass — the Δ-guided
		// builder avoids such merges, which TestPropertyBuildAtAnyBudget
		// checks.)
		est := NewEstimator(s)
		for label := range labelMass {
			got := est.Selectivity(query.MustParse("//" + label))
			if math.IsNaN(got) || math.IsInf(got, 0) || got <= 0 {
				t.Fatalf("iter %d: s(//%s) = %v", iter, label, got)
			}
		}
	}
}

// TestPropertyDeltaNonNegative: the clustering-error metric is a sum of
// squares and must never be negative, and must be 0 when a cluster is
// "merged" with a structurally identical twin.
func TestPropertyDeltaNonNegative(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for iter := 0; iter < 15; iter++ {
		tr := randomTree(rng, 120)
		ref, err := BuildReference(tr, ReferenceOptions{})
		if err != nil {
			t.Fatal(err)
		}
		nodes := ref.Nodes()
		checked := 0
		for i := 0; i < len(nodes) && checked < 30; i++ {
			for j := i + 1; j < len(nodes) && checked < 30; j++ {
				if !Compatible(nodes[i], nodes[j]) {
					continue
				}
				delta, saved, err := ref.mergeDelta(nodes[i].ID, nodes[j].ID, 16, nil)
				if err != nil {
					t.Fatal(err)
				}
				if delta < 0 {
					t.Fatalf("iter %d: negative Δ %g", iter, delta)
				}
				if saved <= 0 {
					t.Fatalf("iter %d: non-positive savings %d", iter, saved)
				}
				checked++
			}
		}
	}
}

// TestPropertyBuildAtAnyBudget: XClusterBuild succeeds and validates at
// arbitrary budget pairs, including degenerate ones.
func TestPropertyBuildAtAnyBudget(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	tr := randomTree(rng, 300)
	ref, err := BuildReference(tr, ReferenceOptions{})
	if err != nil {
		t.Fatal(err)
	}
	budgets := []struct{ bstr, bval int }{
		{0, 0},
		{0, 1 << 20},
		{1 << 20, 0},
		{1 << 20, 1 << 20},
		{ref.StructBytes() / 2, ref.ValueBytes() / 2},
		{1, 1},
	}
	ev := query.NewEvaluator(tr)
	exactAll := ev.Selectivity(query.MustParse("//*"))
	for _, b := range budgets {
		s, err := XClusterBuild(ref, BuildOptions{StructBudget: b.bstr, ValueBudget: b.bval, Hm: 200, Hl: 100})
		if err != nil {
			t.Fatalf("budget %+v: %v", b, err)
		}
		if err := s.Validate(); err != nil {
			t.Fatalf("budget %+v: %v", b, err)
		}
		// Merging same-label nested clusters can create cycles, where
		// path-product estimation is inherently approximate; require the
		// global element count to stay within a small constant factor
		// (and exact when no compression happened).
		est := NewEstimator(s)
		got := est.Selectivity(query.MustParse("//*"))
		if got < exactAll/3 || got > exactAll*3 {
			t.Fatalf("budget %+v: s(//*) = %g, want within 3x of %g", b, got, exactAll)
		}
		if s.NumNodes() == ref.NumNodes() && math.Abs(got-exactAll) > 1e-6*exactAll {
			t.Fatalf("budget %+v: uncompressed synopsis inexact: %g vs %g", b, got, exactAll)
		}
	}
}

// TestPropertyEstimatesFinite: estimates are always finite and
// non-negative on heavily merged synopses (where cycles can appear).
func TestPropertyEstimatesFinite(t *testing.T) {
	rng := rand.New(rand.NewSource(55))
	for iter := 0; iter < 10; iter++ {
		tr := randomTree(rng, 200)
		ref, err := BuildReference(tr, ReferenceOptions{})
		if err != nil {
			t.Fatal(err)
		}
		s, err := XClusterBuild(ref, BuildOptions{StructBudget: 0, ValueBudget: 0, Hm: 200, Hl: 100})
		if err != nil {
			t.Fatal(err)
		}
		est := NewEstimator(s)
		for q := 0; q < 20; q++ {
			qq := randomStructQuery(rng, tr)
			got := est.Selectivity(qq)
			if math.IsNaN(got) || math.IsInf(got, 0) || got < 0 {
				t.Fatalf("iter %d: s(%s) = %v", iter, qq, got)
			}
		}
	}
}

// TestPropertyCloneEquivalence: a clone estimates identically to the
// original for a battery of queries.
func TestPropertyCloneEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	tr := randomTree(rng, 200)
	ref, _ := BuildReference(tr, ReferenceOptions{})
	cl := ref.Clone()
	a, b := NewEstimator(ref), NewEstimator(cl)
	for q := 0; q < 30; q++ {
		qq := randomStructQuery(rng, tr)
		x, y := a.Selectivity(qq), b.Selectivity(qq)
		if math.Abs(x-y) > 1e-9*math.Max(1, x) {
			t.Fatalf("clone diverges on %s: %g vs %g", qq, x, y)
		}
	}
}

// TestPropertyReferenceValuePredicatesExactAnchored: single-predicate
// queries anchored at an exact value path are answered exactly by the
// reference synopsis (tight clusters + detailed summaries).
func TestPropertyReferenceValuePredicatesExactAnchored(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for iter := 0; iter < 10; iter++ {
		tr := randomTree(rng, 200)
		ref, err := BuildReference(tr, ReferenceOptions{})
		if err != nil {
			t.Fatal(err)
		}
		est := NewEstimator(ref)
		ev := query.NewEvaluator(tr)
		for q := 0; q < 15; q++ {
			lo := rng.Intn(100)
			hi := lo + rng.Intn(40)
			qq := query.MustParse(fmt.Sprintf("//num[range(%d,%d)]", lo, hi))
			got, want := est.Selectivity(qq), ev.Selectivity(qq)
			if math.Abs(got-want) > 1e-6*math.Max(1, want) {
				t.Fatalf("iter %d: s(%s) = %g, want %g", iter, qq, got, want)
			}
		}
	}
}
