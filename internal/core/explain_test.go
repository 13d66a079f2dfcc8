package core

import (
	"math"
	"math/rand"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"xcluster/internal/datagen"
	"xcluster/internal/query"
)

func TestExplainSumsToSelectivity(t *testing.T) {
	tr := figure1(t)
	ref, err := BuildReference(tr, ReferenceOptions{})
	if err != nil {
		t.Fatal(err)
	}
	est := NewEstimator(ref)
	for _, qs := range []string{
		"//paper",
		"//year",
		"//paper[year>2000]/title",
		"//author[./paper][./book]",
		"/dblp//title[contains(T)]",
	} {
		q := query.MustParse(qs)
		total := est.Selectivity(q)
		ems := est.Explain(q, 0)
		sum := 0.0
		for _, em := range ems {
			sum += em.Tuples
		}
		if math.Abs(sum-total) > 1e-9*math.Max(1, total) {
			t.Errorf("%s: embeddings sum to %g, Selectivity is %g", qs, sum, total)
		}
	}
}

func TestExplainOrderingAndLimit(t *testing.T) {
	tr := figure1(t)
	ref, _ := BuildReference(tr, ReferenceOptions{})
	est := NewEstimator(ref)
	q := query.MustParse("//year") // three year clusters → 3 embeddings
	ems := est.Explain(q, 0)
	if len(ems) < 2 {
		t.Fatalf("embeddings = %d, want several", len(ems))
	}
	for i := 1; i < len(ems); i++ {
		if ems[i].Tuples > ems[i-1].Tuples {
			t.Fatal("embeddings not sorted by contribution")
		}
	}
	capped := est.Explain(q, 1)
	if len(capped) != 1 || capped[0].Tuples != ems[0].Tuples {
		t.Fatalf("limit broken: %+v", capped)
	}
}

func TestExplainRandomizedConsistency(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	tr := randomTree(rng, 150)
	ref, err := BuildReference(tr, ReferenceOptions{})
	if err != nil {
		t.Fatal(err)
	}
	s, err := XClusterBuild(ref, BuildOptions{StructBudget: ref.StructBytes() / 3, ValueBudget: 1 << 20, Hm: 200, Hl: 100})
	if err != nil {
		t.Fatal(err)
	}
	est := NewEstimator(s)
	for i := 0; i < 15; i++ {
		q := randomStructQuery(rng, tr)
		total := est.Selectivity(q)
		sum := 0.0
		for _, em := range est.Explain(q, 0) {
			sum += em.Tuples
		}
		if math.Abs(sum-total) > 1e-6*math.Max(1, total) {
			t.Fatalf("%s: embeddings sum %g != selectivity %g", q, sum, total)
		}
	}
}

func TestFormatEmbedding(t *testing.T) {
	tr := figure1(t)
	ref, _ := BuildReference(tr, ReferenceOptions{})
	est := NewEstimator(ref)
	ems := est.Explain(query.MustParse("//paper/title"), 1)
	if len(ems) == 0 {
		t.Fatal("no embeddings")
	}
	out := ref.FormatEmbedding(ems[0])
	if !strings.Contains(out, "title") || !strings.Contains(out, "->") {
		t.Fatalf("FormatEmbedding = %q", out)
	}
}

// wideTwigs are branching descendant-wildcard twigs: every branch
// multiplies the number of embeddings by the number of descendant
// clusters, so enumerating them all is exponential in the branch count.
var wideTwigs = []string{
	"//*[.//*]",
	"//*[.//*][.//*]",
	"//*[.//*][.//*][.//*]",
	"//*[.//*][.//*][.//*][.//*]",
}

var (
	imdbOnce sync.Once
	imdbEst  *Estimator
	imdbErr  error
)

// imdbEstimator builds the default-scale IMDB synopsis with the serving
// benchmark's budgets (a twentieth of the reference's structure, a third
// of its values), once per test binary.
func imdbEstimator(t *testing.T) *Estimator {
	t.Helper()
	if testing.Short() {
		t.Skip("builds the default-scale IMDB synopsis")
	}
	imdbOnce.Do(func() {
		tree := datagen.IMDB(datagen.IMDBConfig{Seed: 1, Scale: 1})
		ref, err := BuildReference(tree, ReferenceOptions{})
		if err != nil {
			imdbErr = err
			return
		}
		syn, err := XClusterBuild(ref, BuildOptions{StructBudget: ref.StructBytes() / 20, ValueBudget: ref.ValueBytes() / 3})
		if err != nil {
			imdbErr = err
			return
		}
		imdbEst = NewEstimator(syn)
	})
	if imdbErr != nil {
		t.Fatal(imdbErr)
	}
	return imdbEst
}

// TestExplainWideTwigBounded pins Explain's cost to the plan, not the
// embedding count: a four-branch wildcard twig over the IMDB synopsis
// has far too many embeddings to enumerate, yet its top 5 come back
// well within a second.
func TestExplainWideTwigBounded(t *testing.T) {
	est := imdbEstimator(t)
	q := query.MustParse(wideTwigs[3])
	start := time.Now()
	ems := est.Explain(q, 5)
	if d := time.Since(start); d > time.Second {
		t.Errorf("Explain(%s, 5) took %v, want under 1s", q, d)
	}
	if len(ems) != 5 {
		t.Fatalf("Explain(%s, 5) returned %d embeddings, want 5", q, len(ems))
	}
	if sel := est.Selectivity(q); ems[0].Tuples > sel {
		t.Errorf("top embedding %g exceeds the selectivity %g", ems[0].Tuples, sel)
	}
}

// TestExplainTopKPrefix checks that the top-k read agrees with full
// enumeration: Explain(q, k) is the first k of Explain(q, 0), up to the
// order of embeddings that tie in Tuples.
func TestExplainTopKPrefix(t *testing.T) {
	ests := planEstimators(t)
	qs := append(append([]string(nil), planQueries...), wideTwigs[:3]...)
	if !testing.Short() {
		ests["imdb"] = imdbEstimator(t)
	}
	for name, est := range ests {
		for _, qs := range qs {
			q := query.MustParse(qs)
			all := est.Explain(q, 0)
			for _, k := range []int{1, 5} {
				top := est.Explain(q, k)
				if want := min(k, len(all)); len(top) != want {
					t.Errorf("%s: Explain(%s, %d) returned %d embeddings, want %d", name, qs, k, len(top), want)
					continue
				}
				for i, em := range top {
					if em.Tuples != all[i].Tuples {
						t.Errorf("%s: Explain(%s, %d)[%d].Tuples = %v, full enumeration %v", name, qs, k, i, em.Tuples, all[i].Tuples)
						continue
					}
					tied := (i > 0 && all[i-1].Tuples == em.Tuples) || (i+1 < len(all) && all[i+1].Tuples == em.Tuples)
					if !tied && !slices.Equal(em.Nodes, all[i].Nodes) {
						t.Errorf("%s: Explain(%s, %d)[%d] binds %v, full enumeration %v", name, qs, k, i, em.Nodes, all[i].Nodes)
					}
				}
			}
		}
	}
}
