package core

import (
	"bytes"
	"context"
	"math"
	"math/rand"
	"testing"

	"xcluster/internal/datagen"
	"xcluster/internal/query"
)

// buildFixture returns a random document and its reference synopsis.
func buildFixture(t *testing.T, seed int64, size int) (*Synopsis, float64) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	tr := randomTree(rng, size)
	ref, err := BuildReference(tr, ReferenceOptions{})
	if err != nil {
		t.Fatal(err)
	}
	return ref, float64(tr.Len())
}

func TestBuildNoLevelHeuristic(t *testing.T) {
	ref, elements := buildFixture(t, 21, 250)
	budget := ref.StructBytes() / 3
	s, err := XClusterBuild(ref, BuildOptions{
		StructBudget: budget, ValueBudget: 1 << 20,
		Hm: 200, Hl: 100, NoLevelHeuristic: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	if s.StructBytes() > budget && s.NumNodes() > 30 {
		t.Fatalf("budget missed: %d > %d with %d nodes", s.StructBytes(), budget, s.NumNodes())
	}
	if got := s.TotalExtent(); math.Abs(got-elements) > 1e-9 {
		t.Fatalf("extent = %g, want %g", got, elements)
	}
}

func TestBuildGlobalMetric(t *testing.T) {
	ref, elements := buildFixture(t, 22, 250)
	budget := ref.StructBytes() / 3
	s, err := XClusterBuild(ref, BuildOptions{
		StructBudget: budget, ValueBudget: 1 << 20,
		Hm: 200, Hl: 100, GlobalMetric: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	if got := s.TotalExtent(); math.Abs(got-elements) > 1e-9 {
		t.Fatalf("extent = %g, want %g", got, elements)
	}
	// The reference is untouched by the member bookkeeping.
	if err := ref.Validate(); err != nil {
		t.Fatal(err)
	}
}

// TestBuildRandomMergesDeterministic: the random-merge ablation is a
// function of its seed — repeated builds encode to the same bytes. The
// "tied" fixture summarizes values under a few paths only, so two merge
// groups share a label and value type and differ only in carrying
// values: the tie the group order must break before the seeded pick.
func TestBuildRandomMergesDeterministic(t *testing.T) {
	full, _ := buildFixture(t, 23, 200)
	tied, err := BuildReference(randomTree(rand.New(rand.NewSource(23)), 200), ReferenceOptions{
		ValuePaths: []string{"/root/num", "/root/a/num", "/root/b/num", "/root/str", "/root/a/str"},
	})
	if err != nil {
		t.Fatal(err)
	}
	if !hasGroupTie(tied) {
		t.Fatal("tied fixture has no (label, value type) tie between mergeable groups")
	}
	for _, fx := range []struct {
		name string
		ref  *Synopsis
	}{{"full", full}, {"tied", tied}} {
		t.Run(fx.name, func(t *testing.T) {
			opts := BuildOptions{
				StructBudget: fx.ref.StructBytes() / 2, ValueBudget: 1 << 20,
				RandomMerges: true, RandomSeed: 9,
			}
			var first []byte
			for i := 0; i < 20; i++ {
				s, err := XClusterBuild(fx.ref, opts)
				if err != nil {
					t.Fatal(err)
				}
				if err := s.Validate(); err != nil {
					t.Fatal(err)
				}
				if b := codecBytes(t, s); i == 0 {
					first = b
				} else if !bytes.Equal(b, first) {
					t.Fatalf("build %d encodes differently from build 0 at the same seed", i)
				}
			}
		})
	}
}

// hasGroupTie reports whether two mergeable groups (two or more members
// each) differ only in whether their members carry value summaries.
func hasGroupTie(s *Synopsis) bool {
	sizes := make(map[groupKey]int)
	for _, n := range s.nodes {
		sizes[nodeGroup(n)]++
	}
	for k, n := range sizes {
		if k.hasV && n >= 2 && sizes[groupKey{label: k.label, vt: k.vt}] >= 2 {
			return true
		}
	}
	return false
}

func TestBuildDeterministic(t *testing.T) {
	ref, _ := buildFixture(t, 24, 250)
	opts := BuildOptions{StructBudget: ref.StructBytes() / 4, ValueBudget: ref.ValueBytes() / 2, Hm: 200, Hl: 100}
	a, err := XClusterBuild(ref, opts)
	if err != nil {
		t.Fatal(err)
	}
	b, err := XClusterBuild(ref, opts)
	if err != nil {
		t.Fatal(err)
	}
	if a.NumNodes() != b.NumNodes() || a.StructBytes() != b.StructBytes() || a.ValueBytes() != b.ValueBytes() {
		t.Fatalf("non-deterministic build: %d/%d nodes, %d/%d struct, %d/%d value",
			a.NumNodes(), b.NumNodes(), a.StructBytes(), b.StructBytes(), a.ValueBytes(), b.ValueBytes())
	}
	// Identical estimates too.
	rng := rand.New(rand.NewSource(24))
	tr := randomTree(rng, 250)
	ea, eb := NewEstimator(a), NewEstimator(b)
	for i := 0; i < 10; i++ {
		q := randomStructQuery(rng, tr)
		x, y := ea.Selectivity(q), eb.Selectivity(q)
		if math.Abs(x-y) > 1e-9*math.Max(1, x) {
			t.Fatalf("estimates diverge on %s: %g vs %g", q, x, y)
		}
	}
}

func TestAutoAllocate(t *testing.T) {
	ref, _ := buildFixture(t, 25, 300)
	total := (ref.StructBytes() + ref.ValueBytes()) / 3
	// Score: squared deviation of //num count (any value-bearing label
	// would do) — a cheap stand-in for workload error.
	q := query.MustParse("//num")
	want := NewEstimator(ref).Selectivity(q)
	score := func(s *Synopsis) float64 {
		got := NewEstimator(s).Selectivity(q)
		return math.Abs(got - want)
	}
	s, sc, err := AutoAllocate(context.Background(), ref, total, score, BuildOptions{Hm: 200, Hl: 100})
	if err != nil {
		t.Fatal(err)
	}
	if bstr := s.Fingerprint().StructBudget; bstr <= 0 || bstr >= total {
		t.Fatalf("bstr = %d of %d", bstr, total)
	}
	if sc < 0 {
		t.Fatalf("score = %g", sc)
	}
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	// Degenerate budget rejected.
	if _, _, err := AutoAllocate(context.Background(), ref, 0, score, BuildOptions{}); err == nil {
		t.Fatal("zero budget accepted")
	}
}

// TestSweepMatchesIndividualBuilds: every synopsis a sweep returns is
// codec-identical (clock fields aside) to XClusterBuild at the same
// budgets, fingerprint included, on a synthetic tree and on the
// value-bearing IMDB and XMark generators.
func TestSweepMatchesIndividualBuilds(t *testing.T) {
	synth, _ := buildFixture(t, 26, 300)
	imdb := valueFixture(t, datagen.IMDB(datagen.IMDBConfig{Seed: 7, Scale: 0.1}), datagen.IMDBValuePaths())
	xmark := valueFixture(t, datagen.XMark(datagen.XMarkConfig{Seed: 7, Scale: 0.1}), datagen.XMarkValuePaths())
	for _, fx := range []struct {
		name string
		ref  *Synopsis
		opts BuildOptions
	}{
		{"synthetic", synth, BuildOptions{Hm: 200, Hl: 100}},
		{"IMDB", imdb, BuildOptions{}},
		{"XMark", xmark, BuildOptions{}},
	} {
		t.Run(fx.name, func(t *testing.T) {
			ref := fx.ref
			budgets := []int{
				ref.StructBytes(), // no merging
				ref.StructBytes() / 2,
				ref.StructBytes() / 4,
				0, // tag-level floor
			}
			bval := ref.ValueBytes() / 2
			swept, err := XClusterSweep(ref, budgets, bval, fx.opts)
			if err != nil {
				t.Fatal(err)
			}
			if len(swept) != len(budgets) {
				t.Fatalf("results = %d", len(swept))
			}
			for i, budget := range budgets {
				o := fx.opts
				o.StructBudget = budget
				o.ValueBudget = bval
				want, err := XClusterBuild(ref, o)
				if err != nil {
					t.Fatal(err)
				}
				got := swept[i]
				if err := got.Validate(); err != nil {
					t.Fatalf("budget %d: %v", budget, err)
				}
				if g, w := codecBytes(t, got), codecBytes(t, want); !bytes.Equal(g, w) {
					t.Fatalf("budget %d: sweep (%d bytes, %+v) and build (%d bytes, %+v) encode differently",
						budget, len(g), got.Fingerprint(), len(w), want.Fingerprint())
				}
			}
		})
	}
	// Unsupported policies are rejected.
	if _, err := XClusterSweep(synth, []int{0}, 0, BuildOptions{RandomMerges: true}); err == nil {
		t.Fatal("sweep accepted random policy")
	}
}
