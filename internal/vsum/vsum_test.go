package vsum

import (
	"math"
	"slices"
	"testing"

	"xcluster/internal/query"
	"xcluster/internal/xmltree"
)

func numNodes(vals ...int) []*xmltree.Node {
	out := make([]*xmltree.Node, len(vals))
	for i, v := range vals {
		out[i] = &xmltree.Node{Label: "y", Type: xmltree.TypeNumeric, Num: v}
	}
	return out
}

func strNodes(vals ...string) []*xmltree.Node {
	out := make([]*xmltree.Node, len(vals))
	for i, v := range vals {
		out[i] = &xmltree.Node{Label: "t", Type: xmltree.TypeString, Str: v}
	}
	return out
}

func textNodes(d *xmltree.Dict, texts ...string) []*xmltree.Node {
	out := make([]*xmltree.Node, len(texts))
	for i, v := range texts {
		out[i] = &xmltree.Node{Label: "a", Type: xmltree.TypeText, Terms: d.InternText(v)}
	}
	return out
}

func TestFromNodesDispatch(t *testing.T) {
	d := xmltree.NewDict()
	cases := []struct {
		nodes []*xmltree.Node
		want  xmltree.ValueType
	}{
		{numNodes(1, 2, 3), xmltree.TypeNumeric},
		{strNodes("ab", "cd"), xmltree.TypeString},
		{textNodes(d, "xml tree synopsis"), xmltree.TypeText},
	}
	for _, c := range cases {
		s, err := FromNodes(c.nodes, BuildOptions{})
		if err != nil {
			t.Fatalf("%v: %v", c.want, err)
		}
		if s.Type() != c.want {
			t.Fatalf("type = %v, want %v", s.Type(), c.want)
		}
		if s.Count() != float64(len(c.nodes)) {
			t.Fatalf("count = %g", s.Count())
		}
		if err := s.Validate(); err != nil {
			t.Fatal(err)
		}
	}
}

func TestFromNodesErrors(t *testing.T) {
	if _, err := FromNodes(nil, BuildOptions{}); err == nil {
		t.Fatal("empty extent accepted")
	}
	mixed := append(numNodes(1), strNodes("x")...)
	if _, err := FromNodes(mixed, BuildOptions{}); err == nil {
		t.Fatal("mixed types accepted")
	}
	null := []*xmltree.Node{{Label: "e"}}
	if _, err := FromNodes(null, BuildOptions{}); err == nil {
		t.Fatal("null type accepted")
	}
}

func TestNumericPredSel(t *testing.T) {
	s, _ := FromNodes(numNodes(1990, 1995, 2000, 2005), BuildOptions{})
	if got := s.PredSel(query.Range{Lo: 2000, Hi: 2010}, nil); math.Abs(got-0.5) > 1e-9 {
		t.Fatalf("range sel = %g, want 0.5", got)
	}
	// Wrong predicate kind → 0.
	if got := s.PredSel(query.Contains{Substr: "x"}, nil); got != 0 {
		t.Fatalf("mismatched pred sel = %g", got)
	}
}

func TestNumericAtomics(t *testing.T) {
	s, _ := FromNodes(numNodes(1, 5, 9, 12), BuildOptions{})
	atoms := s.Atomics(0)
	if len(atoms) != 4 {
		t.Fatalf("atomics = %d, want 4", len(atoms))
	}
	// Selectivities are monotone in the prefix bound and end at 1.
	prev := 0.0
	for _, a := range atoms {
		sel := s.AtomicSel(a)
		if sel < prev-1e-9 {
			t.Fatalf("prefix selectivity not monotone: %g after %g", sel, prev)
		}
		prev = sel
	}
	if math.Abs(prev-1) > 1e-9 {
		t.Fatalf("last prefix selectivity = %g, want 1", prev)
	}
	// Capped enumeration keeps the final boundary.
	capped := s.Atomics(2)
	if len(capped) != 2 {
		t.Fatalf("capped atomics = %d", len(capped))
	}
	if got := s.AtomicSel(capped[len(capped)-1]); math.Abs(got-1) > 1e-9 {
		t.Fatalf("capped last selectivity = %g", got)
	}
}

func TestStringPredSelAndAtomics(t *testing.T) {
	s, _ := FromNodes(strNodes("Tree", "Trie", "Graph"), BuildOptions{})
	if got := s.PredSel(query.Contains{Substr: "Tr"}, nil); math.Abs(got-2.0/3) > 1e-9 {
		t.Fatalf("contains sel = %g", got)
	}
	if got := s.PredSel(query.Range{Lo: 0, Hi: 1}, nil); got != 0 {
		t.Fatalf("mismatched pred sel = %g", got)
	}
	atoms := s.Atomics(5)
	if len(atoms) != 5 {
		t.Fatalf("capped atomics = %d", len(atoms))
	}
	for _, a := range atoms {
		if sel := s.AtomicSel(a); sel <= 0 || sel > 1 {
			t.Fatalf("atomic %q sel = %g", a.Sub, sel)
		}
	}
}

func TestTextPredSel(t *testing.T) {
	d := xmltree.NewDict()
	nodes := textNodes(d,
		"xml synopsis summary estimation",
		"xml tree structure",
		"relational database theory")
	s, _ := FromNodes(nodes, BuildOptions{})
	if got := s.PredSel(query.FTContains{Terms: []string{"xml"}}, d); math.Abs(got-2.0/3) > 1e-9 {
		t.Fatalf("ft sel = %g", got)
	}
	// Conjunction multiplies.
	got := s.PredSel(query.FTContains{Terms: []string{"xml", "synopsis"}}, d)
	want := (2.0 / 3) * (1.0 / 3)
	if math.Abs(got-want) > 1e-9 {
		t.Fatalf("conj sel = %g, want %g", got, want)
	}
	// Unknown term → 0.
	if got := s.PredSel(query.FTContains{Terms: []string{"quantum"}}, d); got != 0 {
		t.Fatalf("unknown term sel = %g", got)
	}
}

func TestFuseMatchesUnion(t *testing.T) {
	a, _ := FromNodes(numNodes(1, 2, 3), BuildOptions{})
	b, _ := FromNodes(numNodes(3, 4), BuildOptions{})
	f := a.Fuse(b)
	if f.Count() != 5 {
		t.Fatalf("fused count = %g", f.Count())
	}
	u, _ := FromNodes(numNodes(1, 2, 3, 3, 4), BuildOptions{})
	for _, a := range u.Atomics(0) {
		if got, want := f.AtomicSel(a), u.AtomicSel(a); math.Abs(got-want) > 1e-9 {
			t.Fatalf("prefix [%d,%d]: fused %g, union %g", a.Lo, a.Hi, got, want)
		}
	}
}

func TestFusePanicsOnTypeMismatch(t *testing.T) {
	a, _ := FromNodes(numNodes(1), BuildOptions{})
	b, _ := FromNodes(strNodes("x"), BuildOptions{})
	defer func() {
		if recover() == nil {
			t.Fatal("cross-type fuse did not panic")
		}
	}()
	a.Fuse(b)
}

func TestCompressOnceAllTypes(t *testing.T) {
	d := xmltree.NewDict()
	sums := []Summary{}
	n, _ := FromNodes(numNodes(1, 5, 9, 13, 17), BuildOptions{})
	sums = append(sums, n)
	s, _ := FromNodes(strNodes("database", "dataset", "index"), BuildOptions{})
	sums = append(sums, s)
	tx, _ := FromNodes(textNodes(d,
		"alpha beta gamma delta", "alpha beta", "alpha epsilon zeta"), BuildOptions{})
	sums = append(sums, tx)

	for _, s := range sums {
		before := s.SizeBytes()
		c, saved, steps := s.Compress(1)
		if steps == 0 {
			t.Fatalf("%v: Compress failed", s.Type())
		}
		if saved <= 0 {
			t.Fatalf("%v: saved %d bytes", s.Type(), saved)
		}
		if c.SizeBytes() != before-saved {
			t.Fatalf("%v: size %d, want %d", s.Type(), c.SizeBytes(), before-saved)
		}
		if c.Count() != s.Count() {
			t.Fatalf("%v: compression changed count", s.Type())
		}
		if err := c.Validate(); err != nil {
			t.Fatalf("%v: %v", s.Type(), err)
		}
	}
}

func TestCompressToExhaustion(t *testing.T) {
	var s Summary
	s, _ = FromNodes(numNodes(1, 2, 3, 4), BuildOptions{})
	for i := 0; ; i++ {
		next, _, steps := s.Compress(1)
		if steps == 0 {
			break
		}
		s = next
		if i > 100 {
			t.Fatal("compression did not terminate")
		}
	}
	if s.SizeBytes() == 0 {
		t.Fatal("summary vanished entirely")
	}
}

func TestTextFTSimEstimation(t *testing.T) {
	d := xmltree.NewDict()
	nodes := textNodes(d,
		"alpha beta",
		"alpha gamma",
		"beta gamma",
		"delta")
	s, _ := FromNodes(nodes, BuildOptions{})
	// f(alpha)=f(beta)=f(gamma)=0.5, f(delta)=0.25.
	// P(>=1 of alpha,beta) = 1 - 0.5*0.5 = 0.75.
	got := s.PredSel(query.FTSim{Terms: []string{"alpha", "beta"}, Min: 1}, d)
	if math.Abs(got-0.75) > 1e-9 {
		t.Fatalf("ftsim(1) = %g, want 0.75", got)
	}
	// P(both) = 0.25 — identical to ftcontains.
	sim := s.PredSel(query.FTSim{Terms: []string{"alpha", "beta"}, Min: 2}, d)
	conj := s.PredSel(query.FTContains{Terms: []string{"alpha", "beta"}}, d)
	if math.Abs(sim-conj) > 1e-9 {
		t.Fatalf("ftsim-all %g != ftcontains %g", sim, conj)
	}
	// Unknown terms contribute probability 0 but do not zero the rest.
	got = s.PredSel(query.FTSim{Terms: []string{"alpha", "zzz"}, Min: 1}, d)
	if math.Abs(got-0.5) > 1e-9 {
		t.Fatalf("ftsim with unknown = %g, want 0.5", got)
	}
	// n copies of alpha make the tail binomial(n, 0.5), on either side
	// of the largest term list PredSel keeps on the stack.
	for _, n := range []int{maxStackSimTerms, maxStackSimTerms + 1} {
		terms := slices.Repeat([]string{"alpha"}, n)
		atLeast := n / 2
		want := 0.0
		for k := atLeast; k <= n; k++ {
			c := 1.0
			for i := 0; i < k; i++ {
				c = c * float64(n-i) / float64(i+1)
			}
			want += c * math.Pow(0.5, float64(n))
		}
		if got := s.PredSel(query.FTSim{Terms: terms, Min: atLeast}, d); math.Abs(got-want) > 1e-12 {
			t.Fatalf("ftsim(%d) over %d terms = %g, want %g", atLeast, n, got, want)
		}
	}
}

func TestMaxSummaryBytesCap(t *testing.T) {
	// A large detailed summary must be compressed to fit the cap.
	vals := make([]*xmltree.Node, 0, 400)
	for i := 0; i < 400; i++ {
		vals = append(vals, &xmltree.Node{Label: "y", Type: xmltree.TypeNumeric, Num: i * 3})
	}
	s, err := FromNodes(vals, BuildOptions{MaxSummaryBytes: 128})
	if err != nil {
		t.Fatal(err)
	}
	if s.SizeBytes() > 128 {
		t.Fatalf("size %d exceeds 128B cap", s.SizeBytes())
	}
	if s.Count() != 400 {
		t.Fatalf("count = %g", s.Count())
	}
	// Uncapped stays detailed.
	d, _ := FromNodes(vals, BuildOptions{})
	if d.SizeBytes() <= 128 {
		t.Fatal("uncapped summary suspiciously small")
	}
}
