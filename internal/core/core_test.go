package core

import (
	"bytes"
	"math"
	"strings"
	"testing"

	"xcluster/internal/query"
	"xcluster/internal/vsum"
	"xcluster/internal/xmltree"
)

// figure1 builds the document of Figure 1: author a1 with papers p2
// (year/title/keywords) and p7 (year/title/abstract), author a11 with
// book b13 (year/title/foreword).
func figure1(t testing.TB) *xmltree.Tree {
	t.Helper()
	b := xmltree.NewBuilder(nil)
	b.Open("dblp")
	b.Open("author")
	b.String("name", "First Author")
	b.Open("paper")
	b.Numeric("year", 2000)
	b.String("title", "Counting Twig Matches in a Tree")
	b.Text("keywords", "xml summary synopsis estimation structure")
	b.Close()
	b.Open("paper")
	b.Numeric("year", 2002)
	b.String("title", "Holistic Processing")
	b.Text("abstract", "xml employs a tree structured data model with synopsis support")
	b.Close()
	b.Close()
	b.Open("author")
	b.String("name", "Second Author")
	b.Open("book")
	b.Numeric("year", 2002)
	b.String("title", "Database Systems The Complete Book")
	b.Text("foreword", "database systems have become essential infrastructure everywhere")
	b.Close()
	b.Close()
	b.Close()
	return b.Tree()
}

func TestBuildReferenceFigure1(t *testing.T) {
	tr := figure1(t)
	s, err := BuildReference(tr, ReferenceOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	// Lossless partition: extents cover the document.
	if got := s.TotalExtent(); got != float64(tr.Len()) {
		t.Fatalf("TotalExtent = %g, want %d", got, tr.Len())
	}
	// The two authors have different subtree structures (papers vs book)
	// so they must land in different clusters; same for the two kinds of
	// paper (keywords vs abstract).
	byLabel := make(map[string][]*Node)
	for _, n := range s.Nodes() {
		byLabel[n.Label] = append(byLabel[n.Label], n)
	}
	if len(byLabel["author"]) != 2 {
		t.Fatalf("author clusters = %d, want 2", len(byLabel["author"]))
	}
	if len(byLabel["paper"]) != 2 {
		t.Fatalf("paper clusters = %d, want 2", len(byLabel["paper"]))
	}
	// One incoming path per cluster: year under paper vs book separated.
	yearPaths := make(map[string]bool)
	for _, n := range byLabel["year"] {
		yearPaths[n.Path] = true
	}
	if !yearPaths["/dblp/author/paper/year"] || !yearPaths["/dblp/author/book/year"] {
		t.Fatalf("year cluster paths = %v", yearPaths)
	}
	// Value summaries present on value clusters.
	for _, n := range s.Nodes() {
		if n.VType != xmltree.TypeNull && !n.HasValues() {
			t.Fatalf("value cluster %s lacks a summary", n.Path)
		}
	}
	// Root cluster.
	if s.Root().Label != "dblp" || s.Root().Count != 1 {
		t.Fatalf("root = %+v", s.Root())
	}
}

func TestBuildReferenceValuePathFilter(t *testing.T) {
	tr := figure1(t)
	s, err := BuildReference(tr, ReferenceOptions{
		ValuePaths: []string{"/dblp/author/paper/year"},
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range s.Nodes() {
		want := n.Path == "/dblp/author/paper/year"
		if n.HasValues() != want {
			t.Fatalf("cluster %s: HasValues = %v, want %v", n.Path, n.HasValues(), want)
		}
	}
}

func TestBuildTagSynopsisFigure3(t *testing.T) {
	tr := figure1(t)
	s, err := BuildTagSynopsis(tr, ReferenceOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	// Figure 3 cluster counts: D(1) A(2) N(2) P(2) B(1) Y(3) T(3) K(1)
	// AB(1) F(1).
	want := map[string]float64{
		"dblp": 1, "author": 2, "name": 2, "paper": 2, "book": 1,
		"year": 3, "title": 3, "keywords": 1, "abstract": 1, "foreword": 1,
	}
	got := make(map[string]float64)
	for _, n := range s.Nodes() {
		got[n.Label] += n.Count
	}
	for label, cnt := range want {
		if got[label] != cnt {
			t.Errorf("count(%s) = %g, want %g", label, got[label], cnt)
		}
	}
	if s.NumNodes() != 10 {
		t.Fatalf("NumNodes = %d, want 10", s.NumNodes())
	}
	// Figure 3 edge counts: count(A,P) = 1, count(A,B) = 0.5,
	// count(P,K) = 0.5, count(D,A) = 2.
	find := func(label string) *Node {
		for _, n := range s.Nodes() {
			if n.Label == label {
				return n
			}
		}
		t.Fatalf("no cluster %s", label)
		return nil
	}
	a, p, d := find("author"), find("paper"), find("dblp")
	if got := a.Children[p.ID]; got != 1 {
		t.Errorf("count(A,P) = %g, want 1", got)
	}
	if got := a.Children[find("book").ID]; got != 0.5 {
		t.Errorf("count(A,B) = %g, want 0.5", got)
	}
	if got := p.Children[find("keywords").ID]; got != 0.5 {
		t.Errorf("count(P,K) = %g, want 0.5", got)
	}
	if got := d.Children[a.ID]; got != 2 {
		t.Errorf("count(D,A) = %g, want 2", got)
	}
}

// TestEstimateFigure7 reconstructs the worked example of Figure 7: the
// estimate for //A[/B/C[p]]//E must be 500 binding tuples.
func TestEstimateFigure7(t *testing.T) {
	s := newSynopsis(nil)
	r := s.addNode("R", xmltree.TypeNull)
	r.Count = 1
	s.rootID = r.ID
	a := s.addNode("A", xmltree.TypeNull)
	a.Count = 10
	bn := s.addNode("B", xmltree.TypeNull)
	bn.Count = 100
	c := s.addNode("C", xmltree.TypeNumeric)
	c.Count = 500
	d := s.addNode("D", xmltree.TypeNull)
	d.Count = 50
	e := s.addNode("E", xmltree.TypeNull)
	e.Count = 100
	s.setEdge(r, a, 10)
	s.setEdge(a, bn, 10)
	s.setEdge(bn, c, 5)
	s.setEdge(a, d, 5)
	s.setEdge(d, e, 2)
	// vsumm(C): 10% of values in [0,0].
	vals := make([]int, 10)
	for i := range vals {
		vals[i] = i
	}
	c.VSum = vsum.NewNumeric(vals, 0)
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}

	est := NewEstimator(s)
	q := query.MustParse("//A[./B/C[range(0,0)]]//E")
	got := est.Selectivity(q)
	if math.Abs(got-500) > 1e-6 {
		t.Fatalf("Figure 7 estimate = %g, want 500", got)
	}
}

func TestReferenceEstimatesAreExactForStructure(t *testing.T) {
	tr := figure1(t)
	s, err := BuildReference(tr, ReferenceOptions{})
	if err != nil {
		t.Fatal(err)
	}
	est := NewEstimator(s)
	ev := query.NewEvaluator(tr)
	queries := []string{
		"//paper", "//author", "//paper/title", "//year", "//book/year",
		"/dblp/author", "/dblp//title", "//author/paper", "//*",
		"//author[./paper]", "//author[./book/year]",
	}
	for _, qs := range queries {
		q := query.MustParse(qs)
		got, want := est.Selectivity(q), ev.Selectivity(q)
		if math.Abs(got-want) > 1e-6 {
			t.Errorf("s(%s): estimated %g, exact %g", qs, got, want)
		}
	}
}

func TestReferenceEstimatesValuePredicates(t *testing.T) {
	tr := figure1(t)
	s, err := BuildReference(tr, ReferenceOptions{})
	if err != nil {
		t.Fatal(err)
	}
	est := NewEstimator(s)
	ev := query.NewEvaluator(tr)
	queries := []string{
		"//paper[year>2000]",
		"//paper[year>2001]/title",
		"//year[range(2000,2002)]",
		"//title[contains(Tree)]",
		"//paper[keywords ftcontains(xml)]",
		"//book[foreword ftcontains(database)]",
		"//paper[abstract ftcontains(synopsis,xml)]",
	}
	for _, qs := range queries {
		q := query.MustParse(qs)
		got, want := est.Selectivity(q), ev.Selectivity(q)
		if math.Abs(got-want) > 1e-6 {
			t.Errorf("s(%s): estimated %g, exact %g", qs, got, want)
		}
	}
	// A genuinely negative query stays at zero.
	for _, qs := range []string{
		"//paper[year>2050]",
		"//title[contains(zzz)]",
		"//paper[keywords ftcontains(quantum)]",
	} {
		if got := est.Selectivity(query.MustParse(qs)); got != 0 {
			t.Errorf("s(%s) = %g, want 0", qs, got)
		}
	}
}

func TestMergeSemantics(t *testing.T) {
	tr := figure1(t)
	s, _ := BuildReference(tr, ReferenceOptions{})
	// Find the two paper clusters.
	var papers []*Node
	for _, n := range s.Nodes() {
		if n.Label == "paper" {
			papers = append(papers, n)
		}
	}
	if len(papers) != 2 {
		t.Fatalf("papers = %d", len(papers))
	}
	nodesBefore := s.NumNodes()
	u, v := papers[0], papers[1]
	childTotals := make(map[NodeID]float64)
	for _, x := range []*Node{u, v} {
		for c, avg := range x.Children {
			childTotals[c] += x.Count * avg
		}
	}
	w, err := s.Merge(u.ID, v.ID)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	if s.NumNodes() != nodesBefore-1 {
		t.Fatalf("NumNodes = %d, want %d", s.NumNodes(), nodesBefore-1)
	}
	if w.Count != u.Count+v.Count {
		t.Fatalf("count(w) = %g", w.Count)
	}
	// Weighted centroid: total children preserved.
	for c, totalBefore := range childTotals {
		if got := w.Count * w.Children[c]; math.Abs(got-totalBefore) > 1e-9 {
			t.Errorf("child %d: total %g, want %g", c, got, totalBefore)
		}
	}
	// Parent edge counts summed: the two author clusters each point to w
	// with their original totals.
	for p := range w.Parents {
		parent := s.Node(p)
		if parent.Children[w.ID] <= 0 {
			t.Errorf("parent %d lost its edge count", p)
		}
	}
	// Structural queries stay exact (total paper count is preserved).
	est := NewEstimator(s)
	if got := est.Selectivity(query.MustParse("//paper")); math.Abs(got-2) > 1e-9 {
		t.Fatalf("s(//paper) after merge = %g", got)
	}
}

func TestMergeIncompatible(t *testing.T) {
	tr := figure1(t)
	s, _ := BuildReference(tr, ReferenceOptions{})
	var paper, book *Node
	for _, n := range s.Nodes() {
		switch n.Label {
		case "paper":
			paper = n
		case "book":
			book = n
		}
	}
	if _, err := s.Merge(paper.ID, book.ID); err == nil {
		t.Fatal("merged different labels")
	}
	if _, err := s.Merge(paper.ID, paper.ID); err == nil {
		t.Fatal("merged a node with itself")
	}
	if _, err := s.Merge(paper.ID, NodeID(9999)); err == nil {
		t.Fatal("merged a missing node")
	}
}

func TestMergeDeltaZeroForIdenticalClusters(t *testing.T) {
	// Two clusters with identical structural centroids and value
	// distributions: Δ must be 0 (a free merge).
	s := newSynopsis(nil)
	r := s.addNode("R", xmltree.TypeNull)
	r.Count = 1
	s.rootID = r.ID
	u := s.addNode("X", xmltree.TypeNumeric)
	u.Count = 4
	v := s.addNode("X", xmltree.TypeNumeric)
	v.Count = 6
	s.setEdge(r, u, 4)
	s.setEdge(r, v, 6)
	u.VSum = vsum.NewNumeric([]int{1, 1, 2, 2}, 0)
	v.VSum = vsum.NewNumeric([]int{1, 1, 1, 2, 2, 2}, 0)
	delta, saved, err := s.mergeDelta(u.ID, v.ID, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if delta != 0 {
		t.Fatalf("Δ = %g, want 0", delta)
	}
	if saved <= 0 {
		t.Fatalf("saved = %d", saved)
	}
}

func TestMergeDeltaPositiveForDifferentDistributions(t *testing.T) {
	s := newSynopsis(nil)
	r := s.addNode("R", xmltree.TypeNull)
	r.Count = 1
	s.rootID = r.ID
	u := s.addNode("X", xmltree.TypeNumeric)
	u.Count = 4
	v := s.addNode("X", xmltree.TypeNumeric)
	v.Count = 4
	s.setEdge(r, u, 4)
	s.setEdge(r, v, 4)
	u.VSum = vsum.NewNumeric([]int{1, 1, 1, 1}, 0)
	v.VSum = vsum.NewNumeric([]int{100, 100, 100, 100}, 0)
	delta, _, err := s.mergeDelta(u.ID, v.ID, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if delta <= 0 {
		t.Fatalf("Δ = %g, want > 0 for disjoint distributions", delta)
	}
}

func TestMergeDeltaStructuralDifference(t *testing.T) {
	// Structure-only clusters with different centroids.
	s := newSynopsis(nil)
	r := s.addNode("R", xmltree.TypeNull)
	r.Count = 1
	s.rootID = r.ID
	u := s.addNode("X", xmltree.TypeNull)
	u.Count = 2
	v := s.addNode("X", xmltree.TypeNull)
	v.Count = 2
	leaf := s.addNode("L", xmltree.TypeNull)
	leaf.Count = 20
	s.setEdge(r, u, 2)
	s.setEdge(r, v, 2)
	s.setEdge(u, leaf, 10) // u-elements have 10 L-children
	s.setEdge(v, leaf, 0)  // v-elements have none (edge with zero avg)
	delta, _, err := s.mergeDelta(u.ID, v.ID, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	// After the merge each element claims 5 L-children: squared error
	// 2*(10-5)^2 + 2*(0-5)^2 = 100.
	if math.Abs(delta-100) > 1e-9 {
		t.Fatalf("Δ = %g, want 100", delta)
	}
}

func TestCompressDelta(t *testing.T) {
	s := newSynopsis(nil)
	r := s.addNode("R", xmltree.TypeNull)
	r.Count = 1
	s.rootID = r.ID
	u := s.addNode("Y", xmltree.TypeNumeric)
	u.Count = 4
	s.setEdge(r, u, 4)
	u.VSum = vsum.NewNumeric([]int{1, 2, 50, 100}, 0)
	cs, _, steps := u.VSum.Compress(1)
	if steps == 0 {
		t.Fatal("no compression")
	}
	delta, err := s.CompressDelta(u.ID, cs, 0)
	if err != nil {
		t.Fatal(err)
	}
	if delta < 0 {
		t.Fatalf("Δ = %g", delta)
	}
	// Compressing a leaf with identical summary → zero delta.
	if d, _ := s.CompressDelta(u.ID, u.VSum, 0); d != 0 {
		t.Fatalf("self delta = %g", d)
	}
}

func TestXClusterBuildRespectsBudgets(t *testing.T) {
	tr := figure1(t)
	ref, err := BuildReference(tr, ReferenceOptions{})
	if err != nil {
		t.Fatal(err)
	}
	s, err := XClusterBuild(ref, BuildOptions{
		StructBudget: ref.StructBytes() / 2,
		ValueBudget:  ref.ValueBytes() / 2,
		Hm:           100, Hl: 50,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	// Merging cannot go below one cluster per (label, type): the
	// tag-level synopsis is the floor (the paper's 0KB baseline).
	tag, _ := BuildTagSynopsis(tr, ReferenceOptions{})
	floor := tag.StructBytes()
	if budget := ref.StructBytes() / 2; s.StructBytes() > max(budget, floor) {
		t.Errorf("struct bytes %d > max(budget %d, floor %d)", s.StructBytes(), budget, floor)
	}
	if s.ValueBytes() > ref.ValueBytes()/2 {
		t.Errorf("value bytes %d > budget %d", s.ValueBytes(), ref.ValueBytes()/2)
	}
	// The reference is untouched.
	if err := ref.Validate(); err != nil {
		t.Fatal(err)
	}
	// Extent coverage preserved by merging.
	if got := s.TotalExtent(); got != float64(tr.Len()) {
		t.Fatalf("TotalExtent = %g, want %d", got, tr.Len())
	}
}

func TestXClusterBuildEstimatesStayReasonable(t *testing.T) {
	tr := figure1(t)
	ref, _ := BuildReference(tr, ReferenceOptions{})
	s, err := XClusterBuild(ref, BuildOptions{
		StructBudget: 0, // coarsest structure
		ValueBudget:  ref.ValueBytes(),
		Hm:           100, Hl: 50,
	})
	if err != nil {
		t.Fatal(err)
	}
	est := NewEstimator(s)
	// Total element counts per tag survive any merging.
	if got := est.Selectivity(query.MustParse("//paper")); math.Abs(got-2) > 1e-9 {
		t.Fatalf("s(//paper) = %g", got)
	}
	if got := est.Selectivity(query.MustParse("//year")); math.Abs(got-3) > 1e-9 {
		t.Fatalf("s(//year) = %g", got)
	}
}

func TestCloneIndependence(t *testing.T) {
	tr := figure1(t)
	s, _ := BuildReference(tr, ReferenceOptions{})
	c := s.Clone()
	var papers []*Node
	for _, n := range c.Nodes() {
		if n.Label == "paper" {
			papers = append(papers, n)
		}
	}
	if _, err := c.Merge(papers[0].ID, papers[1].ID); err != nil {
		t.Fatal(err)
	}
	if err := s.Validate(); err != nil {
		t.Fatalf("mutating clone corrupted original: %v", err)
	}
	if s.NumNodes() == c.NumNodes() {
		t.Fatal("clone shares node map")
	}
}

func TestLevels(t *testing.T) {
	tr := figure1(t)
	s, _ := BuildReference(tr, ReferenceOptions{})
	levels := s.Levels()
	for _, n := range s.Nodes() {
		if len(n.Children) == 0 && levels[n.ID] != 0 {
			t.Errorf("leaf %s has level %d", n.Path, levels[n.ID])
		}
	}
	// Root has the longest shortest-path: at least 2 in this document
	// (dblp -> author -> name).
	if levels[s.Root().ID] < 2 {
		t.Errorf("root level = %d", levels[s.Root().ID])
	}
}

func TestEstimatorHandlesCycles(t *testing.T) {
	// A synopsis with a self-loop (possible after merging nested
	// same-label clusters) must not hang or return infinities.
	s := newSynopsis(nil)
	r := s.addNode("R", xmltree.TypeNull)
	r.Count = 1
	s.rootID = r.ID
	x := s.addNode("X", xmltree.TypeNull)
	x.Count = 10
	s.setEdge(r, x, 3)
	s.setEdge(x, x, 0.5) // self-loop
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	est := NewEstimator(s)
	got := est.Selectivity(query.MustParse("//X"))
	if math.IsInf(got, 0) || math.IsNaN(got) || got <= 0 {
		t.Fatalf("cyclic estimate = %g", got)
	}
}

func TestStructBytesAccounting(t *testing.T) {
	tr := figure1(t)
	s, _ := BuildReference(tr, ReferenceOptions{})
	want := s.NumNodes()*NodeBytes + s.NumEdges()*EdgeBytes
	if got := s.StructBytes(); got != want {
		t.Fatalf("StructBytes = %d, want %d", got, want)
	}
	if s.TotalBytes() != s.StructBytes()+s.ValueBytes() {
		t.Fatal("TotalBytes mismatch")
	}
}

func TestWriteDOT(t *testing.T) {
	tr := figure1(t)
	s, _ := BuildTagSynopsis(tr, ReferenceOptions{})
	var buf bytes.Buffer
	if err := s.WriteDOT(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"digraph xcluster", "paper", "->", "}"} {
		if !strings.Contains(out, want) {
			t.Fatalf("DOT output missing %q:\n%s", want, out)
		}
	}
	// Deterministic output.
	var buf2 bytes.Buffer
	_ = s.WriteDOT(&buf2)
	if buf.String() != buf2.String() {
		t.Fatal("WriteDOT not deterministic")
	}
}

func TestSynopsisAccessors(t *testing.T) {
	tr := figure1(t)
	s, _ := BuildReference(tr, ReferenceOptions{})
	if s.Dict() == nil {
		t.Fatal("nil dict")
	}
	if got := s.NumValueNodes(); got == 0 || got > s.NumNodes() {
		t.Fatalf("NumValueNodes = %d of %d", got, s.NumNodes())
	}
}
