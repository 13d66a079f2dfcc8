package query

import (
	"strings"
	"testing"

	"xcluster/internal/xmltree"
)

// figure1 builds the document of Figure 1 in the paper: one author with
// two papers (years 2000 and 2002) plus keywords/abstract text, and a
// second author with one book (year 2002) with a foreword.
func figure1(t testing.TB) *xmltree.Tree {
	t.Helper()
	b := xmltree.NewBuilder(nil)
	b.Open("dblp")
	b.Open("author")
	b.String("name", "First Author")
	b.Open("paper")
	b.Numeric("year", 2000)
	b.String("title", "Counting Twig Matches in a Tree")
	b.Text("keywords", "xml summary synopsis structure estimation")
	b.Close()
	b.Open("paper")
	b.Numeric("year", 2002)
	b.String("title", "Holistic Processing")
	b.Text("abstract", "xml employs a tree structured data model where synopsis structures help")
	b.Close()
	b.Close()
	b.Open("author")
	b.String("name", "Second Author")
	b.Open("book")
	b.Numeric("year", 2002)
	b.String("title", "Database Systems The Complete Book")
	b.Text("foreword", "database systems have become an essential part of modern computing")
	b.Close()
	b.Close()
	b.Close()
	return b.Tree()
}

func TestParseSimplePath(t *testing.T) {
	q, err := Parse("//paper/title")
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	if q.Vars() != 1 {
		t.Fatalf("Vars = %d, want 1 (no predicates, single chain)", q.Vars())
	}
	r := q.Roots[0]
	if len(r.Steps) != 2 {
		t.Fatalf("steps = %v", r.Steps)
	}
	if r.Steps[0] != (Step{Descendant, "paper"}) || r.Steps[1] != (Step{Child, "title"}) {
		t.Fatalf("steps = %v", r.Steps)
	}
}

func TestParsePaperIntroQuery(t *testing.T) {
	// The introduction's motivating query, in this parser's syntax.
	q, err := Parse("//paper[year>2000][abstract ftcontains(synopsis,xml)]/title[contains(Tree)]")
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	// Variables: paper, year-branch, abstract-branch, title.
	if q.Vars() != 4 {
		t.Fatalf("Vars = %d, want 4", q.Vars())
	}
	paper := q.Roots[0]
	if len(paper.Children) != 3 {
		t.Fatalf("paper children = %d, want 3", len(paper.Children))
	}
	year := paper.Children[0]
	if r, ok := year.Pred.(Range); !ok || r.Lo != 2001 || r.Hi != MaxBound {
		t.Fatalf("year pred = %v", year.Pred)
	}
	abs := paper.Children[1]
	if ft, ok := abs.Pred.(FTContains); !ok || len(ft.Terms) != 2 {
		t.Fatalf("abstract pred = %v", abs.Pred)
	}
	title := paper.Children[2]
	if c, ok := title.Pred.(Contains); !ok || c.Substr != "Tree" {
		t.Fatalf("title pred = %v", title.Pred)
	}
}

func TestParseComparisons(t *testing.T) {
	cases := []struct {
		in     string
		lo, hi int
	}{
		{"//y[>10]", 11, MaxBound},
		{"//y[>=10]", 10, MaxBound},
		{"//y[<10]", -MaxBound, 9},
		{"//y[<=10]", -MaxBound, 10},
		{"//y[=10]", 10, 10},
		{"//y[range(3,7)]", 3, 7},
		{"//y[>2147483646]", MaxBound, MaxBound},
		{"//y[<-2147483646]", -MaxBound, -MaxBound},
		{"//y[>=2147483647]", MaxBound, MaxBound},
		{"//y[<=-2147483647]", -MaxBound, -MaxBound},
	}
	for _, c := range cases {
		q, err := Parse(c.in)
		if err != nil {
			t.Fatalf("Parse(%q): %v", c.in, err)
		}
		r, ok := q.Roots[0].Pred.(Range)
		if !ok || r.Lo != c.lo || r.Hi != c.hi {
			t.Errorf("%q => %+v, want [%d,%d]", c.in, q.Roots[0].Pred, c.lo, c.hi)
		}
	}
}

// TestParseComparisonBounds pins the error of every comparison whose
// range would be empty: the bound lies past ±MaxBound, and n±1 of > and
// < is never computed at the int limits (where it used to wrap into a
// range matching almost every value).
func TestParseComparisonBounds(t *testing.T) {
	cases := []struct{ in, want string }{
		{"/0>7000000000", "query: parse error at offset 13: empty range (7000000000,2147483647]"},
		{"/0>2147483647", "query: parse error at offset 13: empty range (2147483647,2147483647]"},
		{"/0>9223372036854775807", "query: parse error at offset 22: empty range (9223372036854775807,2147483647]"},
		{"/0<-9223372036854775808", "query: parse error at offset 23: empty range [-2147483647,-9223372036854775808)"},
		{"/0>=7000000000", "query: parse error at offset 14: empty range [7000000000,2147483647]"},
		{"/0<=-2147483648", "query: parse error at offset 15: empty range [-2147483647,-2147483648]"},
		{"/0<-2147483647", "query: parse error at offset 14: empty range [-2147483647,-2147483647)"},
	}
	for _, c := range cases {
		q, err := Parse(c.in)
		if err == nil {
			t.Errorf("Parse(%q) = %s, want an empty-range error", c.in, q)
			continue
		}
		if got := err.Error(); got != c.want {
			t.Errorf("Parse(%q) error = %q, want %q", c.in, got, c.want)
		}
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		"",
		"paper/title",
		"//paper[",
		"//paper[range(5,2)]",
		"//paper[contains()]",
		"//paper[ftcontains()]",
		"//paper]extra",
		"///x",
	}
	for _, s := range bad {
		if _, err := Parse(s); err == nil {
			t.Errorf("Parse(%q) accepted invalid input", s)
		}
	}
}

func TestParseWildcardAndDeepBranch(t *testing.T) {
	q, err := Parse("//*[.//profile/age>=30]/name")
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	star := q.Roots[0]
	if star.Steps[0].Label != Wildcard {
		t.Fatalf("steps = %v", star.Steps)
	}
	branch := star.Children[0]
	if len(branch.Steps) != 2 || branch.Steps[0] != (Step{Descendant, "profile"}) {
		t.Fatalf("branch steps = %v", branch.Steps)
	}
	if _, ok := branch.Pred.(Range); !ok {
		t.Fatalf("branch pred = %v", branch.Pred)
	}
}

func TestExactEvalStructural(t *testing.T) {
	tr := figure1(t)
	ev := NewEvaluator(tr)
	cases := []struct {
		q    string
		want float64
	}{
		{"//paper", 2},
		{"//author", 2},
		{"//paper/title", 2},
		{"//author/paper/year", 2},
		{"//book/year", 1},
		{"//year", 3},
		{"/dblp/author", 2},
		{"/dblp/*", 2},
		{"//*", 17}, // every element, root included (XPath semantics)
		{"//missing", 0},
		{"/dblp//title", 3},
	}
	for _, c := range cases {
		got := ev.Selectivity(MustParse(c.q))
		if got != c.want {
			t.Errorf("s(%s) = %v, want %v", c.q, got, c.want)
		}
	}
}

func TestExactEvalValuePreds(t *testing.T) {
	tr := figure1(t)
	ev := NewEvaluator(tr)
	cases := []struct {
		q    string
		want float64
	}{
		{"//paper[year>2000]", 1},
		{"//paper[year>=2000]", 2},
		{"//paper/year[range(2000,2001)]", 1},
		{"//title[contains(Tree)]", 1},
		{"//title[contains(Book)]", 1},
		{"//title[contains(zzz)]", 0},
		{"//paper[abstract ftcontains(synopsis,xml)]", 1},
		{"//paper[keywords ftcontains(xml)]", 1},
		{"//book[foreword ftcontains(database,systems)]", 1},
		{"//book[foreword ftcontains(nonexistent)]", 0},
		// Intro query: papers after 2000 whose abstract mentions both
		// terms, and whose title contains "Tree" — paper 2 has the right
		// abstract but its title lacks "Tree", so zero tuples.
		{"//paper[year>2000][abstract ftcontains(synopsis,xml)]/title[contains(Tree)]", 0},
		{"//paper[year>2000][abstract ftcontains(synopsis,xml)]/title", 1},
	}
	for _, c := range cases {
		got := ev.Selectivity(MustParse(c.q))
		if got != c.want {
			t.Errorf("s(%s) = %v, want %v", c.q, got, c.want)
		}
	}
}

func TestBindingTupleMultiplication(t *testing.T) {
	// An author with two papers and two interests: //author[paper][interest]
	// binds (author, paper, interest) triples => 2*2 = 4 tuples.
	b := xmltree.NewBuilder(nil)
	b.Open("root")
	b.Open("author")
	b.Empty("paper")
	b.Empty("paper")
	b.Empty("interest")
	b.Empty("interest")
	b.Close()
	b.Close()
	tr := b.Tree()
	ev := NewEvaluator(tr)
	if got := ev.Selectivity(MustParse("//author[paper][interest]")); got != 4 {
		t.Fatalf("tuples = %v, want 4", got)
	}
	if got := ev.Selectivity(MustParse("//author[paper]")); got != 2 {
		t.Fatalf("tuples = %v, want 2", got)
	}
}

func TestDescendantDedup(t *testing.T) {
	// //a//b from a nested a/a/b: b is a descendant of both a elements,
	// but within one binding of the intermediate (non-variable) step the
	// target set is deduplicated; with //a as part of the same edge path
	// each distinct b counts once per edge evaluation.
	b := xmltree.NewBuilder(nil)
	b.Open("root")
	b.Open("a")
	b.Open("a")
	b.Empty("b")
	b.Close()
	b.Close()
	b.Close()
	tr := b.Tree()
	ev := NewEvaluator(tr)
	// Single variable with steps [//a, //b]: the b element must be
	// counted once, not once per a ancestor.
	if got := ev.Selectivity(MustParse("//a//b")); got != 1 {
		t.Fatalf("s(//a//b) = %v, want 1", got)
	}
	// Two variables: (a, b) assignments — both a elements pair with b.
	if got := ev.Selectivity(MustParse("//a[.//b]")); got != 2 {
		t.Fatalf("s(//a[.//b]) = %v, want 2", got)
	}
}

func TestQueryString(t *testing.T) {
	in := "//paper[year>2000]/title"
	q := MustParse(in)
	// Round-trip through String and Parse preserves semantics.
	q2, err := Parse(q.String())
	if err != nil {
		t.Fatalf("re-parse %q: %v", q.String(), err)
	}
	tr := figure1(t)
	ev := NewEvaluator(tr)
	if a, b := ev.Selectivity(q), ev.Selectivity(q2); a != b {
		t.Fatalf("selectivity changed across String round-trip: %v vs %v", a, b)
	}
}

func TestPredTypes(t *testing.T) {
	q := MustParse("//paper[year>2000][abstract ftcontains(x)]/title[contains(T)]")
	kinds := q.PredTypes()
	if !kinds[KindRange] || !kinds[KindContains] || !kinds[KindFTContains] {
		t.Fatalf("kinds = %v", kinds)
	}
	if MustParse("//paper/title").HasPred() {
		t.Fatal("structural query reports predicates")
	}
}

func TestFTSimParseAndMatch(t *testing.T) {
	tr := figure1(t)
	ev := NewEvaluator(tr)
	cases := []struct {
		q    string
		want float64
	}{
		// keywords: {xml, summary, synopsis, structure, estimation};
		// abstract mentions xml+synopsis+structured...; foreword neither.
		{"//keywords[ftsim(1,xml,quantum)]", 1},
		{"//keywords[ftsim(2,xml,quantum)]", 0},
		{"//keywords[ftsim(2,xml,summary,quantum)]", 1},
		{"//paper[keywords ftsim(1,synopsis,relational)]", 1},
		{"//foreword[ftsim(1,xml,synopsis)]", 0},
	}
	for _, c := range cases {
		got := ev.Selectivity(MustParse(c.q))
		if got != c.want {
			t.Errorf("s(%s) = %v, want %v", c.q, got, c.want)
		}
	}
	// ftcontains(t1..tk) == ftsim(k, t1..tk).
	a := ev.Selectivity(MustParse("//abstract[ftcontains(xml,synopsis)]"))
	b := ev.Selectivity(MustParse("//abstract[ftsim(2,xml,synopsis)]"))
	if a != b {
		t.Fatalf("ftcontains %v != ftsim-all %v", a, b)
	}
}

func TestFTSimParseErrors(t *testing.T) {
	for _, s := range []string{
		"//a[ftsim(0,x)]",
		"//a[ftsim(3,x,y)]",
		"//a[ftsim(1,)]",
		"//a[ftsim(x,y)]",
		"//a[ftsim(1,x]",
	} {
		if _, err := Parse(s); err == nil {
			t.Errorf("Parse(%q) accepted invalid ftsim", s)
		}
	}
}

// naiveMatch recomputes step matching by brute-force subtree walks, as a
// reference for the indexed implementation.
func naiveMatch(tr *xmltree.Tree, root *xmltree.Node, steps []Step) map[int]bool {
	frontier := map[int]bool{root.ID: true}
	byID := func(id int) *xmltree.Node {
		if id < 0 {
			return root
		}
		return tr.Node(id)
	}
	for _, s := range steps {
		next := map[int]bool{}
		for id := range frontier {
			f := byID(id)
			if s.Axis == Child {
				for _, c := range f.Children {
					if s.Matches(c.Label) {
						next[c.ID] = true
					}
				}
				continue
			}
			var walk func(n *xmltree.Node)
			walk = func(n *xmltree.Node) {
				for _, c := range n.Children {
					if s.Matches(c.Label) {
						next[c.ID] = true
					}
					walk(c)
				}
			}
			walk(f)
		}
		frontier = next
	}
	return frontier
}

func TestIndexedDescendantsMatchNaive(t *testing.T) {
	tr := figure1(t)
	ev := NewEvaluator(tr)
	stepSets := [][]Step{
		{{Descendant, "paper"}},
		{{Descendant, "year"}},
		{{Descendant, "*"}},
		{{Descendant, "author"}, {Descendant, "year"}},
		{{Descendant, "author"}, {Child, "paper"}, {Descendant, "*"}},
		{{Child, "author"}, {Descendant, "title"}},
		{{Descendant, "missing"}},
	}
	doc := &xmltree.Node{ID: -1, Children: []*xmltree.Node{tr.Root}}
	for _, steps := range stepSets {
		got := ev.matchSteps(doc, steps)
		want := naiveMatch(tr, doc, steps)
		if len(got) != len(want) {
			t.Fatalf("steps %v: %d matches, want %d", steps, len(got), len(want))
		}
		for _, n := range got {
			if !want[n.ID] {
				t.Fatalf("steps %v: unexpected match %d", steps, n.ID)
			}
		}
	}
}

func TestBindingsMatchSelectivity(t *testing.T) {
	tr := figure1(t)
	ev := NewEvaluator(tr)
	for _, qs := range []string{
		"//paper",
		"//paper[year>2000]",
		"//author[paper][./name]",
		"//paper[year>=2000]/title",
		"//missing",
	} {
		q := MustParse(qs)
		bindings := ev.Bindings(q, 0)
		if got, want := float64(len(bindings)), ev.Selectivity(q); got != want {
			t.Errorf("%s: %g bindings, selectivity %g", qs, got, want)
		}
		// Every binding satisfies its predicates and has the right arity.
		for _, b := range bindings {
			if len(b) != q.Vars() {
				t.Fatalf("%s: binding arity %d, vars %d", qs, len(b), q.Vars())
			}
			for _, n := range b {
				if n == nil {
					t.Fatalf("%s: nil element in binding", qs)
				}
			}
		}
	}
}

func TestBindingsLimit(t *testing.T) {
	tr := figure1(t)
	ev := NewEvaluator(tr)
	q := MustParse("//year")
	all := ev.Bindings(q, 0)
	if len(all) != 3 {
		t.Fatalf("bindings = %d, want 3", len(all))
	}
	capped := ev.Bindings(q, 2)
	if len(capped) != 2 {
		t.Fatalf("capped bindings = %d, want 2", len(capped))
	}
}

func TestPredKindString(t *testing.T) {
	cases := map[PredKind]string{
		KindRange:      "numeric",
		KindContains:   "string",
		KindFTContains: "text",
		KindFTSim:      "text-sim",
		PredKind(9):    "PredKind(9)",
	}
	for k, want := range cases {
		if got := k.String(); got != want {
			t.Errorf("%d.String() = %q, want %q", k, got, want)
		}
	}
}

// allPreds lists one value of every Pred implementation in this package.
// Adding a Pred type without extending this list fails
// TestPredKindExhaustive's count check.
var allPreds = []Pred{
	Range{Lo: 1, Hi: 2},
	Contains{Substr: "x"},
	FTContains{Terms: []string{"x"}},
	FTSim{Terms: []string{"x", "y"}, Min: 1},
}

// TestPredKindExhaustive pins the kind system closed: every declared
// kind has a value type and a real String name, every Pred
// implementation maps to a distinct declared kind, and the
// implementation count matches the kind count — so a future kind or
// predicate type cannot silently fall through ValueType (and with it
// the estimator's type check).
func TestPredKindExhaustive(t *testing.T) {
	if got, want := len(allPreds), int(numPredKinds); got != want {
		t.Fatalf("%d Pred implementations registered for %d kinds", got, want)
	}
	seen := make(map[PredKind]Pred)
	for _, p := range allPreds {
		k := p.Kind()
		if k >= numPredKinds {
			t.Errorf("%T.Kind() = %v, outside the declared kinds", p, k)
		}
		if prev, dup := seen[k]; dup {
			t.Errorf("%T and %T share kind %v", prev, p, k)
		}
		seen[k] = p
	}
	for k := PredKind(0); k < numPredKinds; k++ {
		if _, ok := k.ValueType(); !ok {
			t.Errorf("kind %v has no value type", k)
		}
		if got := k.String(); strings.HasPrefix(got, "PredKind(") {
			t.Errorf("kind %v has no String name", k)
		}
	}
	if _, ok := numPredKinds.ValueType(); ok {
		t.Error("sentinel kind reports a value type")
	}
}

// TestFTSimRoundTrip pins the parse → String → parse invariant for the
// ftsim predicate syntax, including its distinct kind.
func TestFTSimRoundTrip(t *testing.T) {
	const in = "//paper[abstract ftsim(2,xml,synopsis,tree)]/title"
	q := MustParse(in)
	if !q.PredTypes()[KindFTSim] {
		t.Fatalf("PredTypes(%q) = %v, want KindFTSim", in, q.PredTypes())
	}
	rendered := q.String()
	q2, err := Parse(rendered)
	if err != nil {
		t.Fatalf("re-parse %q: %v", rendered, err)
	}
	if rendered != q2.String() {
		t.Fatalf("round trip not stable: %q vs %q", rendered, q2.String())
	}
	if !q2.PredTypes()[KindFTSim] {
		t.Fatalf("round trip lost KindFTSim: %v", q2.PredTypes())
	}
}
