package xmltree

import (
	"bytes"
	"reflect"
	"strconv"
	"strings"
	"testing"
	"unsafe"
)

// paperExample builds the bibliographic document of Figure 1 in the paper:
// a dblp root with authors, each with a name and paper/book sub-elements
// carrying year (NUMERIC), title (STRING) and abstract/keywords/foreword
// (TEXT) values.
func paperExample(t testing.TB) *Tree {
	t.Helper()
	b := NewBuilder(nil)
	b.Open("dblp")
	b.Open("author")
	b.String("name", "N. Polyzotis")
	b.Open("paper")
	b.Numeric("year", 2000)
	b.String("title", "Counting Twig Matches")
	b.Text("keywords", "XML summary synopsis estimation")
	b.Close()
	b.Open("paper")
	b.Numeric("year", 2002)
	b.String("title", "Holistic Twig Joins")
	b.Text("abstract", "XML employs a tree structured data model for queries")
	b.Close()
	b.Close()
	b.Open("author")
	b.String("name", "M. Garofalakis")
	b.Open("book")
	b.Numeric("year", 2002)
	b.String("title", "Database Systems")
	b.Text("foreword", "Database systems have become essential infrastructure for applications")
	b.Close()
	b.Close()
	b.Close()
	return b.Tree()
}

func TestBuilderPaperExample(t *testing.T) {
	tr := paperExample(t)
	if err := tr.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	if got := tr.Len(); got != 17 {
		t.Fatalf("Len = %d, want 17", got)
	}
	if tr.Root.Label != "dblp" {
		t.Fatalf("root label = %q", tr.Root.Label)
	}
	st := tr.ComputeStats()
	if st.Elements != 17 || st.ValueNodes != 11 {
		t.Fatalf("stats = %+v", st)
	}
	if st.ByType[TypeNumeric] != 3 || st.ByType[TypeString] != 5 || st.ByType[TypeText] != 3 {
		t.Fatalf("type counts = %v", st.ByType)
	}
	if st.MaxDepth != 4 {
		t.Fatalf("MaxDepth = %d, want 4", st.MaxDepth)
	}
}

func TestNodePath(t *testing.T) {
	tr := paperExample(t)
	years := tr.PathNodes("/dblp/author/paper/year")
	if len(years) != 2 {
		t.Fatalf("got %d year nodes under paper, want 2", len(years))
	}
	for _, y := range years {
		if y.Type != TypeNumeric {
			t.Fatalf("year node has type %v", y.Type)
		}
	}
	if got := tr.PathNodes("/dblp/author/book/year"); len(got) != 1 {
		t.Fatalf("book years = %d, want 1", len(got))
	}
}

func TestHasTerm(t *testing.T) {
	tr := paperExample(t)
	kw := tr.PathNodes("/dblp/author/paper/keywords")[0]
	id, ok := tr.Dict.ID("xml")
	if !ok {
		t.Fatal("term xml not interned")
	}
	if !kw.HasTerm(id) {
		t.Fatal("keywords should contain xml")
	}
	if kw.HasTerm(tr.Dict.Len() + 5) {
		t.Fatal("HasTerm true for unknown id")
	}
}

func TestParseRoundTrip(t *testing.T) {
	tr := paperExample(t)
	var buf bytes.Buffer
	if err := Write(&buf, tr); err != nil {
		t.Fatalf("Write: %v", err)
	}
	back, err := Parse(&buf, ParseOptions{})
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	if err := back.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	if back.Len() != tr.Len() {
		t.Fatalf("round trip length %d, want %d", back.Len(), tr.Len())
	}
	// Values survive with types intact.
	y := back.PathNodes("/dblp/author/paper/year")
	if len(y) != 2 || y[0].Type != TypeNumeric || y[0].Num != 2000 {
		t.Fatalf("year after round trip: %+v", y)
	}
	titles := back.PathNodes("/dblp/author/book/title")
	if len(titles) != 1 || titles[0].Type != TypeString || titles[0].Str != "Database Systems" {
		t.Fatalf("title after round trip: %+v", titles)
	}
	fw := back.PathNodes("/dblp/author/book/foreword")
	if len(fw) != 1 || fw[0].Type != TypeText {
		t.Fatalf("foreword after round trip: %+v", fw)
	}
	if id, ok := back.Dict.ID("database"); !ok || !fw[0].HasTerm(id) {
		t.Fatal("foreword lost the term 'database'")
	}
}

func TestParseErrors(t *testing.T) {
	cases := map[string]string{
		"empty":                "",
		"unbalanced":           "<a><b></a>",
		"two roots":            "<a></a><b></b>",
		"mismatched end tag":   "<a><b></c></a>",
		"unclosed root":        "<a><b>1</b>",
		"unknown entity":       "<a>&nbsp;</a>",
		"bad char reference":   "<a>&#xZZ;</a>",
		"illegal name start":   "<1a>1</1a>",
		"NUL byte":             "<a>\x00</a>",
		"-- inside a comment":  "<a><!-- a -- b --></a>",
		"unsupported encoding": `<?xml version="1.0" encoding="latin1"?><a/>`,
	}
	for name, doc := range cases {
		if _, err := Parse(strings.NewReader(doc), ParseOptions{}); err == nil {
			t.Errorf("%s: Parse accepted %q", name, doc)
		}
		if _, err := oracleParse(strings.NewReader(doc), ParseOptions{}); err == nil {
			t.Errorf("%s: the oracle accepted %q", name, doc)
		}
	}
}

// TestParseAcceptsOracleQuirks pins documents encoding/xml accepts that
// a stricter reader might not, each against its expected tree and
// against the oracle.
func TestParseAcceptsOracleQuirks(t *testing.T) {
	cases := []struct {
		name, doc string
		check     func(*Tree) bool
	}{
		{"text after the root is ignored", "<a>1</a> trailing <!-- c --> text &amp; more",
			func(tr *Tree) bool { return tr.Len() == 1 && tr.Root.Type == TypeNumeric && tr.Root.Num == 1 }},
		{"entities and CDATA resolve inside a STRING value", "<a> Tom &amp; <![CDATA[<Jerry>]]>&#x21;&#33; </a>",
			func(tr *Tree) bool { return tr.Root.Type == TypeString && tr.Root.Str == "Tom & <Jerry>!!" }},
		{"comments and PIs inside a value are dropped", "<a>19<!-- c -->8<?pi x?>4</a>",
			func(tr *Tree) bool { return tr.Root.Type == TypeNumeric && tr.Root.Num == 1984 }},
		{"mixed content stays structural", "<a>hello <b>5</b> world</a>",
			func(tr *Tree) bool {
				b := tr.Root.Children
				return tr.Root.Type == TypeNull && len(b) == 1 && b[0].Type == TypeNumeric && b[0].Num == 5
			}},
		{"a DOCTYPE with an internal subset is skipped", "<!DOCTYPE a [<!ENTITY e \"x\"><!-- > -->]><a>x y</a>",
			func(tr *Tree) bool { return tr.Root.Type == TypeString && tr.Root.Str == "x y" }},
		{"a namespace prefix leaves the label", `<x:a xmlns:x="urn:x"><x:b>2</x:b></x:a>`,
			func(tr *Tree) bool { return tr.Root.Label == "a" && tr.Root.Children[0].Label == "b" }},
		{"a BOM and white space may lead", "\ufeff \n<?xml version=\"1.0\" encoding=\"utf-8\"?><a/>",
			func(tr *Tree) bool { return tr.Len() == 1 && tr.Root.Type == TypeNull }},
		{"a surrogate reference reads as U+FFFD", "<a>&#xD800;</a>",
			func(tr *Tree) bool { return tr.Root.Str == "\uFFFD" }},
		{"CR LF and lone CR read as LF", "<a>x\r\ny\rz w</a>",
			func(tr *Tree) bool { return tr.Root.Str == "x\ny\nz w" }},
	}
	for _, c := range cases {
		tr, err := Parse(strings.NewReader(c.doc), ParseOptions{})
		if err != nil {
			t.Errorf("%s: Parse(%q): %v", c.name, c.doc, err)
			continue
		}
		if !c.check(tr) {
			t.Errorf("%s: Parse(%q) built an unexpected tree: %+v", c.name, c.doc, shapeOf(tr))
		}
		for _, opts := range oracleOptions {
			checkOracle(t, []byte(c.doc), opts)
		}
	}
}

// tokenizeCases are texts whose terms are easy to get wrong: case,
// single characters, runes whose lower case has another length, and
// invalid UTF-8.
var tokenizeCases = []string{
	"", "!!! ... ???", "a b c", "XML, employs a Tree-structured data-model!",
	"aa bb cc dd ee", "aa bb cc dd ee ff", "aa bb cc dd ee f", "aa bb cc dd ee \u0130",
	"aa bb cc dd ee \u212a", "\u0130\u0130 \u212aK \u00c9cole \u00e9COLE", "x\xffy zz\xc3",
	"one_two three-four 5six 1_000", "日本語 テキスト ok",
}

func TestDefaultTypeHint(t *testing.T) {
	cases := []struct {
		text string
		want ValueType
	}{
		{"1984", TypeNumeric},
		{"  42 ", TypeNumeric},
		{"+5", TypeNumeric},
		{"-0", TypeNumeric},
		{"\u00a0 42\u2003", TypeNumeric},
		{"99999999999999999999", TypeString},
		{"1_000", TypeString},
		{"12abc", TypeString},
		{"+", TypeString},
		{"", TypeString},
		{"!!! ... ???", TypeString},
		{"Database Systems", TypeString},
		{"aa bb cc dd ee", TypeString},
		{"aa bb cc dd ee f", TypeString},
		{"aa bb cc dd ee \u0130", TypeString},
		{"aa bb cc dd ee ff", TypeText},
		{"one two three four five six seven", TypeText},
	}
	for _, c := range cases {
		if got := DefaultTypeHint("/x", c.text); got != c.want {
			t.Errorf("hint(%q) = %v, want %v", c.text, got, c.want)
		}
	}
	// The hint's answers are strconv.Atoi's and the term count's.
	texts := append([]string(nil), tokenizeCases...)
	for _, c := range cases {
		texts = append(texts, c.text)
	}
	for _, text := range texts {
		want := TypeString
		if _, err := strconv.Atoi(strings.TrimSpace(text)); err == nil {
			want = TypeNumeric
		} else if len(Tokenize(text)) > 5 {
			want = TypeText
		}
		if got := DefaultTypeHint("", text); got != want {
			t.Errorf("hint(%q) = %v; Atoi and the term count say %v", text, got, want)
		}
	}
}

func TestTokenize(t *testing.T) {
	got := Tokenize("XML, employs a Tree-structured data-model!")
	want := []string{"xml", "employs", "tree", "structured", "data", "model"}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("Tokenize = %v, want %v", got, want)
	}
	for _, text := range tokenizeCases {
		if got, want := countTerms(text, 1<<30), len(Tokenize(text)); got != want {
			t.Errorf("countTerms(%q) = %d, want %d", text, got, want)
		}
	}
}

func TestDictIntern(t *testing.T) {
	d := NewDict()
	a := d.Intern("xml")
	b := d.Intern("tree")
	if a == b {
		t.Fatal("distinct terms share an id")
	}
	if again := d.Intern("xml"); again != a {
		t.Fatalf("re-intern changed id: %d != %d", again, a)
	}
	if d.Len() != 2 {
		t.Fatalf("Len = %d, want 2", d.Len())
	}
	if d.Term(a) != "xml" {
		t.Fatalf("Term(%d) = %q", a, d.Term(a))
	}
}

func TestInternTextDedup(t *testing.T) {
	d := NewDict()
	ids := d.InternText("xml xml tree xml tree")
	if len(ids) != 2 {
		t.Fatalf("InternText kept duplicates: %v", ids)
	}
	if ids[0] >= ids[1] {
		t.Fatalf("ids not sorted: %v", ids)
	}
	// Repeated, mixed-case and single-character tokens: terms are interned
	// lower-cased in order of first use, single characters are dropped,
	// and the vector is the sorted distinct ids.
	d = NewDict()
	d.Intern("zeta")
	ids = d.InternText("Tree a XML b tree ZETA x \u00c9cole TREE xml \u00e9COLE 7")
	if want := []int{0, 1, 2, 3}; !reflect.DeepEqual(ids, want) {
		t.Fatalf("InternText ids = %v, want %v", ids, want)
	}
	if want := []string{"zeta", "tree", "xml", "\u00e9cole"}; !reflect.DeepEqual(d.Terms(), want) {
		t.Fatalf("dictionary terms = %q, want %q", d.Terms(), want)
	}
	if ids := d.InternText("a . b !"); ids != nil {
		t.Fatalf("InternText of no terms = %v, want nil", ids)
	}
	if ids := d.InternTerms([]string{"xml", "new", "zeta", "xml"}); !reflect.DeepEqual(ids, []int{0, 2, 4}) {
		t.Fatalf("InternTerms = %v, want [0 2 4]", ids)
	}
	for _, text := range tokenizeCases {
		want := NewDict()
		for _, term := range Tokenize(text) {
			want.Intern(term)
		}
		got := NewDict()
		ids := got.InternText(text)
		if !reflect.DeepEqual(got.Terms(), want.Terms()) || len(ids) != want.Len() {
			t.Errorf("InternText(%q) interned %q as %v, want %q", text, got.Terms(), ids, want.Terms())
		}
	}
}

// TestInternCopiesTerms checks that the dictionary keeps copies, never
// the caller's memory.
func TestInternCopiesTerms(t *testing.T) {
	d := NewDict()
	text := strings.Repeat("long free text ", 4)
	id := d.Intern(text[5:9])
	if unsafe.StringData(d.Term(id)) == unsafe.StringData(text[5:9]) {
		t.Fatal("Intern stored the caller's string")
	}
	for _, id := range d.InternText(text) {
		term := d.Term(id)
		if p := uintptr(unsafe.Pointer(unsafe.StringData(term))); p >= uintptr(unsafe.Pointer(unsafe.StringData(text))) &&
			p < uintptr(unsafe.Pointer(unsafe.StringData(text)))+uintptr(len(text)) {
			t.Fatalf("InternText stored %q inside the caller's text", term)
		}
	}
}

func TestValidateCatchesCorruption(t *testing.T) {
	tr := paperExample(t)
	// Break a parent pointer.
	tr.Root.Children[0].Children[1].Parent = tr.Root
	if err := tr.Validate(); err == nil {
		t.Fatal("Validate missed a broken parent pointer")
	}
}

func TestMixedContentIsStructural(t *testing.T) {
	doc := "<a>hello<b>5</b></a>"
	tr, err := Parse(strings.NewReader(doc), ParseOptions{})
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	if tr.Root.Type != TypeNull {
		t.Fatalf("mixed-content root got type %v", tr.Root.Type)
	}
	if tr.Root.Children[0].Type != TypeNumeric {
		t.Fatalf("b should be numeric, got %v", tr.Root.Children[0].Type)
	}
}

func TestSubtreeEndAndLabelIndex(t *testing.T) {
	tr := paperExample(t)
	// Root's subtree covers everything.
	if got := tr.SubtreeEnd(tr.Root); got != tr.Len()-1 {
		t.Fatalf("root SubtreeEnd = %d, want %d", got, tr.Len()-1)
	}
	// A leaf's subtree is itself.
	leaf := tr.PathNodes("/dblp/author/paper/year")[0]
	if got := tr.SubtreeEnd(leaf); got != leaf.ID {
		t.Fatalf("leaf SubtreeEnd = %d, want %d", got, leaf.ID)
	}
	// The interval (n.ID, end] is exactly n's proper descendants.
	for _, n := range tr.Nodes() {
		end := tr.SubtreeEnd(n)
		count := 0
		var walk func(x *Node)
		walk = func(x *Node) {
			for _, c := range x.Children {
				count++
				if c.ID <= n.ID || c.ID > end {
					t.Fatalf("descendant %d outside (%d,%d]", c.ID, n.ID, end)
				}
				walk(c)
			}
		}
		walk(n)
		if count != end-n.ID {
			t.Fatalf("node %d: %d descendants, interval holds %d", n.ID, count, end-n.ID)
		}
	}
	// Label index is sorted and complete.
	ids := tr.LabeledIDs("year")
	if len(ids) != 3 {
		t.Fatalf("year ids = %v", ids)
	}
	for i, id := range ids {
		if tr.Node(id).Label != "year" {
			t.Fatalf("id %d is %s", id, tr.Node(id).Label)
		}
		if i > 0 && ids[i-1] >= id {
			t.Fatal("label index not sorted")
		}
	}
	if tr.LabeledIDs("missing") != nil {
		t.Fatal("missing label returned ids")
	}
}

func TestParseAttributes(t *testing.T) {
	doc := `<site><item id="42" featured="yes"><name>Brass Compass</name></item></site>`
	// Default: attributes ignored.
	plain, err := Parse(strings.NewReader(doc), ParseOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if plain.Len() != 3 {
		t.Fatalf("plain Len = %d, want 3", plain.Len())
	}
	// With Attributes: @id and @featured become typed children.
	withAttrs, err := Parse(strings.NewReader(doc), ParseOptions{Attributes: true})
	if err != nil {
		t.Fatal(err)
	}
	if withAttrs.Len() != 5 {
		t.Fatalf("attr Len = %d, want 5", withAttrs.Len())
	}
	if err := withAttrs.Validate(); err != nil {
		t.Fatal(err)
	}
	ids := withAttrs.PathNodes("/site/item/@id")
	if len(ids) != 1 || ids[0].Type != TypeNumeric || ids[0].Num != 42 {
		t.Fatalf("@id = %+v", ids)
	}
	feat := withAttrs.PathNodes("/site/item/@featured")
	if len(feat) != 1 || feat[0].Type != TypeString || feat[0].Str != "yes" {
		t.Fatalf("@featured = %+v", feat)
	}
}

// FuzzInternText checks the word scanner against Tokenize on arbitrary
// text: countTerms' count, DefaultTypeHint's TEXT decision, and the
// terms InternText interns, in order.
func FuzzInternText(f *testing.F) {
	for _, text := range tokenizeCases {
		f.Add(text)
	}
	f.Fuzz(func(t *testing.T, text string) {
		want := Tokenize(text)
		if got := countTerms(text, 6); got != min(len(want), 6) {
			t.Fatalf("countTerms(%q, 6) = %d, want %d", text, got, min(len(want), 6))
		}
		wantHint := TypeString
		if _, err := strconv.Atoi(strings.TrimSpace(text)); err == nil {
			wantHint = TypeNumeric
		} else if len(want) > 5 {
			wantHint = TypeText
		}
		if got := DefaultTypeHint("", text); got != wantHint {
			t.Fatalf("DefaultTypeHint(%q) = %v, want %v", text, got, wantHint)
		}
		wantDict := NewDict()
		for _, term := range want {
			wantDict.Intern(term)
		}
		d := NewDict()
		ids := d.InternText(text)
		if !reflect.DeepEqual(d.Terms(), wantDict.Terms()) || len(ids) != wantDict.Len() {
			t.Fatalf("InternText(%q) interned %q as %v, want %q", text, d.Terms(), ids, wantDict.Terms())
		}
	})
}
