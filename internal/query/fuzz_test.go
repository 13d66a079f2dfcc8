package query

import (
	"testing"

	"xcluster/internal/xmltree"
)

// parseSeeds are FuzzParse's seed corpus, also rendered by the
// canonical-string tests.
var parseSeeds = []string{
	"//paper/title",
	"//paper[year>2000][abstract ftcontains(synopsis,xml)]/title[contains(Tree)]",
	"/site/regions/region/item[quantity>5]/name",
	"//*[.//profile/age>=30]/name",
	"//a[ftsim(2,x,y,z)]",
	"//paper[abstract ftsim(1,xml)]/title",
	"//y[range(3,7)]",
	"//a[contains(()]",
	"[[[",
	"//",
	"//a[",
	"//a]b",
	"//a[./b[./c[./d]]]",
	"//a[b>1][c<2][d=3]",
	"/0>7000000000",
	"/0>2147483647",
	"/0>9223372036854775807",
	"/0<-9223372036854775808",
}

// FuzzParse checks that the query parser never panics, and that anything
// it accepts survives a String() → Parse round trip with the same
// structure (variable count and predicate kinds). The rendering must
// equal the original renderer's byte for byte and be a fixed point of
// the round trip (checkCanonical).
func FuzzParse(f *testing.F) {
	for _, s := range parseSeeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, input string) {
		q, err := Parse(input)
		if err != nil {
			return // rejection is fine; panics are not
		}
		// Accepted queries render and re-parse to the same shape.
		rendered := q.String()
		q2, err := Parse(rendered)
		if err != nil {
			t.Fatalf("Parse(%q) ok but re-parse of %q failed: %v", input, rendered, err)
		}
		if q.Vars() != q2.Vars() {
			t.Fatalf("round trip changed variable count: %d vs %d (%q -> %q)",
				q.Vars(), q2.Vars(), input, rendered)
		}
		k1, k2 := q.PredTypes(), q2.PredTypes()
		for k := range k1 {
			if !k2[k] {
				t.Fatalf("round trip lost predicate kind %v (%q -> %q)", k, input, rendered)
			}
		}
		checkCanonical(t, q)
	})
}

// FuzzTokenizeAndEval pairs arbitrary parsed queries with a small fixed
// document: evaluation must terminate and return a non-negative finite
// count.
func FuzzEval(f *testing.F) {
	seeds := []string{"//a", "//a/b", "//a[.//b]", "/root//b[./a]"}
	for _, s := range seeds {
		f.Add(s)
	}
	tr := buildFuzzDoc()
	ev := NewEvaluator(tr)
	f.Fuzz(func(t *testing.T, input string) {
		q, err := Parse(input)
		if err != nil {
			return
		}
		got := ev.Selectivity(q)
		if got < 0 || got != got { // negative or NaN
			t.Fatalf("Selectivity(%q) = %v", input, got)
		}
	})
}

// buildFuzzDoc builds the small nested document the eval fuzzer runs
// against.
func buildFuzzDoc() *xmltree.Tree {
	b := xmltree.NewBuilder(nil)
	b.Open("root")
	b.Open("a")
	b.Open("b")
	b.Empty("a")
	b.Numeric("n", 5)
	b.Close()
	b.String("s", "hello world")
	b.Close()
	b.Open("b")
	b.Text("t", "alpha beta gamma")
	b.Close()
	b.Close()
	return b.Tree()
}
