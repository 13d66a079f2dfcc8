package query

import "testing"

// parseAllocs is the measured allocation count of Parse for each
// parseSeeds query it accepts: four for the query (its steps, its
// nodes, its child lists with q0's, and the Query) plus what each
// predicate allocates. A range or contains() predicate is one (the
// value boxed into Pred); ftcontains() and ftsim() are two (the term
// slice and the box).
var parseAllocs = map[string]float64{
	"//paper/title": 4,
	"//paper[year>2000][abstract ftcontains(synopsis,xml)]/title[contains(Tree)]": 4 + 1 + 2 + 1,
	"/site/regions/region/item[quantity>5]/name":                                  4 + 1,
	"//*[.//profile/age>=30]/name":                                                4 + 1,
	"//a[ftsim(2,x,y,z)]":                                                         4 + 2,
	"//paper[abstract ftsim(1,xml)]/title":                                        4 + 2,
	"//y[range(3,7)]":                                                             4 + 1,
	"//a[contains(()]":                                                            4 + 1,
	"//a[./b[./c[./d]]]":                                                          4,
	"//a[b>1][c<2][d=3]":                                                          4 + 3,
}

// TestParseAllocs pins Parse at exactly parseAllocs's count for every
// accepted parseSeeds query: once the parser pool is warm, the query
// is built in pooled scratch and copied out in four blocks, whatever
// its number of variables, steps and child lists.
func TestParseAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	for _, s := range parseSeeds {
		if _, err := Parse(s); err != nil {
			continue
		}
		want, ok := parseAllocs[s]
		if !ok {
			t.Fatalf("%q has no measured allocation count in parseAllocs", s)
		}
		if n := testing.AllocsPerRun(100, func() { _, _ = Parse(s) }); n != want {
			t.Errorf("Parse(%q): %v allocs, want %v", s, n, want)
		}
	}
}

// BenchmarkParse parses every parseSeeds query Parse accepts, once per
// op. Run it with -benchmem for allocs/op.
func BenchmarkParse(b *testing.B) {
	var seeds []string
	for _, s := range parseSeeds {
		if _, err := Parse(s); err == nil {
			seeds = append(seeds, s)
		}
	}
	b.ReportAllocs()
	for b.Loop() {
		for _, s := range seeds {
			if _, err := Parse(s); err != nil {
				b.Fatal(err)
			}
		}
	}
}
