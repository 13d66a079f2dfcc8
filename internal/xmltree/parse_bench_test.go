package xmltree_test

import (
	"bytes"
	"testing"

	"xcluster/internal/datagen"
	"xcluster/internal/xmltree"
)

// generatedXML serializes a generator tree, the way the CLI and the
// daemon see a document on disk.
func generatedXML(tb testing.TB, tr *xmltree.Tree) []byte {
	tb.Helper()
	var buf bytes.Buffer
	if err := xmltree.Write(&buf, tr); err != nil {
		tb.Fatal(err)
	}
	return buf.Bytes()
}

// BenchmarkParseXML parses the IMDB scale-1 document (seed 7, about 15k
// elements and 500 KB), the resident document of the serving
// benchmark's rebuild workload.
func BenchmarkParseXML(b *testing.B) {
	doc := generatedXML(b, datagen.IMDB(datagen.IMDBConfig{Seed: 7, Scale: 1}))
	b.SetBytes(int64(len(doc)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := xmltree.Parse(bytes.NewReader(doc), xmltree.ParseOptions{}); err != nil {
			b.Fatal(err)
		}
	}
}

// raceEnabled is set under the race detector, whose instrumentation
// allocates (race_test.go).
var raceEnabled bool

// maxParseAllocsPerElement bounds Parse's allocations per element of
// the IMDB seed-1 scale-0.2 document (3,065 elements; 998 STRING, 240
// TEXT and 320 NUMERIC values). They are a copied-out string per STRING
// or TEXT value, a term vector per TEXT value, a copy per new term, the
// interned labels, the slab chunks, the input buffer and NewTree's
// indexes; an integer value allocates nothing. Measured at 0.632
// (1,936 allocations); the token-stream parser made 16.66.
const maxParseAllocsPerElement = 0.64

// TestParseAllocs pins Parse's allocations per element.
func TestParseAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	tr := datagen.IMDB(datagen.IMDBConfig{Seed: 1, Scale: 0.2})
	doc := generatedXML(t, tr)
	allocs := testing.AllocsPerRun(10, func() {
		if _, err := xmltree.Parse(bytes.NewReader(doc), xmltree.ParseOptions{}); err != nil {
			t.Fatal(err)
		}
	})
	perElement := allocs / float64(tr.Len())
	t.Logf("%.0f allocs for %d elements: %.3f per element", allocs, tr.Len(), perElement)
	if perElement > maxParseAllocsPerElement {
		t.Fatalf("Parse made %.3f allocations per element, want at most %.2f", perElement, maxParseAllocsPerElement)
	}
	// The default hint allocates nothing for an integer, a string or
	// free text (only for text like "12abc", which Atoi must reject).
	for _, text := range []string{" 1984 ", "Brass Compass", "\u00c9cole one two three four five six"} {
		if allocs := testing.AllocsPerRun(10, func() { xmltree.DefaultTypeHint("", text) }); allocs != 0 {
			t.Errorf("DefaultTypeHint(%q) made %.0f allocations, want 0", text, allocs)
		}
	}
}
