package workload

import (
	"bytes"
	"strings"
	"testing"

	"xcluster/internal/datagen"
	"xcluster/internal/query"
)

func TestWorkloadRoundTrip(t *testing.T) {
	tr := datagen.IMDB(datagen.IMDBConfig{Seed: 5, Movies: 80, Shows: 30})
	w, err := Generate(tr, Options{Seed: 1, PerClass: 8, ValuePaths: datagen.IMDBValuePaths()})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	n, err := w.WriteTo(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if n != int64(buf.Len()) {
		t.Fatalf("WriteTo reported %d, wrote %d", n, buf.Len())
	}
	// Classes print under their Figure 8 names, in generation order.
	var names []string
	for _, line := range strings.Split(buf.String(), "\n")[1:] {
		if name, _, ok := strings.Cut(line, "\t"); ok && (len(names) == 0 || names[len(names)-1] != name) {
			names = append(names, name)
		}
	}
	if got := strings.Join(names, " "); got != "Numeric String Text Struct" {
		t.Fatalf("class names in file order = %q, want %q", got, "Numeric String Text Struct")
	}
	back, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(back.Queries) != len(w.Queries) {
		t.Fatalf("queries %d -> %d", len(w.Queries), len(back.Queries))
	}
	ev := query.NewEvaluator(tr)
	for i, q := range back.Queries {
		if q.Class != w.Queries[i].Class || q.True != w.Queries[i].True {
			t.Fatalf("query %d metadata changed: %+v vs %+v", i, q, w.Queries[i])
		}
		// The re-parsed query evaluates to the stored selectivity.
		if got := ev.Selectivity(q.Q); got != q.True {
			t.Fatalf("query %d (%s): stored %g, evaluates to %g", i, q.Q, q.True, got)
		}
	}
	if back.SanityBound() != w.SanityBound() {
		t.Fatal("sanity bound changed")
	}
}

func TestWorkloadReadErrors(t *testing.T) {
	cases := map[string]string{
		"empty":      "",
		"bad header": "not a workload\n",
		"bad fields": header + "\nStruct only-two-fields\n",
		"bad class":  header + "\nWeird\t1\t//a\n",
		"bad number": header + "\nStruct\txyz\t//a\n",
		"bad query":  header + "\nStruct\t1\tnot-a-query\n",
		"no queries": header + "\n# just a comment\n",
	}
	for name, in := range cases {
		if _, err := Read(strings.NewReader(in)); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

func TestWorkloadReadSkipsComments(t *testing.T) {
	in := header + "\n# comment\n\nStruct\t42\t//movie\n"
	w, err := Read(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if len(w.Queries) != 1 || w.Queries[0].True != 42 {
		t.Fatalf("parsed %+v", w.Queries)
	}
}
