package xcluster_test

import (
	"bytes"
	"context"
	"errors"
	"math"
	"strings"
	"testing"

	"xcluster"
)

const libraryDoc = `
<library>
  <book><title>Compilers Principles</title><year>1986</year>
    <summary>lexical analysis parsing semantic translation code generation optimization</summary></book>
  <book><title>Computer Networks</title><year>1996</year>
    <summary>protocol layers routing congestion transport reliability sockets</summary></book>
  <book><title>Operating Systems</title><year>2001</year>
    <summary>processes threads scheduling memory virtualization filesystems concurrency</summary></book>
  <journal><title>Acta Informatica</title><year>1971</year></journal>
</library>`

func parseLibrary(t *testing.T) *xcluster.Tree {
	t.Helper()
	tree, err := xcluster.ParseXML(strings.NewReader(libraryDoc))
	if err != nil {
		t.Fatal(err)
	}
	return tree
}

func TestPublicBuildAndEstimate(t *testing.T) {
	tree := parseLibrary(t)
	syn, err := xcluster.Build(tree, xcluster.WithStructBudget(1024), xcluster.WithValueBudget(1024))
	if err != nil {
		t.Fatal(err)
	}
	est := xcluster.NewEstimator(syn)
	q, err := xcluster.ParseQuery("//book[year>1990]")
	if err != nil {
		t.Fatal(err)
	}
	got := est.Selectivity(q)
	want := xcluster.ExactSelectivity(tree, q)
	if want != 2 {
		t.Fatalf("exact = %g, want 2", want)
	}
	if math.Abs(got-want) > 1 {
		t.Fatalf("estimate %g too far from %g", got, want)
	}
	st := xcluster.SynopsisStats(syn)
	if st.Nodes == 0 || st.TotalKB <= 0 {
		t.Fatalf("stats = %+v", st)
	}
	if !strings.Contains(st.String(), "clusters") {
		t.Fatalf("stats string = %q", st.String())
	}
}

func TestPublicSerializationRoundTrip(t *testing.T) {
	tree := parseLibrary(t)
	syn, err := xcluster.Build(tree, xcluster.WithStructBudget(4096), xcluster.WithValueBudget(4096))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := xcluster.WriteSynopsis(&buf, syn); err != nil {
		t.Fatal(err)
	}
	back, err := xcluster.ReadSynopsis(&buf)
	if err != nil {
		t.Fatal(err)
	}
	q, _ := xcluster.ParseQuery("//book[summary ftcontains(concurrency)]")
	a := xcluster.NewEstimator(syn).Selectivity(q)
	b := xcluster.NewEstimator(back).Selectivity(q)
	if math.Abs(a-b) > 1e-12*math.Max(1, a) {
		t.Fatalf("round trip changed estimate: %g vs %g", a, b)
	}
}

func TestPublicNumericSummaryOption(t *testing.T) {
	tree := parseLibrary(t)
	// The option-string form, set on the configuration directly.
	numericSummary := func(kind string) xcluster.Option {
		return func(o *xcluster.Options) { o.NumericSummary = kind }
	}
	for _, kind := range []string{"", "histogram", "wavelet", "sample"} {
		if _, err := xcluster.Build(tree,
			xcluster.WithStructBudget(1024), xcluster.WithValueBudget(1024), numericSummary(kind),
		); err != nil {
			t.Fatalf("kind %q: %v", kind, err)
		}
	}
	// Typed functional form.
	for _, kind := range []xcluster.NumericSummary{
		xcluster.NumericHistogram, xcluster.NumericWavelet, xcluster.NumericSample,
	} {
		if _, err := xcluster.Build(tree,
			xcluster.WithStructBudget(1024),
			xcluster.WithValueBudget(1024),
			xcluster.WithNumericSummary(kind),
		); err != nil {
			t.Fatalf("kind %v: %v", kind, err)
		}
	}
	_, err := xcluster.Build(tree, numericSummary("tarot"))
	if err == nil {
		t.Fatal("accepted unknown numeric summary kind")
	}
	if !errors.Is(err, xcluster.ErrUnknownNumericSummary) {
		t.Fatalf("error %v is not ErrUnknownNumericSummary", err)
	}
}

func TestPublicBudgetErrors(t *testing.T) {
	tree := parseLibrary(t)
	_, err := xcluster.Build(tree, xcluster.WithValueBudget(1024))
	if !errors.Is(err, xcluster.ErrBudgetTooSmall) {
		t.Fatalf("missing structural budget: %v, want ErrBudgetTooSmall", err)
	}
	_, err = xcluster.Build(tree, xcluster.WithStructBudget(1024), xcluster.WithValueBudget(-1))
	if !errors.Is(err, xcluster.ErrBudgetTooSmall) {
		t.Fatalf("negative value budget: %v, want ErrBudgetTooSmall", err)
	}
	if _, _, err := xcluster.AutoBuild(tree, 0, []*xcluster.Query{xcluster.MustParseQuery("//book")}); !errors.Is(err, xcluster.ErrBudgetTooSmall) {
		t.Fatalf("zero total budget: %v, want ErrBudgetTooSmall", err)
	}
}

func TestPublicAutoBuild(t *testing.T) {
	tree := parseLibrary(t)
	var sample []*xcluster.Query
	for _, qs := range []string{"//book", "//book[year>1990]", "//book/title"} {
		q, err := xcluster.ParseQuery(qs)
		if err != nil {
			t.Fatal(err)
		}
		sample = append(sample, q)
	}
	total := 2048
	syn, bstr, err := xcluster.AutoBuild(tree, total, sample)
	if err != nil {
		t.Fatal(err)
	}
	if bstr <= 0 || bstr >= total {
		t.Fatalf("chosen structural budget %d of %d", bstr, total)
	}
	// The chosen synopsis respects the total budget up to the tag-level
	// floor (merging cannot go below one cluster per label).
	if syn.TotalBytes() > 4*total {
		t.Fatalf("synopsis %d bytes blows the %d budget", syn.TotalBytes(), total)
	}
	// And without a sample the call fails cleanly.
	if _, _, err := xcluster.AutoBuild(tree, total, nil); err == nil {
		t.Fatal("AutoBuild accepted an empty sample")
	}
}

func TestPublicParseErrors(t *testing.T) {
	if _, err := xcluster.ParseXML(strings.NewReader("<a><b></a>")); err == nil {
		t.Fatal("accepted malformed XML")
	}
	if _, err := xcluster.ParseQuery("not a query"); err == nil {
		t.Fatal("accepted malformed query")
	}
	// Parse failures carry the byte offset of the failure.
	_, err := xcluster.ParseQuery("//book[year>")
	var perr *xcluster.QueryParseError
	if !errors.As(err, &perr) {
		t.Fatalf("error %T is not *QueryParseError", err)
	}
	if perr.Offset != len("//book[year>") {
		t.Fatalf("offset = %d, want %d", perr.Offset, len("//book[year>"))
	}
	if perr.Input != "//book[year>" {
		t.Fatalf("input = %q", perr.Input)
	}
}

func TestPublicBuildContextCancellation(t *testing.T) {
	tree := parseLibrary(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := xcluster.BuildContext(ctx, tree,
		xcluster.WithStructBudget(64), // forces a merge phase, which polls ctx
		xcluster.WithValueBudget(64),
	)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled build: %v, want context.Canceled", err)
	}
	// An undisturbed context builds fine.
	if _, err := xcluster.BuildContext(context.Background(), tree,
		xcluster.WithStructBudget(1024), xcluster.WithValueBudget(1024)); err != nil {
		t.Fatal(err)
	}
}

func TestPublicWriteXML(t *testing.T) {
	tree := parseLibrary(t)
	var buf bytes.Buffer
	if err := xcluster.WriteXML(&buf, tree); err != nil {
		t.Fatal(err)
	}
	back, err := xcluster.ParseXML(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.Len() != tree.Len() {
		t.Fatalf("round trip: %d vs %d elements", back.Len(), tree.Len())
	}
}
