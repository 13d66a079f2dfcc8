package catalog

import (
	"context"
	"fmt"
	"strings"
	"testing"

	"xcluster/internal/core"
	"xcluster/internal/query"
	"xcluster/internal/xmltree"
)

// testDoc generates a small document whose content varies with seed, so
// different shards serve genuinely different corpora.
func testDoc(seed int) string {
	var b strings.Builder
	b.WriteString("<library>")
	for i := 0; i < 60; i++ {
		j := i + seed*13
		fmt.Fprintf(&b, "<book><title>Title %d</title><year>%d</year><pages>%d</pages>",
			j, 1950+j%60, 100+(7*j)%400)
		if j%3 == 0 {
			fmt.Fprintf(&b, "<summary>systems design analysis volume %d concurrency</summary>", j)
		}
		b.WriteString("</book>")
		if j%4 == 0 {
			fmt.Fprintf(&b, "<journal><title>Journal %d</title><year>%d</year></journal>", j, 1960+j%50)
		}
	}
	b.WriteString("</library>")
	return b.String()
}

var testWorkload = []string{
	"//book",
	"//book/title",
	"//book[year>1990]",
	"//book[year>1990]/title",
	"//book[pages>=300]",
	"//book[year>1980][pages<250]",
	"//journal[year<2000]/title",
}

// testSeed derives a deterministic per-spec document seed so the same
// spec always loads the same corpus.
func testSeed(spec ShardSpec) int {
	seed := 0
	for _, c := range []byte(spec.Tenant + "/" + spec.Collection + "/" + spec.Synopsis) {
		seed = seed*31 + int(c)
	}
	if seed < 0 {
		seed = -seed
	}
	return seed % 97
}

// testLoader builds a fresh synopsis (and tree, when the spec declares
// a document) for each spec, varying the corpus by spec identity.
func testLoader(t testing.TB) Loader {
	return func(ctx context.Context, spec ShardSpec) (*core.Synopsis, *xmltree.Tree, error) {
		tree, err := xmltree.Parse(strings.NewReader(testDoc(testSeed(spec))), xmltree.ParseOptions{})
		if err != nil {
			return nil, nil, err
		}
		ref, err := core.BuildReference(tree, core.ReferenceOptions{})
		if err != nil {
			return nil, nil, err
		}
		syn, err := core.XClusterBuild(ref, core.BuildOptions{StructBudget: 512, ValueBudget: 512})
		if err != nil {
			return nil, nil, err
		}
		if spec.Document == "" {
			tree = nil
		}
		return syn, tree, nil
	}
}

// newTestCatalog builds a catalog with the test loader and attaches the
// given specs.
func newTestCatalog(t testing.TB, cfg Config, specs ...ShardSpec) *Catalog {
	t.Helper()
	if cfg.Loader == nil {
		cfg.Loader = testLoader(t)
	}
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		c.DrainAll(context.Background()) //nolint:errcheck // best-effort test cleanup
	})
	for _, spec := range specs {
		if _, err := c.Attach(context.Background(), spec); err != nil {
			t.Fatalf("attach %s: %v", spec.Key(), err)
		}
	}
	return c
}

// spec returns a minimal valid ShardSpec.
func spec(tenant, collection string) ShardSpec {
	return ShardSpec{Tenant: tenant, Collection: collection, Synopsis: "mem:" + tenant + "/" + collection}
}

// parseWorkload parses the shared test workload.
func parseWorkload(t *testing.T) []*query.Query {
	t.Helper()
	qs := make([]*query.Query, len(testWorkload))
	for i, s := range testWorkload {
		q, err := query.Parse(s)
		if err != nil {
			t.Fatalf("%s: %v", s, err)
		}
		qs[i] = q
	}
	return qs
}
