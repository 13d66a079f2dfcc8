// Differential acceptance tests for the multi-tenant catalog: a
// one-shard catalog's POST /estimate must answer byte-for-byte what a
// standalone service.Service over the same synopsis renders for the
// same request (service.WriteJSON of RunEstimateRequest), and a
// scatter over several shards what the standalone services' answers
// sum to, across the full generated workloads of both harness datasets
// (IMDB and XMark).
package catalog_test

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"testing"

	"xcluster/internal/catalog"
	"xcluster/internal/core"
	"xcluster/internal/harness"
	"xcluster/internal/service"
	"xcluster/internal/workload"
	"xcluster/internal/xmltree"
)

// differentialDataset is one dataset's fixture: its compressed
// synopses, one per requested budget, and its generated workload as
// request strings.
type differentialDataset struct {
	name    string
	syns    []*core.Synopsis
	queries []string
}

// differentialFixtures builds both datasets, each compressed once per
// divisor to a structural budget of its reference size / divisor.
func differentialFixtures(t *testing.T, divisors ...int) []differentialDataset {
	t.Helper()
	cfg := harness.Config{Scale: 1, Seed: 7, PerClass: 30, Points: 4}
	var out []differentialDataset
	for _, name := range harness.DatasetNames() {
		d, err := harness.NewDataset(name, cfg)
		if err != nil {
			t.Fatal(err)
		}
		var syns []*core.Synopsis
		for _, div := range divisors {
			syn, err := cfg.BuildAt(d, d.Ref.StructBytes()/div)
			if err != nil {
				t.Fatal(err)
			}
			syns = append(syns, syn)
		}
		var qs []string
		for i := range d.Workload.Queries {
			qs = append(qs, d.Workload.Queries[i].Q.String())
		}
		neg, err := workload.Generate(d.Tree, workload.Options{
			Seed: cfg.Seed + 1, PerClass: 5, ValuePaths: d.ValuePaths, Negative: true,
		})
		if err != nil {
			t.Fatal(err)
		}
		for i := range neg.Queries {
			qs = append(qs, neg.Queries[i].Q.String())
		}
		out = append(out, differentialDataset{name: name, syns: syns, queries: qs})
	}
	return out
}

// postBody posts a JSON body and returns status and raw response bytes.
func postBody(h http.Handler, path, body string) (int, []byte) {
	req := httptest.NewRequest(http.MethodPost, path, strings.NewReader(body))
	w := httptest.NewRecorder()
	h.ServeHTTP(w, req)
	return w.Code, w.Body.Bytes()
}

// directBody renders what a bare service answers for an estimate body:
// the decoded request run through RunEstimateRequest and written by
// service.WriteJSON, with no catalog or HTTP routing in between.
func directBody(t *testing.T, svc *service.Service, body string) []byte {
	t.Helper()
	var req service.EstimateRequest
	if err := json.Unmarshal([]byte(body), &req); err != nil {
		t.Fatal(err)
	}
	resp, err := svc.RunEstimateRequest(context.Background(), req)
	if err != nil {
		t.Fatalf("direct service rejected %s: %v", body, err)
	}
	w := httptest.NewRecorder()
	service.WriteJSON(w, http.StatusOK, resp)
	return w.Body.Bytes()
}

// TestCatalogDifferentialSingleShard drives every generated query of
// both datasets through a one-shard catalog (no addressing — the
// single-tenant compatibility path) and through a separate bare service
// over the same synopsis, and requires the responses to be
// byte-identical, across plain, explain, and plan request variants.
func TestCatalogDifferentialSingleShard(t *testing.T) {
	if testing.Short() {
		t.Skip("builds full harness datasets")
	}
	total := 0
	for _, d := range differentialFixtures(t, 20) {
		syn := d.syns[0]
		direct := service.New(syn)
		defer direct.Close()

		cat, err := catalog.New(catalog.Config{
			Loader: func(ctx context.Context, spec catalog.ShardSpec) (*core.Synopsis, *xmltree.Tree, error) {
				return syn, nil, nil
			},
			DefaultKey:       catalog.Key{Tenant: "default", Collection: "main"},
			UnlabeledDefault: true,
		})
		if err != nil {
			t.Fatal(err)
		}
		defer cat.DrainAll(context.Background()) //nolint:errcheck // test cleanup
		if _, err := cat.Attach(context.Background(), catalog.ShardSpec{
			Tenant: "default", Collection: "main", Synopsis: "mem:" + d.name,
		}); err != nil {
			t.Fatal(err)
		}
		catH := cat.Handler()

		// Batch the workload so the test exercises many request cycles,
		// including repeats that hit the per-service result caches.
		const batch = 20
		for start := 0; start < len(d.queries); start += batch {
			end := start + batch
			if end > len(d.queries) {
				end = len(d.queries)
			}
			for _, variant := range []string{
				`{"queries":%s}`,
				`{"queries":%s,"explain":true}`,
				`{"queries":%s,"trace":false,"plan":true}`,
			} {
				qjson, err := json.Marshal(d.queries[start:end])
				if err != nil {
					t.Fatal(err)
				}
				body := fmt.Sprintf(variant, qjson)
				dirBody := directBody(t, direct, body)
				catCode, catBody := postBody(catH, "/estimate", body)
				if catCode != http.StatusOK {
					t.Fatalf("%s: catalog rejected batch %d: %d %s", d.name, start, catCode, catBody)
				}
				if !bytes.Equal(catBody, dirBody) {
					t.Fatalf("%s: batch %d (%s): catalog response differs from direct service\ncatalog: %s\ndirect:  %s",
						d.name, start, variant, catBody, dirBody)
				}
			}
			total += end - start
		}

		// The explicitly addressed path answers identically to the
		// default path (same shard, same generation).
		qjson, _ := json.Marshal(d.queries[:min(batch, len(d.queries))])
		_, defBody := postBody(catH, "/estimate", fmt.Sprintf(`{"queries":%s}`, qjson))
		_, addrBody := postBody(catH, "/estimate",
			fmt.Sprintf(`{"tenant":"default","collection":"main","queries":%s}`, qjson))
		if !bytes.Equal(defBody, addrBody) {
			t.Fatalf("%s: addressed response differs from default response", d.name)
		}
	}
	if total < 200 {
		t.Fatalf("differential workload covered %d queries, want >= 200", total)
	}
}

// TestCatalogDifferentialScatter scatters every generated query of
// both datasets, with a few malformed texts among them, over a tenant
// of three shards compressed to different budgets, and requires each
// response to be byte-identical to the one rendered from three
// standalone services over the same synopses: every selectivity the
// bit-exact sum of the services' RunEstimateRequest answers in
// collection order, every parse error and offset as the services
// report it. Each body is sent twice, so the second send parses through
// the text cache and estimates from the result caches.
func TestCatalogDifferentialScatter(t *testing.T) {
	if testing.Short() {
		t.Skip("builds full harness datasets")
	}
	collections := []string{"a", "b", "c"} // sorted: the gather's order
	bad := []string{"//book[year>", "not a query", "//paper[", "book]"}
	total := 0
	for _, d := range differentialFixtures(t, 20, 10, 40) {
		syns := make(map[string]*core.Synopsis)
		direct := make([]*service.Service, len(collections))
		for i, coll := range collections {
			syns[coll] = d.syns[i]
			direct[i] = service.New(d.syns[i])
			defer direct[i].Close()
		}
		cat, err := catalog.New(catalog.Config{
			Loader: func(ctx context.Context, spec catalog.ShardSpec) (*core.Synopsis, *xmltree.Tree, error) {
				return syns[spec.Collection], nil, nil
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		defer cat.DrainAll(context.Background()) //nolint:errcheck // test cleanup
		for _, coll := range collections {
			if _, err := cat.Attach(context.Background(), catalog.ShardSpec{
				Tenant: "acme", Collection: coll, Synopsis: "mem:" + d.name + "/" + coll,
			}); err != nil {
				t.Fatal(err)
			}
		}
		catH := cat.Handler()

		const batch = 32
		for start := 0; start < len(d.queries); start += batch {
			texts := slices.Clone(d.queries[start:min(start+batch, len(d.queries))])
			// One malformed text per batch, at a varying position.
			b := bad[(start/batch)%len(bad)]
			texts = slices.Insert(texts, (start/batch)%len(texts), b)

			want := catalog.ScatterResponse{Tenant: "acme", Collections: collections}
			want.Results = make([]catalog.ScatterQueryResult, len(texts))
			sums := make([]float64, len(texts))
			for _, svc := range direct {
				resp, err := svc.RunEstimateRequest(context.Background(), service.EstimateRequest{Queries: texts})
				if err != nil {
					t.Fatal(err)
				}
				for i, r := range resp.Results {
					want.Results[i] = catalog.ScatterQueryResult{Query: r.Query, Error: r.Error, Offset: r.Offset}
					if r.Selectivity != nil {
						sums[i] += *r.Selectivity
						want.Results[i].Selectivity = &sums[i]
					}
				}
			}
			w := httptest.NewRecorder()
			service.WriteJSON(w, http.StatusOK, want)
			wantBody := w.Body.Bytes()

			qjson, err := json.Marshal(texts)
			if err != nil {
				t.Fatal(err)
			}
			body := fmt.Sprintf(`{"tenant":"acme","queries":%s}`, qjson)
			for send := 1; send <= 2; send++ {
				code, got := postBody(catH, "/estimate", body)
				if code != http.StatusOK {
					t.Fatalf("%s: scatter of batch %d, send %d: %d %s", d.name, start, send, code, got)
				}
				if !bytes.Equal(got, wantBody) {
					t.Fatalf("%s: batch %d, send %d: scatter response differs from the summed standalone answers\nscatter: %s\nsummed:  %s",
						d.name, start, send, got, wantBody)
				}
			}
			total += len(texts)
		}
	}
	if total < 200 {
		t.Fatalf("scatter differential covered %d queries, want >= 200", total)
	}
}
