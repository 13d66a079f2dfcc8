// Differential acceptance test for the multi-tenant catalog: a
// one-shard catalog's POST /estimate must answer byte-for-byte what a
// standalone service.Service over the same synopsis renders for the
// same request (service.WriteJSON of RunEstimateRequest), across the
// full generated workloads of both harness datasets (IMDB and XMark).
package catalog_test

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"xcluster/internal/catalog"
	"xcluster/internal/core"
	"xcluster/internal/harness"
	"xcluster/internal/service"
	"xcluster/internal/workload"
	"xcluster/internal/xmltree"
)

// differentialDataset is one dataset's fixture: the compressed synopsis
// and its generated workload as request strings.
type differentialDataset struct {
	name    string
	syn     *core.Synopsis
	queries []string
}

func differentialFixtures(t *testing.T) []differentialDataset {
	t.Helper()
	cfg := harness.Config{Scale: 1, Seed: 7, PerClass: 30, Points: 4}
	var out []differentialDataset
	for _, name := range harness.DatasetNames() {
		d, err := harness.NewDataset(name, cfg)
		if err != nil {
			t.Fatal(err)
		}
		syn, err := cfg.BuildAt(d, d.Ref.StructBytes()/20)
		if err != nil {
			t.Fatal(err)
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
		out = append(out, differentialDataset{name: name, syn: syn, queries: qs})
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
	for _, d := range differentialFixtures(t) {
		syn := d.syn
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
