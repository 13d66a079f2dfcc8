package catalog

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"xcluster/internal/query"
	"xcluster/internal/service"
)

// postJSON posts body to the handler and decodes the JSON response.
func postJSON(t *testing.T, h http.Handler, path, body string, out any) *httptest.ResponseRecorder {
	t.Helper()
	req := httptest.NewRequest(http.MethodPost, path, strings.NewReader(body))
	w := httptest.NewRecorder()
	h.ServeHTTP(w, req)
	if out != nil && w.Code < 300 {
		if err := json.Unmarshal(w.Body.Bytes(), out); err != nil {
			t.Fatalf("decoding %s response: %v\n%s", path, err, w.Body.String())
		}
	}
	return w
}

func getPath(t *testing.T, h http.Handler, path string) *httptest.ResponseRecorder {
	t.Helper()
	req := httptest.NewRequest(http.MethodGet, path, nil)
	w := httptest.NewRecorder()
	h.ServeHTTP(w, req)
	return w
}

func httpFixture(t *testing.T) (*Catalog, http.Handler) {
	c := newTestCatalog(t, Config{
		DefaultKey:       Key{Tenant: "acme", Collection: "docs"},
		UnlabeledDefault: true,
	},
		spec("acme", "docs"),
		spec("acme", "mail"),
		spec("globex", "docs"),
	)
	return c, c.Handler()
}

func TestHTTPEstimateRouted(t *testing.T) {
	c, h := httpFixture(t)
	var resp struct {
		Results []struct {
			Query       string   `json:"query"`
			Selectivity *float64 `json:"selectivity"`
			Error       string   `json:"error"`
		} `json:"results"`
	}
	w := postJSON(t, h, "/estimate",
		`{"tenant":"acme","collection":"mail","queries":["//book","not a ( query"]}`, &resp)
	if w.Code != http.StatusOK {
		t.Fatalf("status %d: %s", w.Code, w.Body.String())
	}
	if len(resp.Results) != 2 {
		t.Fatalf("results = %d, want 2", len(resp.Results))
	}
	if resp.Results[0].Selectivity == nil {
		t.Fatalf("first query failed: %+v", resp.Results[0])
	}
	if resp.Results[1].Error == "" {
		t.Fatal("malformed query did not report an inline error")
	}

	// Cross-check the routed selectivity against the shard directly.
	sh, err := c.Shard("acme", "mail")
	if err != nil {
		t.Fatal(err)
	}
	q, _ := query.Parse("//book")
	want, err := sh.Service().Estimate(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	if *resp.Results[0].Selectivity != want {
		t.Fatalf("routed estimate %v != shard estimate %v", *resp.Results[0].Selectivity, want)
	}
}

func TestHTTPEstimateDefaultShard(t *testing.T) {
	c, h := httpFixture(t)
	var resp struct {
		Results []struct {
			Selectivity *float64 `json:"selectivity"`
		} `json:"results"`
	}
	// Single-tenant body: no addressing at all.
	w := postJSON(t, h, "/estimate", `{"queries":["//book"]}`, &resp)
	if w.Code != http.StatusOK {
		t.Fatalf("status %d: %s", w.Code, w.Body.String())
	}
	sh, _ := c.Shard("acme", "docs")
	q, _ := query.Parse("//book")
	want, _ := sh.Service().Estimate(context.Background(), q)
	if resp.Results[0].Selectivity == nil || *resp.Results[0].Selectivity != want {
		t.Fatalf("default-shard estimate = %v, want %v", resp.Results[0].Selectivity, want)
	}
}

func TestHTTPEstimateScatter(t *testing.T) {
	c, h := httpFixture(t)
	var resp ScatterResponse
	w := postJSON(t, h, "/estimate", `{"tenant":"acme","queries":["//book"]}`, &resp)
	if w.Code != http.StatusOK {
		t.Fatalf("status %d: %s", w.Code, w.Body.String())
	}
	if len(resp.Collections) != 2 || resp.Partial {
		t.Fatalf("scatter response: %+v", resp)
	}
	qs := []*query.Query{mustParse(t, "//book")}
	res, err := c.ScatterEstimate(context.Background(), "acme", qs)
	if err != nil {
		t.Fatal(err)
	}
	if resp.Results[0].Selectivity == nil || *resp.Results[0].Selectivity != res.Selectivities[0] {
		t.Fatalf("HTTP scatter %v != direct scatter %v", resp.Results[0].Selectivity, res.Selectivities[0])
	}
}

func mustParse(t *testing.T, s string) *query.Query {
	t.Helper()
	q, err := query.Parse(s)
	if err != nil {
		t.Fatal(err)
	}
	return q
}

func TestHTTPEstimateErrors(t *testing.T) {
	_, h := httpFixture(t)
	cases := []struct {
		name, body string
		status     int
	}{
		{"unknown tenant", `{"tenant":"nobody","collection":"docs","queries":["//a"]}`, http.StatusNotFound},
		{"unknown collection", `{"tenant":"acme","collection":"nope","queries":["//a"]}`, http.StatusNotFound},
		{"collection without tenant", `{"collection":"docs","queries":["//a"]}`, http.StatusBadRequest},
		{"no queries", `{"tenant":"acme"}`, http.StatusBadRequest},
		{"unknown field", `{"queries":["//a"],"tennant":"acme"}`, http.StatusBadRequest},
		{"scatter with trace", `{"tenant":"acme","trace":true,"queries":["//a"]}`, http.StatusBadRequest},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			w := postJSON(t, h, "/estimate", tc.body, nil)
			if w.Code != tc.status {
				t.Fatalf("status = %d, want %d: %s", w.Code, tc.status, w.Body.String())
			}
			if ct := w.Header().Get("Content-Type"); ct != "application/json" {
				t.Fatalf("error content type %q", ct)
			}
		})
	}
}

func TestHTTPAdminCatalog(t *testing.T) {
	_, h := httpFixture(t)
	var list ListResponse
	w := getPath(t, h, "/admin/catalog")
	if w.Code != http.StatusOK {
		t.Fatalf("list status %d", w.Code)
	}
	if err := json.Unmarshal(w.Body.Bytes(), &list); err != nil {
		t.Fatal(err)
	}
	if len(list.Shards) != 3 || len(list.Tenants) != 2 {
		t.Fatalf("list = %+v", list)
	}

	var att AttachResponse
	w = postJSON(t, h, "/admin/catalog/attach",
		`{"tenant":"globex","collection":"wiki","synopsis":"mem:globex/wiki"}`, &att)
	if w.Code != http.StatusCreated {
		t.Fatalf("attach status %d: %s", w.Code, w.Body.String())
	}
	if att.Tenant != "globex" || att.Collection != "wiki" {
		t.Fatalf("attach response %+v", att)
	}
	// Duplicate attach conflicts.
	w = postJSON(t, h, "/admin/catalog/attach",
		`{"tenant":"globex","collection":"wiki","synopsis":"mem:globex/wiki"}`, nil)
	if w.Code != http.StatusConflict {
		t.Fatalf("duplicate attach status %d", w.Code)
	}
	// Invalid spec is a 400.
	w = postJSON(t, h, "/admin/catalog/attach", `{"tenant":"bad name","collection":"x","synopsis":"s"}`, nil)
	if w.Code != http.StatusBadRequest {
		t.Fatalf("invalid attach status %d", w.Code)
	}

	// Routing reaches the new shard.
	w = getPath(t, h, "/admin/catalog/route?tenant=globex&key=doc-42")
	if w.Code != http.StatusOK {
		t.Fatalf("route status %d: %s", w.Code, w.Body.String())
	}
	var route RouteResponse
	if err := json.Unmarshal(w.Body.Bytes(), &route); err != nil {
		t.Fatal(err)
	}
	if route.Collection != "docs" && route.Collection != "wiki" {
		t.Fatalf("route = %+v", route)
	}

	w = postJSON(t, h, "/admin/catalog/detach", `{"tenant":"globex","collection":"wiki"}`, nil)
	if w.Code != http.StatusOK {
		t.Fatalf("detach status %d: %s", w.Code, w.Body.String())
	}
	w = postJSON(t, h, "/admin/catalog/detach", `{"tenant":"globex","collection":"wiki"}`, nil)
	if w.Code != http.StatusNotFound {
		t.Fatalf("detach of detached shard status %d", w.Code)
	}
}

func TestHTTPMetricsMerged(t *testing.T) {
	_, h := httpFixture(t)
	// Generate a little traffic so shard series exist.
	postJSON(t, h, "/estimate", `{"tenant":"acme","collection":"mail","queries":["//book"]}`, nil)
	postJSON(t, h, "/estimate", `{"queries":["//book"]}`, nil)

	w := getPath(t, h, "/metrics")
	if w.Code != http.StatusOK {
		t.Fatalf("metrics status %d", w.Code)
	}
	body := w.Body.String()
	for _, want := range []string{
		"xcluster_catalog_shards 3",
		// The addressed shard's series carry tenant/collection labels...
		`xcluster_requests_total{tenant="acme",collection="mail",outcome="ok"} 1`,
		`tenant="globex",collection="docs"`,
	} {
		if !strings.Contains(body, want) {
			t.Fatalf("metrics missing %q:\n%s", want, body)
		}
	}
	// ...while the unlabeled default shard keeps its single-tenant series.
	if !strings.Contains(body, `xcluster_requests_total{outcome="ok"} 1`) {
		t.Fatalf("default shard's unlabeled series missing:\n%s", body)
	}
}

func TestHTTPDelegatedEndpoints(t *testing.T) {
	_, h := httpFixture(t)
	// Addressed per-shard endpoint.
	w := getPath(t, h, "/stats?tenant=acme&collection=mail")
	if w.Code != http.StatusOK {
		t.Fatalf("addressed stats status %d: %s", w.Code, w.Body.String())
	}
	var st map[string]any
	if err := json.Unmarshal(w.Body.Bytes(), &st); err != nil {
		t.Fatal(err)
	}
	if _, ok := st["served"]; !ok {
		t.Fatalf("addressed stats body: %v", st)
	}
	// Legacy path: no addressing falls through to the default shard.
	if w := getPath(t, h, "/stats"); w.Code != http.StatusOK {
		t.Fatalf("default-shard stats status %d: %s", w.Code, w.Body.String())
	}
	if w := getPath(t, h, "/synopsis?tenant=globex&collection=docs"); w.Code != http.StatusOK {
		t.Fatalf("addressed synopsis status %d", w.Code)
	}
	// /debug/budget is per shard: each shard reports its own plan.
	w = getPath(t, h, "/debug/budget?tenant=acme&collection=mail")
	if w.Code != http.StatusOK {
		t.Fatalf("addressed budget status %d: %s", w.Code, w.Body.String())
	}
	var budget map[string]any
	if err := json.Unmarshal(w.Body.Bytes(), &budget); err != nil {
		t.Fatal(err)
	}
	if _, ok := budget["actual"]; !ok {
		t.Fatalf("addressed budget body: %v", budget)
	}
	// Unknown shard: consistent 404 JSON.
	w = getPath(t, h, "/stats?tenant=acme&collection=nope")
	if w.Code != http.StatusNotFound {
		t.Fatalf("unknown shard status %d", w.Code)
	}
	// Half addressing is a 404 with guidance.
	w = getPath(t, h, "/stats?tenant=acme")
	if w.Code != http.StatusNotFound || !strings.Contains(w.Body.String(), "both tenant and collection") {
		t.Fatalf("half-addressed request: %d %s", w.Code, w.Body.String())
	}
	if w := getPath(t, h, "/healthz"); w.Code != http.StatusOK {
		t.Fatalf("healthz status %d", w.Code)
	}
	if w := getPath(t, h, "/buildinfo"); w.Code != http.StatusOK {
		t.Fatalf("buildinfo status %d", w.Code)
	}
}

// TestHTTPRebuildPreconditions pins the 412s of POST /admin/rebuild: a
// rebuild that can only fail is refused up front, synchronous or async,
// for a shard without a resident document and for an adaptive rebuild
// on a shard whose workload profiler is off.
func TestHTTPRebuildPreconditions(t *testing.T) {
	noProf := spec("acme", "noprof")
	noProf.Document = "mem:doc"
	c := newTestCatalog(t, Config{
		ShardOptions: func(spec ShardSpec) []service.Option {
			if spec.Collection == "noprof" {
				return []service.Option{service.WithWorkloadProfile(-1, 0)}
			}
			return nil
		},
	}, spec("acme", "nodoc"), noProf)
	h := c.Handler()
	for _, tc := range []struct {
		shard, body string
		status      int
	}{
		{"nodoc", `{}`, http.StatusPreconditionFailed},
		{"nodoc", `{"async":true}`, http.StatusPreconditionFailed},
		{"noprof", `{"adaptive":true}`, http.StatusPreconditionFailed},
		{"noprof", `{"adaptive":true,"async":true}`, http.StatusPreconditionFailed},
		// Explicit budgets win over adaptive, so no profiler is needed.
		{"noprof", `{"adaptive":true,"struct_budget":600,"value_budget":600}`, http.StatusOK},
	} {
		w := postJSON(t, h, "/admin/rebuild?tenant=acme&collection="+tc.shard, tc.body, nil)
		if w.Code != tc.status {
			t.Fatalf("%s %s: status %d, want %d: %s", tc.shard, tc.body, w.Code, tc.status, w.Body.String())
		}
	}
	sh, err := c.Shard("acme", "noprof")
	if err != nil {
		t.Fatal(err)
	}
	// Only the explicit-budget rebuild ran: the refused async one never
	// started.
	if st := sh.Service().RebuildStatus(); st.LastOutcome != "ok" || st.LastGeneration != 1 {
		t.Fatalf("rebuild status %+v, want one successful rebuild", st)
	}
}

func TestHTTPSlowLogAll(t *testing.T) {
	c := newTestCatalog(t, Config{
		ShardOptions: func(spec ShardSpec) []service.Option {
			return []service.Option{service.WithSlowQueryLog(time.Nanosecond, 16)}
		},
		DefaultKey:       Key{Tenant: "acme", Collection: "docs"},
		UnlabeledDefault: true,
	},
		spec("acme", "docs"),
		spec("acme", "mail"),
	)
	h := c.Handler()
	postJSON(t, h, "/estimate", `{"tenant":"acme","collection":"mail","queries":["//book"]}`, nil)
	postJSON(t, h, "/estimate", `{"queries":["//book/title"]}`, nil)

	w := getPath(t, h, "/debug/slowlog/all")
	if w.Code != http.StatusOK {
		t.Fatalf("slowlog/all status %d: %s", w.Code, w.Body.String())
	}
	var resp SlowLogAllResponse
	if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if len(resp.Entries) < 2 {
		t.Fatalf("entries = %d, want >= 2:\n%s", len(resp.Entries), w.Body.String())
	}
	var labeled, unlabeled bool
	for _, e := range resp.Entries {
		if e.Tenant == "acme" && e.Collection == "mail" {
			labeled = true
		}
		if e.Tenant == "" && e.Collection == "" {
			unlabeled = true
		}
	}
	if !labeled || !unlabeled {
		t.Fatalf("want both an annotated mail entry and an unannotated default entry:\n%s", w.Body.String())
	}
	if w := getPath(t, h, "/debug/slowlog/all?limit=1"); w.Code != http.StatusOK {
		t.Fatalf("limited slowlog status %d", w.Code)
	} else {
		var lim SlowLogAllResponse
		if err := json.Unmarshal(w.Body.Bytes(), &lim); err != nil {
			t.Fatal(err)
		}
		if len(lim.Entries) != 1 {
			t.Fatalf("limit=1 returned %d entries", len(lim.Entries))
		}
	}
	if w := getPath(t, h, "/debug/slowlog/all?limit=bogus"); w.Code != http.StatusBadRequest {
		t.Fatalf("bogus limit status %d", w.Code)
	}
}
