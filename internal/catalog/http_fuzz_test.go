package catalog

import (
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"testing"
	"time"

	"xcluster/internal/service"
)

// documentedStatus lists, per route, every status Handler documents
// for it. Per-shard routes add 404 (unknown shard) and 503 (draining)
// to their own codes.
var documentedStatus = map[string][]int{
	"POST /estimate":             {200, 400, 404, 503},
	"GET /admin/catalog":         {200},
	"POST /admin/catalog/attach": {201, 400, 409},
	"POST /admin/catalog/detach": {200, 400, 404, 503},
	"GET /admin/catalog/route":   {200, 400, 404},
	"GET /metrics":               {200},
	"GET /debug/slowlog/all":     {200, 400},
	"GET /debug/traces":          {200},
	"GET /debug/slo":             {200},
	"GET /debug/workload":        {200, 400},
	"GET /readyz":                {200, 503},
	"GET /healthz":               {200},
	"GET /buildinfo":             {200},
	"GET /stats":                 {200, 404, 503},
	"GET /synopsis":              {200, 404, 503},
	"POST /feedback":             {200, 400, 404, 503},
	"GET /debug/slowlog":         {200, 400, 404, 503},
	"GET /debug/accuracy":        {200, 404, 503},
	"GET /debug/synopsis":        {200, 400, 404, 503},
	"GET /debug/budget":          {200, 404, 503},
	"POST /admin/reload":         {200, 404, 412, 503},
	"POST /admin/rebuild":        {200, 202, 400, 404, 409, 412, 503},
	"GET /admin/workload/export": {200, 404, 412, 503},
}

// muxStatus are the ServeMux's own answers for requests that match no
// route: a redirect to the canonical path, not found, wrong method.
var muxStatus = []int{301, 404, 405}

// FuzzCatalogHTTP sends one arbitrary request — method, path, query
// string, X-Request-ID, body — to a fresh one-shard catalog whose shard
// keeps its document resident (so feedback pairs with ground truth and
// rebuilds, adaptive ones included, really run) and logs every estimate
// as slow (a 1 ns threshold). The handler must not panic, must never
// answer 500, and must answer a status its route documents. Each input
// is followed by GET /debug/traces and GET /debug/slowlog, so whatever
// the request recorded is rendered too, under the same status rules.
func FuzzCatalogHTTP(f *testing.F) {
	for _, seed := range []struct{ method, path, query, id, body string }{
		{"POST", "/estimate", "", "req-1", `{"queries":["//book[year>1990]/title","//book["],"explain":true,"plan":true,"trace":true}`},
		{"POST", "/estimate", "", "", `{"tenant":"acme","queries":["//book"]}`},
		{"POST", "/estimate", "", "", `{"tenant":"acme","collection":"nope","queries":["//book"]}`},
		{"POST", "/estimate", "", "has space", `{"queries":[]}`},
		{"GET", "/admin/catalog", "", "", ""},
		{"POST", "/admin/catalog/attach", "", "", `{"tenant":"globex","collection":"wiki","synopsis":"mem:globex/wiki"}`},
		{"POST", "/admin/catalog/attach", "", "", `{"tenant":"bad name","collection":"x","synopsis":"s"}`},
		{"POST", "/admin/catalog/attach", "", "", `{"tenant":"globex","collection":"big","synopsis":"mem:globex/big","cache":100000000,"plan_cache":100000000}`},
		{"POST", "/admin/catalog/detach", "", "", `{"tenant":"acme","collection":"docs"}`},
		{"GET", "/admin/catalog/route", "tenant=acme&key=doc-42", "", ""},
		{"GET", "/metrics", "", "", ""},
		{"GET", "/debug/slowlog/all", "limit=1", "", ""},
		{"GET", "/debug/traces", "", "", ""},
		{"GET", "/debug/slo", "", "", ""},
		{"GET", "/debug/workload", "limit=x", "", ""},
		{"GET", "/readyz", "", "", ""},
		{"GET", "/healthz", "", "", ""},
		{"HEAD", "/buildinfo", "", "", ""},
		{"GET", "/stats", "tenant=acme&collection=docs", "", ""},
		{"GET", "/synopsis", "tenant=acme", "", ""},
		{"POST", "/feedback", "", "", `{"feedback":[{"query":"//book/title","true":12},{"query":"//(","true":1}]}`},
		{"GET", "/debug/slowlog", "limit=-3", "", ""},
		{"GET", "/debug/accuracy", "", "", ""},
		{"GET", "/debug/synopsis", "limit=2", "", ""},
		{"GET", "/debug/budget", "tenant=nobody&collection=docs", "", ""},
		{"POST", "/admin/reload", "", "", ""},
		{"POST", "/admin/rebuild", "", "", `{"adaptive":true,"async":true}`},
		{"POST", "/admin/rebuild", "", "", `{"struct_budget":"nope"}`},
		{"GET", "/admin/workload/export", "", "", ""},
		{"DELETE", "/estimate", "", "", ""},
		{"GET", "//stats/../stats", "", "", ""},
		{"GET", "/nowhere", "", "", ""},
		{"POST", "/admin/rebuild", "", "", `{"struct_budget":4096,"reason":"fuzz"}`},
		{"POST", "/admin/rebuild", "", "", `{"adaptive":true}`},
		{"POST", "/estimate", "", "req-2", `{"queries":["//book[year>1990]/title","//journal/title"],"trace":true}`},
		{"POST", "/estimate", "", "req-3", `{"queries":["//book[year>1990]/title","//book[","//book[year>1990]/title","//book["],"trace":true}`},
		{"POST", "/estimate", "", "", `{"queries":["//book[year>01990]","//(","//book[year>1990]","//book[year>01990]","//("],"explain":true,"plan":true}`},
	} {
		f.Add(seed.method, seed.path, seed.query, seed.id, seed.body)
	}
	f.Fuzz(func(t *testing.T, method, path, rawQuery, id, body string) {
		sp := spec("acme", "docs")
		sp.Document = "mem:acme/docs.xml"
		c := newTestCatalog(t, Config{
			DefaultKey: Key{Tenant: "acme", Collection: "docs"},
			ShardOptions: func(ShardSpec) []service.Option {
				return []service.Option{service.WithSlowQueryLog(time.Nanosecond, 0)}
			},
		}, sp)
		req := httptest.NewRequest(http.MethodGet, "/", strings.NewReader(body))
		req.Method, req.URL.Path, req.URL.RawQuery = method, path, rawQuery
		req.Header.Set("X-Request-ID", id)
		w := httptest.NewRecorder()
		c.Handler().ServeHTTP(w, req)

		route := method
		if route == http.MethodHead {
			route = http.MethodGet // GET patterns serve HEAD too
		}
		allowed, ok := documentedStatus[route+" "+path]
		if !ok {
			allowed = muxStatus
		}
		if !slices.Contains(allowed, w.Code) {
			t.Fatalf("%s %s?%s: status %d, want one of %v; body %s", method, path, rawQuery, w.Code, allowed, w.Body.String())
		}
		for _, after := range []string{"/debug/traces", "/debug/slowlog"} {
			w := httptest.NewRecorder()
			c.Handler().ServeHTTP(w, httptest.NewRequest(http.MethodGet, after, nil))
			if !slices.Contains(documentedStatus["GET "+after], w.Code) {
				t.Fatalf("GET %s after %s %s: status %d; body %s", after, method, path, w.Code, w.Body.String())
			}
		}
	})
}
