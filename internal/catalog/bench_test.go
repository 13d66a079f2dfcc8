package catalog

import (
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

// BenchmarkHandlerEstimateHot drives the daemon's handler with a
// one-query POST /estimate that the result cache answers, so it
// measures the serving path around the synopsis — routing, body
// decode, parse, canonicalize, cache lookup, telemetry and response
// encode — without a network. Run it with -benchmem for allocs/op.
func BenchmarkHandlerEstimateHot(b *testing.B) {
	c := newTestCatalog(b, Config{
		DefaultKey:       Key{Tenant: "acme", Collection: "docs"},
		UnlabeledDefault: true,
	}, spec("acme", "docs"))
	h := c.Handler()
	const body = `{"queries":["//book[year>1990]/title"]}`
	serve := func() *httptest.ResponseRecorder {
		w := httptest.NewRecorder()
		h.ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/estimate", strings.NewReader(body)))
		return w
	}
	if w := serve(); w.Code != http.StatusOK { // fills the result cache
		b.Fatalf("status %d: %s", w.Code, w.Body.String())
	}
	b.ReportAllocs()
	for b.Loop() {
		serve()
	}
}
