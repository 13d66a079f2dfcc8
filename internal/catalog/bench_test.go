package catalog

import (
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

// raceEnabled is set under the race detector, whose instrumentation
// allocates, so the allocation pin skips itself there (race_test.go).
var raceEnabled bool

// hotEstimate returns a function that serves a one-query POST /estimate
// through the daemon's handler, after a first call that fills the
// result cache (and the estimator's text cache), so every later call is
// a cache hit.
func hotEstimate(tb testing.TB) func() *httptest.ResponseRecorder {
	c := newTestCatalog(tb, Config{
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
	if w := serve(); w.Code != http.StatusOK {
		tb.Fatalf("status %d: %s", w.Code, w.Body.String())
	}
	return serve
}

// BenchmarkHandlerEstimateHot drives the daemon's handler with a
// one-query POST /estimate that the result cache answers, so it
// measures the serving path around the synopsis — routing, body
// decode, the text-cache lookup that stands in for parse and
// canonicalize, result-cache lookup, telemetry and response encode —
// without a network. Run it with -benchmem for allocs/op.
func BenchmarkHandlerEstimateHot(b *testing.B) {
	serve := hotEstimate(b)
	b.ReportAllocs()
	for b.Loop() {
		serve()
	}
}

// TestHandlerEstimateHotAllocs pins the allocations of
// BenchmarkHandlerEstimateHot's request: a repeated query text is
// neither parsed nor canonicalized, and the request ID and root span
// cost no allocation beyond the ID itself.
func TestHandlerEstimateHotAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	serve := hotEstimate(t)
	if n := testing.AllocsPerRun(200, func() { serve() }); n > 42 {
		t.Errorf("cached POST /estimate: %v allocs, want ≤42", n)
	}
}
