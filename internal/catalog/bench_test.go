package catalog

import (
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"xcluster/internal/service"
)

// raceEnabled is set under the race detector, whose instrumentation
// allocates, so the allocation pin skips itself there (race_test.go).
var raceEnabled bool

// hotBody is BenchmarkHandlerEstimateHot's request body.
const hotBody = `{"queries":["//book[year>1990]/title"]}`

// hotEstimate returns a function that serves body, a one-query POST
// /estimate, through the daemon's handler, after a first call that
// fills the result cache (and the estimator's text cache), so every
// later call is a cache hit. The shard runs under xclusterd's default
// -timeout, as the daemon's shards do.
func hotEstimate(tb testing.TB, body string) func() *httptest.ResponseRecorder {
	c := newTestCatalog(tb, Config{
		DefaultKey:       Key{Tenant: "acme", Collection: "docs"},
		UnlabeledDefault: true,
		ShardOptions: func(ShardSpec) []service.Option {
			return []service.Option{service.WithTimeout(5 * time.Second)}
		},
	}, spec("acme", "docs"))
	h := c.Handler()
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
	serve := hotEstimate(b, hotBody)
	b.ReportAllocs()
	for b.Loop() {
		serve()
	}
}

// TestHandlerEstimateHotAllocs pins the allocations of
// BenchmarkHandlerEstimateHot's request: a repeated query text is
// neither parsed nor canonicalized, the request ID and root span cost no
// allocation beyond the ID itself, the plain body decodes into its
// queries slice and strings alone, and the service deadline arms no
// timer. The same query as json.Marshal writes it, with > escaped,
// costs no more; a body the plain parser turns down (a key in another
// case) falls back to json.Decoder, which costs eleven more.
func TestHandlerEstimateHotAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	for _, c := range []struct {
		name, body string
		max        float64
	}{
		{"plain", hotBody, 29},
		{"escaped", `{"queries":["//book[year\u003e1990]/title"]}`, 29},
		{"fallback", `{"Queries":["//book[year>1990]/title"]}`, 40},
	} {
		serve := hotEstimate(t, c.body)
		if n := testing.AllocsPerRun(200, func() { serve() }); n > c.max {
			t.Errorf("cached POST /estimate, %s body: %v allocs, want ≤%v", c.name, n, c.max)
		}
	}
}
