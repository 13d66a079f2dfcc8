package catalog

import (
	"encoding/json"
	"fmt"
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

// scatterBody returns a scatter POST /estimate body for tenant acme
// carrying n distinct query texts.
func scatterBody(n int) string {
	qs := make([]string, n)
	for i := range qs {
		qs[i] = fmt.Sprintf("//book[year>%d]/title", 1950+i)
	}
	raw, err := json.Marshal(qs)
	if err != nil {
		panic(err)
	}
	return `{"tenant":"acme","queries":` + string(raw) + `}`
}

// scatterEstimate returns a function that serves body, a scatter POST
// /estimate, through the daemon's handler over a tenant of three
// collections, after a first call that fills every cache the request
// reaches: the first shard's text cache and each shard's result cache.
// Every shard gets opts after xclusterd's default -timeout.
func scatterEstimate(tb testing.TB, body string, opts ...service.Option) func() *httptest.ResponseRecorder {
	c := newTestCatalog(tb, Config{
		ShardOptions: func(ShardSpec) []service.Option {
			return append([]service.Option{service.WithTimeout(5 * time.Second)}, opts...)
		},
	}, spec("acme", "docs"), spec("acme", "mail"), spec("acme", "wiki"))
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

// BenchmarkHandlerEstimateScatter drives the daemon's handler with a
// repeated 32-query scatter over three collections: one parse (a
// text-cache hit) per query, then one batch per shard whose estimates
// the result caches answer, so it measures the scatter's per-shard
// fan-out, telemetry and gather. Run it with -benchmem for allocs/op.
func BenchmarkHandlerEstimateScatter(b *testing.B) {
	serve := scatterEstimate(b, scatterBody(32))
	b.ReportAllocs()
	for b.Loop() {
		serve()
	}
}

// BenchmarkHandlerEstimateScatterColdPlans is
// BenchmarkHandlerEstimateScatter with one plan slot per shard: the
// result caches answer every query, but all plans but one per shard
// are evicted, so it measures what the batch warm pass spends on
// queries whose answers are cached. Run it with -benchmem for
// allocs/op.
func BenchmarkHandlerEstimateScatterColdPlans(b *testing.B) {
	serve := scatterEstimate(b, scatterBody(32), service.WithPlanCacheCapacity(1))
	b.ReportAllocs()
	for b.Loop() {
		serve()
	}
}

// TestHandlerEstimateScatterAllocs pins the allocations of a repeated
// scatter over three collections, BenchmarkHandlerEstimateScatter's
// request, at a per-request constant plus a per-query bound. A query
// costs one allocation, its text decoded from the body: it is parsed
// and canonicalized once per request, through the first shard's text
// cache, not once per shard; each shard's batch takes its traces from
// one slice and grows its span once; and a query's selectivity is
// rendered from the gathered sums without a copy. The request costs
// the rest, whatever its size: routing, decode, the root span, the
// per-request slices, the scatter workers and gather, and per shard a
// span, its context, the batch's estimates and its traces.
func TestHandlerEstimateScatterAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	const perRequest, perQuery = 58, 1
	for _, n := range []int{1, 8, 32} {
		serve := scatterEstimate(t, scatterBody(n))
		want := float64(perRequest + perQuery*n)
		if got := testing.AllocsPerRun(100, func() { serve() }); got > want {
			t.Errorf("cached %d-query scatter: %v allocs, want ≤%v", n, got, want)
		}
	}
	// With one plan slot per shard, the batch warm pass skips every
	// query whose answer is cached and whose plan was evicted, so the
	// request compiles nothing and stays within the same bound (it
	// compiled about 31 plans per shard when the pass looked every
	// query up).
	serve := scatterEstimate(t, scatterBody(32), service.WithPlanCacheCapacity(1))
	want := float64(perRequest + perQuery*32)
	if got := testing.AllocsPerRun(100, func() { serve() }); got > want {
		t.Errorf("cached 32-query scatter with one plan slot: %v allocs, want ≤%v", got, want)
	}
}
