package catalog

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net"
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
	h := hotCatalog(tb).Handler()
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

// hotCatalog returns a catalog of one default shard under xclusterd's
// default -timeout, as the daemon's shards run.
func hotCatalog(tb testing.TB) *Catalog {
	return newTestCatalog(tb, Config{
		DefaultKey:       Key{Tenant: "acme", Collection: "docs"},
		UnlabeledDefault: true,
		ShardOptions: func(ShardSpec) []service.Option {
			return []service.Option{service.WithTimeout(5 * time.Second)}
		},
	}, spec("acme", "docs"))
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
// neither parsed nor canonicalized; the request costs its ID, one root
// record holding the root span and its context, and the request copy
// that carries the context; the plain body decodes into its query
// strings alone, in a pooled queries slice; the batch's records hold
// its traces; the response reaches WriteJSON as a pointer into a
// pooled record, so boxing it costs nothing; and the service deadline
// arms no timer. The same query as json.Marshal writes it, with >
// escaped, costs no more; a body the plain parser turns down (a key in
// another case) falls back to json.Decoder, which costs twelve more.
func TestHandlerEstimateHotAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	for _, c := range []struct {
		name, body string
		max        float64
	}{
		{"plain", hotBody, 25},
		{"escaped", `{"queries":["//book[year\u003e1990]/title"]}`, 25},
		{"fallback", `{"Queries":["//book[year>1990]/title"]}`, 37},
	} {
		serve := hotEstimate(t, c.body)
		if n := testing.AllocsPerRun(200, func() { serve() }); n > c.max {
			t.Errorf("cached POST /estimate, %s body: %v allocs, want ≤%v", c.name, n, c.max)
		}
	}
}

// TestServeEstimateAllocs pins the allocations of the process per
// cached one-query POST /estimate served from an http.Server with
// xclusterd's timeouts over loopback: TestHandlerEstimateHotAllocs's
// request plus what net/http spends per request on a keep-alive
// connection. The client writes a prepared request and reads the
// response into a fixed buffer, so it allocates nothing and the count
// is the server's. It is the one pin that sees net/http's own work
// after the handler: a body the handler read to its end but left open
// costs another read, with its allocation, to find the end again.
func TestServeEstimateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := &http.Server{
		Handler:           hotCatalog(t).Handler(),
		ReadHeaderTimeout: 5 * time.Second,
		ReadTimeout:       30 * time.Second,
		IdleTimeout:       2 * time.Minute,
	}
	go srv.Serve(ln) //nolint:errcheck // ends with ErrServerClosed at cleanup
	t.Cleanup(func() { srv.Close() })
	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	// A server that stops answering fails the test instead of hanging it.
	if err := conn.SetDeadline(time.Now().Add(30 * time.Second)); err != nil {
		t.Fatal(err)
	}

	req := []byte(fmt.Sprintf("POST /estimate HTTP/1.1\r\nHost: xclusterd\r\n"+
		"Content-Type: application/json\r\nContent-Length: %d\r\n\r\n%s", len(hotBody), hotBody))
	buf := make([]byte, 8<<10)
	var resp []byte
	roundTrip := func() {
		if _, err := conn.Write(req); err != nil {
			t.Fatal(err)
		}
		if resp, err = readResponse(conn, buf); err != nil {
			t.Fatal(err)
		}
	}
	roundTrip() // fills the caches
	if !bytes.HasPrefix(resp, []byte("HTTP/1.1 200 ")) || !bytes.Contains(resp, []byte(`"selectivity"`)) {
		t.Fatalf("response:\n%s", resp)
	}
	const want = 29
	if n := testing.AllocsPerRun(200, roundTrip); n > want {
		t.Errorf("cached POST /estimate over loopback: %v allocs per request, want ≤%v", n, want)
	}
}

// readResponse reads one HTTP/1.1 response with a Content-Length from
// conn into buf and returns it, headers and body, without allocating.
func readResponse(conn net.Conn, buf []byte) ([]byte, error) {
	const header = "\r\nContent-Length: "
	n := 0
	for {
		m, err := conn.Read(buf[n:])
		n += m
		if end := bytes.Index(buf[:n], []byte("\r\n\r\n")); end >= 0 {
			if i := bytes.Index(buf[:end], []byte(header)); i >= 0 {
				length := 0
				for _, c := range buf[i+len(header) : end] {
					if c < '0' || c > '9' {
						break
					}
					length = length*10 + int(c-'0')
				}
				if total := end + 4 + length; n >= total {
					return buf[:total], nil
				}
			}
		}
		if err != nil {
			return buf[:n], err
		}
		if n == len(buf) {
			return buf[:n], fmt.Errorf("response over %d bytes", len(buf))
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
// the rest, whatever its size: routing, decode (the queries slice is
// pooled), the root span and its context (one record), the
// per-request slices, the scatter workers and gather, and per shard a
// span and its context (one record), the batch's estimates and its
// traces.
func TestHandlerEstimateScatterAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	const perRequest, perQuery = 53, 1
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
