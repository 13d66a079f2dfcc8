package service_test

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"xcluster/internal/catalog"
	"xcluster/internal/core"
	"xcluster/internal/service"
	"xcluster/internal/xmltree"
)

// newCatalog attaches one shard — a service over a fresh build of the
// test document, configured by opts — as the default of a catalog with
// UnlabeledDefault set: the shape of the single-synopsis daemon. Every
// load (the attach, and each reload) builds a fresh synopsis, since a
// hot swap stamps the installed synopsis with its generation.
func newCatalog(t *testing.T, opts ...service.Option) (*catalog.Catalog, *service.Service) {
	t.Helper()
	cat, err := catalog.New(catalog.Config{
		Loader: func(context.Context, catalog.ShardSpec) (*core.Synopsis, *xmltree.Tree, error) {
			return service.NewTestSynopsis(t), nil, nil
		},
		ShardOptions:     func(catalog.ShardSpec) []service.Option { return opts },
		DefaultKey:       catalog.Key{Tenant: "default", Collection: "main"},
		UnlabeledDefault: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		cat.DrainAll(context.Background()) //nolint:errcheck // best-effort test cleanup
	})
	sh, err := cat.Attach(context.Background(), catalog.ShardSpec{
		Tenant: "default", Collection: "main", Synopsis: "mem:test",
	})
	if err != nil {
		t.Fatal(err)
	}
	return cat, sh.Service()
}

// serve is newCatalog with the catalog's handler behind a test server.
func serve(t *testing.T, opts ...service.Option) (*service.Service, *httptest.Server) {
	t.Helper()
	cat, svc := newCatalog(t, opts...)
	srv := httptest.NewServer(cat.Handler())
	t.Cleanup(srv.Close)
	return svc, srv
}

func postJSON(t *testing.T, srv *httptest.Server, path, body string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Post(srv.URL+path, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, raw
}

func getBody(t *testing.T, srv *httptest.Server, path string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Get(srv.URL + path)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, raw
}

// getJSON GETs a path from the test server and decodes its JSON body.
func getJSON(t *testing.T, srv *httptest.Server, path string, out any) *http.Response {
	t.Helper()
	resp, body := getBody(t, srv, path)
	if out != nil {
		if err := json.Unmarshal(body, out); err != nil {
			t.Fatalf("GET %s: decode %q: %v", path, body, err)
		}
	}
	return resp
}

func TestHTTPEstimate(t *testing.T) {
	_, srv := serve(t)

	body := `{"queries":["//book[year>1990]","//book[year>","//journal/title"],"explain":true}`
	resp, raw := postJSON(t, srv, "/estimate", body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d, body %s", resp.StatusCode, raw)
	}
	var er service.EstimateResponse
	if err := json.Unmarshal(raw, &er); err != nil {
		t.Fatalf("%v in %s", err, raw)
	}
	if len(er.Results) != 3 {
		t.Fatalf("results = %+v", er.Results)
	}
	// Good queries: selectivity plus (explain=true) embeddings.
	for _, i := range []int{0, 2} {
		r := er.Results[i]
		if r.Selectivity == nil || r.Error != "" {
			t.Fatalf("result %d = %+v", i, r)
		}
		if len(r.Explain) == 0 {
			t.Fatalf("result %d has no explain lines", i)
		}
	}
	// The malformed query fails inline with its byte offset; the others
	// are still answered.
	bad := er.Results[1]
	if bad.Selectivity != nil || bad.Error == "" {
		t.Fatalf("bad result = %+v", bad)
	}
	if bad.Offset == nil || *bad.Offset != len("//book[year>") {
		t.Fatalf("bad offset = %v", bad.Offset)
	}

	// plan=true returns each query's rendered compiled plan.
	resp, raw = postJSON(t, srv, "/estimate", `{"queries":["//book[year>1990]/title"],"plan":true}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("plan status = %d, body %s", resp.StatusCode, raw)
	}
	var pr service.EstimateResponse
	if err := json.Unmarshal(raw, &pr); err != nil {
		t.Fatalf("%v in %s", err, raw)
	}
	if len(pr.Results) != 1 || pr.Results[0].Selectivity == nil {
		t.Fatalf("plan results = %+v", pr.Results)
	}
	plan := pr.Results[0].Plan
	if !strings.Contains(plan, "plan //book[") || !strings.Contains(plan, "subproblems") {
		t.Fatalf("plan field = %q", plan)
	}

	// Whole-request failures are HTTP errors.
	for _, tc := range []struct {
		body string
		code int
	}{
		{`{"queries":[]}`, http.StatusBadRequest},
		{`{not json`, http.StatusBadRequest},
		{`{"queries":["//book"],"bogus":1}`, http.StatusBadRequest},
	} {
		resp, _ := postJSON(t, srv, "/estimate", tc.body)
		if resp.StatusCode != tc.code {
			t.Fatalf("body %q: status = %d, want %d", tc.body, resp.StatusCode, tc.code)
		}
	}

	// Wrong method on a method-scoped route.
	if resp, _ := getBody(t, srv, "/estimate"); resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET /estimate: status = %d", resp.StatusCode)
	}
}

func TestHTTPStatsAndSynopsis(t *testing.T) {
	_, srv := serve(t)

	// Serve a batch twice so /stats shows traffic and cache hits.
	for i := 0; i < 2; i++ {
		resp, raw := postJSON(t, srv, "/estimate", `{"queries":["//book[year>1990]","//book/title"]}`)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("estimate status = %d, body %s", resp.StatusCode, raw)
		}
	}

	var st service.StatsResponse
	getJSON(t, srv, "/stats", &st)
	if st.Served != 4 || st.Failed != 0 {
		t.Fatalf("stats = %+v", st)
	}
	if st.CacheHits < 2 || st.CacheHitRate <= 0 {
		t.Fatalf("cache stats = %+v", st)
	}
	if st.LatencySamples != 4 || st.P50 == "" || st.Uptime == "" {
		t.Fatalf("latency stats = %+v", st)
	}
	// Two distinct shapes were compiled once each; the repeat batch and
	// repeated executions hit the plan cache.
	if st.PlanCacheMisses != 2 || st.PlanCacheLen != 2 {
		t.Fatalf("plan cache stats = %+v", st)
	}
	if st.PlanCacheHits == 0 || st.PlanCacheHitRate <= 0 || st.PlanCacheCapacity == 0 {
		t.Fatalf("plan cache stats = %+v", st)
	}

	var syn service.SynopsisResponse
	getJSON(t, srv, "/synopsis", &syn)
	if syn.Nodes == 0 || syn.Edges == 0 || syn.TotalBytes == 0 {
		t.Fatalf("synopsis = %+v", syn)
	}

	resp, raw := getBody(t, srv, "/healthz")
	if resp.StatusCode != http.StatusOK || !strings.HasPrefix(string(raw), "ok") {
		t.Fatalf("healthz: %d %q", resp.StatusCode, raw)
	}
}

// TestHTTPTrace exercises "trace":true: every result carries spans that
// start at parse, cover the pipeline stages, and sum to at most the
// reported total.
func TestHTTPTrace(t *testing.T) {
	_, srv := serve(t)

	body := `{"queries":["//book[year>1990]/title","//journal/title"],"trace":true}`
	resp, raw := postJSON(t, srv, "/estimate", body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d, body %s", resp.StatusCode, raw)
	}
	var er service.EstimateResponse
	if err := json.Unmarshal(raw, &er); err != nil {
		t.Fatalf("%v in %s", err, raw)
	}
	for i, res := range er.Results {
		tr := res.Trace
		if tr == nil {
			t.Fatalf("result %d has no trace: %+v", i, res)
		}
		if len(tr.Spans) == 0 || tr.Spans[0].Stage != core.StageParse {
			t.Fatalf("result %d spans = %+v, want parse first", i, tr.Spans)
		}
		var sum int64
		seen := make(map[string]bool)
		for _, sp := range tr.Spans {
			if sp.Nanos < 0 {
				t.Errorf("result %d: negative span %+v", i, sp)
			}
			sum += sp.Nanos
			seen[sp.Stage] = true
		}
		if sum > tr.TotalNanos {
			t.Errorf("result %d: span sum %d exceeds total %d", i, sum, tr.TotalNanos)
		}
		// The batch path compiles each shape up front (prepareShapes), so
		// the traced call hits the plan cache rather than compiling.
		for _, stage := range []string{core.StageCanonicalize, core.StagePlanCache, core.StageExecute} {
			if !seen[stage] {
				t.Errorf("result %d: cold trace missing stage %q: %+v", i, stage, tr.Spans)
			}
		}
		if tr.ResultCacheHit {
			t.Errorf("result %d: cold request reported a result-cache hit", i)
		}
		if !tr.PlanCacheHit {
			t.Errorf("result %d: want plan_cache_hit (batch pre-compiles shapes)", i)
		}
	}

	// The identical request again: the result cache answers, and the
	// trace says so.
	_, raw = postJSON(t, srv, "/estimate", body)
	if err := json.Unmarshal(raw, &er); err != nil {
		t.Fatalf("%v in %s", err, raw)
	}
	for i, res := range er.Results {
		if res.Trace == nil || !res.Trace.ResultCacheHit {
			t.Errorf("repeat result %d: want result_cache_hit, got %+v", i, res.Trace)
		}
	}

	// Without "trace":true no trace is attached.
	_, raw = postJSON(t, srv, "/estimate", `{"queries":["//book/title"]}`)
	var plain service.EstimateResponse
	if err := json.Unmarshal(raw, &plain); err != nil {
		t.Fatalf("%v in %s", err, raw)
	}
	if plain.Results[0].Trace != nil {
		t.Errorf("untraced request returned a trace: %+v", plain.Results[0].Trace)
	}
}

// TestHTTPMetrics scrapes /metrics after traffic and checks the
// families the service promises, including that the mirrored estimator
// cache counters agree exactly with /stats.
func TestHTTPMetrics(t *testing.T) {
	svc, srv := serve(t)

	postJSON(t, srv, "/estimate", `{"queries":["//book/title","//book[year>1990]"]}`)
	postJSON(t, srv, "/estimate", `{"queries":["//book/title"]}`)
	// Pushed ground truth lands in the accuracy series.
	postJSON(t, srv, "/feedback", `{"feedback":[{"query":"//book/title","true":120}]}`)

	resp, raw := getBody(t, srv, "/metrics")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain; version=0.0.4") {
		t.Errorf("Content-Type = %q", ct)
	}
	text := string(raw)
	for _, want := range []string{
		// 3 estimates plus the one the feedback handler runs to pair
		// with the pushed ground truth.
		`xcluster_requests_total{outcome="ok"} 4`,
		"# TYPE xcluster_request_seconds histogram",
		"xcluster_request_seconds_count 4",
		`xcluster_pipeline_stage_seconds_bucket{stage="execute",`,
		`xcluster_pipeline_stage_seconds_bucket{stage="parse",`,
		`xcluster_cache_lookups_total{cache="result",outcome="hit"} 2`,
		`xcluster_cache_lookups_total{cache="result",outcome="miss"} 2`,
		`xcluster_synopsis_bytes{component="struct"}`,
		"xcluster_batches_total 2",
		"xcluster_batch_queries_total 3",
		"# HELP xcluster_requests_total Estimate queries answered, by outcome.",
		// The accuracy series exist from startup for every class; the
		// feedback pair above is the one struct observation.
		"# HELP xcluster_accuracy_error Relative error of shadow-checked estimates, by predicate class.",
		"# TYPE xcluster_accuracy_error histogram",
		`xcluster_accuracy_error_bucket{class="struct",le="+Inf"} 1`,
		`xcluster_accuracy_samples_total{class="struct"} 1`,
		`xcluster_accuracy_samples_total{class="range"} 0`,
		`xcluster_accuracy_drifted{class="struct"} 0`,
	} {
		if !strings.Contains(text, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}

	// The mirrored counters must equal the /stats numbers bit-for-bit:
	// both come from the estimator's own cache counters.
	st := svc.Stats()
	for _, c := range []struct {
		series string
		want   uint64
	}{
		{`xcluster_estimator_cache_hits_total{cache="result"} `, st.Cache.Hits},
		{`xcluster_estimator_cache_misses_total{cache="result"} `, st.Cache.Misses},
		{`xcluster_estimator_cache_hits_total{cache="plan"} `, st.PlanCache.Hits},
		{`xcluster_estimator_cache_misses_total{cache="plan"} `, st.PlanCache.Misses},
	} {
		found := false
		for _, line := range strings.Split(text, "\n") {
			v, ok := strings.CutPrefix(line, c.series)
			if !ok {
				continue
			}
			found = true
			got, err := strconv.ParseUint(strings.TrimSpace(v), 10, 64)
			if err != nil {
				t.Errorf("parsing %q: %v", line, err)
			} else if got != c.want {
				t.Errorf("%s= %d, /stats says %d", c.series, got, c.want)
			}
		}
		if !found {
			t.Errorf("/metrics missing series %q", c.series)
		}
	}
}

// TestHTTPSlowLog drives a service whose slow-query threshold captures
// everything, then reads the log back over HTTP.
func TestHTTPSlowLog(t *testing.T) {
	svc, srv := serve(t, service.WithSlowQueryLog(time.Nanosecond, 4))

	postJSON(t, srv, "/estimate", `{"queries":["//book[year>1990]/title","//journal/title"]}`)

	var sl service.SlowLogResponse
	if resp := getJSON(t, srv, "/debug/slowlog", &sl); resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	if sl.ThresholdNanos != 1 {
		t.Errorf("threshold_nanos = %d, want 1", sl.ThresholdNanos)
	}
	if sl.Total != 2 || len(sl.Entries) != 2 {
		t.Fatalf("total = %d, entries = %d, want 2 and 2", sl.Total, len(sl.Entries))
	}
	for _, e := range sl.Entries {
		if e.Query == "" || e.TotalNanos <= 0 {
			t.Errorf("entry = %+v, want query and positive total", e)
		}
		// Total is the human-readable rendering of TotalNanos.
		if e.Total != time.Duration(e.TotalNanos).String() {
			t.Errorf("entry total = %q, want %q", e.Total, time.Duration(e.TotalNanos).String())
		}
		if !strings.Contains(e.Plan, "subproblems") {
			t.Errorf("entry plan = %q, want a plan summary", e.Plan)
		}
		if len(e.Spans) == 0 {
			t.Errorf("entry %q has no spans", e.Query)
		}
	}
	if st := svc.Stats(); st.SlowQueries != 2 {
		t.Errorf("Stats().SlowQueries = %d, want 2", st.SlowQueries)
	}

	// ?limit=N caps the entries while Total still counts everything.
	var capped service.SlowLogResponse
	getJSON(t, srv, "/debug/slowlog?limit=1", &capped)
	if len(capped.Entries) != 1 || capped.Total != 2 {
		t.Errorf("limit=1: entries = %d, total = %d, want 1 and 2", len(capped.Entries), capped.Total)
	}
	if resp, _ := getBody(t, srv, "/debug/slowlog?limit=-3"); resp.StatusCode != http.StatusBadRequest {
		t.Errorf("negative limit status = %d, want 400", resp.StatusCode)
	}
}

// TestHTTPSlowLogDisabled: the default service has no slow-query log,
// and the endpoint reports it as disabled rather than failing.
func TestHTTPSlowLogDisabled(t *testing.T) {
	_, srv := serve(t)

	postJSON(t, srv, "/estimate", `{"queries":["//book/title"]}`)
	var sl service.SlowLogResponse
	if resp := getJSON(t, srv, "/debug/slowlog", &sl); resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	if sl.ThresholdNanos != 0 || sl.Total != 0 || len(sl.Entries) != 0 {
		t.Errorf("disabled slowlog = %+v, want zero threshold and no entries", sl)
	}
}

func TestHTTPBuildInfo(t *testing.T) {
	_, srv := serve(t)

	var bi service.BuildInfo
	if resp := getJSON(t, srv, "/buildinfo", &bi); resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	if bi.GoVersion == "" {
		t.Errorf("buildinfo = %+v, want a go_version", bi)
	}
	if bi.Module != "xcluster" {
		t.Errorf("module = %q, want xcluster", bi.Module)
	}
	if s := bi.String(); !strings.Contains(s, bi.GoVersion) {
		t.Errorf("String() = %q, want it to include the Go version", s)
	}
}

// TestAdminRebuildConflictHTTP: while a rebuild runs, POST
// /admin/rebuild answers 409, synchronous or async, and the refused
// request leaves RebuildStatus and the rebuild counters as they were;
// once the running rebuild ends, an async request is accepted again.
func TestAdminRebuildConflictHTTP(t *testing.T) {
	svc, srv := serve(t, service.WithDocument(service.TestTree(t)))
	release := svc.HoldRebuild()
	before := svc.RebuildStatus()
	for _, body := range []string{`{"async":true}`, `{}`} {
		if resp, raw := postJSON(t, srv, "/admin/rebuild", body); resp.StatusCode != http.StatusConflict {
			t.Fatalf("rebuild %s during a running rebuild: %d: %s, want 409", body, resp.StatusCode, raw)
		}
	}
	time.Sleep(50 * time.Millisecond) // a wrongly spawned rebuild would record by now
	if st := svc.RebuildStatus(); st != before {
		t.Fatalf("refused rebuilds changed the status: %+v, was %+v", st, before)
	}
	_, metrics := getBody(t, srv, "/metrics")
	for _, series := range []string{
		`xcluster_rebuilds_total{outcome="error"} 0`,
		`xcluster_rebuilds_total{outcome="ok"} 0`,
	} {
		if !bytes.Contains(metrics, []byte(series)) {
			t.Fatalf("refused rebuilds were counted: /metrics lacks %q:\n%s", series, metrics)
		}
	}

	release()
	if resp, raw := postJSON(t, srv, "/admin/rebuild", `{"async":true}`); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("async rebuild after release: %d: %s, want 202", resp.StatusCode, raw)
	}
	deadline := time.Now().Add(10 * time.Second)
	for svc.Generation() != 1 {
		if time.Now().After(deadline) {
			t.Fatalf("async rebuild never landed; status %+v", svc.RebuildStatus())
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestAdminRebuildHTTP is the acceptance path over the wire: POST
// /admin/rebuild lands while 32 goroutines hammer POST /estimate, with
// zero failed requests; /debug/synopsis reports the new generation and
// the rebuild outcome; post-swap estimates are bit-for-bit a cold
// build's answers; the lifecycle metrics are exported.
func TestAdminRebuildHTTP(t *testing.T) {
	tree := service.TestTree(t)
	qs := service.ParseWorkload(t)
	svc, srv := serve(t, service.WithDocument(tree))
	want := service.SequentialAnswers(svc.Synopsis(), qs)

	post := func(path, body string) (int, []byte) {
		t.Helper()
		resp, raw := postJSON(t, srv, path, body)
		return resp.StatusCode, raw
	}

	estBody, _ := json.Marshal(service.EstimateRequest{Queries: service.TestWorkload})
	checkEstimate := func(code int, body []byte) error {
		if code != http.StatusOK {
			return fmt.Errorf("POST /estimate: %d: %s", code, body)
		}
		var er service.EstimateResponse
		if err := json.Unmarshal(body, &er); err != nil {
			return fmt.Errorf("POST /estimate: %v", err)
		}
		if len(er.Results) != len(service.TestWorkload) {
			return fmt.Errorf("POST /estimate: %d results", len(er.Results))
		}
		for i, res := range er.Results {
			if res.Error != "" || res.Selectivity == nil {
				return fmt.Errorf("query %q failed: %q", res.Query, res.Error)
			}
			if *res.Selectivity != want[i] {
				return fmt.Errorf("query %q = %v, want %v", res.Query, *res.Selectivity, want[i])
			}
		}
		return nil
	}

	const goroutines = 32
	const rounds = 10
	start := make(chan struct{})
	var wg sync.WaitGroup
	errs := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			for r := 0; r < rounds; r++ {
				resp, err := http.Post(srv.URL+"/estimate", "application/json", bytes.NewReader(estBody))
				if err != nil {
					errs <- err
					return
				}
				body, err := io.ReadAll(resp.Body)
				resp.Body.Close()
				if err == nil {
					err = checkEstimate(resp.StatusCode, body)
				}
				if err != nil {
					errs <- err
					return
				}
			}
		}()
	}
	close(start)

	// The rebuild lands mid-hammer.
	code, body := post("/admin/rebuild", `{"reason":"acceptance"}`)
	if code != http.StatusOK {
		t.Fatalf("POST /admin/rebuild: %d: %s", code, body)
	}
	var ev service.SwapEvent
	if err := json.Unmarshal(body, &ev); err != nil {
		t.Fatal(err)
	}
	if ev.NewGeneration != 1 || ev.Reason != "acceptance" {
		t.Fatalf("rebuild swap event %+v", ev)
	}
	// A malformed body or an unknown key is a 400 before any rebuild
	// starts.
	for _, body := range []string{`{"struct_budget":"nope"}`, `{"struct_budget":512,"budget":512}`} {
		if code, _ := post("/admin/rebuild", body); code != http.StatusBadRequest {
			t.Fatalf("rebuild body %s: %d, want 400", body, code)
		}
	}

	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if st := svc.Stats(); st.Failed != 0 {
		t.Fatalf("%d failed requests during rebuild", st.Failed)
	}

	// /debug/synopsis reports the new generation and the outcome.
	var dbg service.SynopsisDebugResponse
	getJSON(t, srv, "/debug/synopsis", &dbg)
	if dbg.Version.Generation != 1 {
		t.Fatalf("/debug/synopsis generation %d, want 1", dbg.Version.Generation)
	}
	if dbg.Version.DocHash == "" || dbg.Version.StructBudget != 512 || dbg.Version.ValueBudget != 512 {
		t.Fatalf("/debug/synopsis version %+v", dbg.Version)
	}
	if dbg.Rebuild.LastOutcome != "ok" || dbg.Rebuild.LastGeneration != 1 {
		t.Fatalf("/debug/synopsis rebuild %+v", dbg.Rebuild)
	}

	// Post-swap estimates are bit-for-bit a cold build's answers.
	cold := service.ColdAnswers(t, tree, 512, 512, qs)
	for i, q := range qs {
		got, err := svc.Estimate(context.Background(), q)
		if err != nil {
			t.Fatal(err)
		}
		if got != cold[i] {
			t.Fatalf("post-swap %s = %v, want cold %v", service.TestWorkload[i], got, cold[i])
		}
	}

	// Async mode: 202 now, generation bump eventually.
	code, body = post("/admin/rebuild", `{"async":true}`)
	if code != http.StatusAccepted {
		t.Fatalf("async rebuild: %d: %s", code, body)
	}
	deadline := time.Now().Add(10 * time.Second)
	for svc.Generation() != 2 {
		if time.Now().After(deadline) {
			t.Fatalf("async rebuild never landed; status %+v", svc.RebuildStatus())
		}
		time.Sleep(10 * time.Millisecond)
	}

	// The lifecycle metrics are exported.
	_, metrics := getBody(t, srv, "/metrics")
	for _, series := range []string{
		"xcluster_synopsis_generation 2",
		`xcluster_rebuilds_total{outcome="ok"} 2`,
		"xcluster_rebuild_seconds_count 2",
		"xcluster_synopsis_swaps_total 2",
	} {
		if !bytes.Contains(metrics, []byte(series)) {
			t.Fatalf("/metrics missing %q:\n%s", series, metrics)
		}
	}

	// /admin/reload re-runs the shard's loader and swaps the result in.
	// (Without a configured source it is a 412: ErrNoSource, pinned by
	// TestReloadSwapsGeneration and ErrorStatus.)
	code, body = post("/admin/reload", "")
	if code != http.StatusOK {
		t.Fatalf("reload: %d: %s", code, body)
	}
	if err := json.Unmarshal(body, &ev); err != nil {
		t.Fatal(err)
	}
	if ev.NewGeneration != 3 || ev.Reason != "reload" {
		t.Fatalf("reload swap event %+v", ev)
	}
}

// TestHTTPBudgetAndAdaptiveRebuild drives the HTTP surface: POST
// /admin/rebuild {"adaptive":true} plans from the live profile, and
// GET /debug/budget reports the plan, splits, and planning run.
func TestHTTPBudgetAndAdaptiveRebuild(t *testing.T) {
	svc, srv := serve(t, service.WithDocument(service.TestTree(t)), service.WithAdaptiveBudget())
	service.ProfileTraffic(t, svc)

	resp, raw := postJSON(t, srv, "/admin/rebuild", `{"adaptive":true,"reason":"ops"}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("rebuild status = %d", resp.StatusCode)
	}
	var ev service.SwapEvent
	if err := json.Unmarshal(raw, &ev); err != nil {
		t.Fatal(err)
	}
	if ev.Fingerprint.Provenance != core.ProvenanceWorkload {
		t.Fatalf("HTTP adaptive rebuild fingerprint = %+v", ev.Fingerprint)
	}

	var rep service.BudgetResponse
	if resp := getJSON(t, srv, "/debug/budget", &rep); resp.StatusCode != http.StatusOK {
		t.Fatalf("/debug/budget status = %d", resp.StatusCode)
	}
	if !rep.Adaptive {
		t.Fatal("budget report does not reflect WithAdaptiveBudget")
	}
	if rep.Current.Provenance != core.ProvenanceWorkload {
		t.Fatalf("budget report current = %+v", rep.Current)
	}
	if rep.LastInputs == nil || rep.LastDecision == nil {
		t.Fatalf("budget report missing the planning run: %+v", rep)
	}
	if rep.Actual.NodeBytes <= 0 {
		t.Fatalf("budget report actual split empty: %+v", rep.Actual)
	}

	// The scrape surface exports the plan gauges.
	_, raw = getBody(t, srv, "/metrics")
	body := string(raw)
	for _, series := range []string{
		"xcluster_budget_plan_total_bytes",
		`xcluster_budget_planned_bytes{component="struct"}`,
		`xcluster_budget_actual_bytes{component="histogram"}`,
		`xcluster_budget_plan_provenance{provenance="workload"} 1`,
	} {
		if !strings.Contains(body, series) {
			t.Fatalf("metrics missing %s", series)
		}
	}
}

// TestWriteJSONUnencodable pins WriteJSON's failure mode: a value
// encoding/json rejects (NaN) is answered with the 500 error envelope,
// never the intended status with an empty body, and the envelope echoes
// the request ID when the correlation header is set. An encodable value
// still renders as indented JSON under the given status.
func TestWriteJSONUnencodable(t *testing.T) {
	for _, id := range []string{"", "req-7"} {
		w := httptest.NewRecorder()
		if id != "" {
			w.Header().Set("X-Request-ID", id)
		}
		service.WriteJSON(w, http.StatusOK, map[string]float64{"v": math.NaN()})
		if w.Code != http.StatusInternalServerError {
			t.Fatalf("status %d, want 500: %s", w.Code, w.Body.String())
		}
		var env map[string]string
		if err := json.Unmarshal(w.Body.Bytes(), &env); err != nil {
			t.Fatalf("body is not an error envelope: %v\n%s", err, w.Body.String())
		}
		if !strings.Contains(env["error"], "unsupported value: NaN") {
			t.Errorf("error = %q, want the encoder's message", env["error"])
		}
		if env["request_id"] != id {
			t.Errorf("request_id = %q, want %q", env["request_id"], id)
		}
	}
	w := httptest.NewRecorder()
	service.WriteJSON(w, http.StatusCreated, map[string]int{"n": 1})
	if w.Code != http.StatusCreated || w.Body.String() != "{\n  \"n\": 1\n}\n" {
		t.Fatalf("status %d, body %q", w.Code, w.Body.String())
	}
	if ct := w.Header().Get("Content-Type"); ct != "application/json" {
		t.Fatalf("Content-Type = %q", ct)
	}
}
