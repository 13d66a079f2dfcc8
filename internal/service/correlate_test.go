package service_test

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"regexp"
	"strings"
	"testing"
	"time"

	"xcluster/internal/catalog"
	"xcluster/internal/obs"
	"xcluster/internal/service"
)

// postJSONWithID is postJSON plus a client-supplied X-Request-ID header.
func postJSONWithID(t *testing.T, srv *httptest.Server, path, body, id string) (*http.Response, []byte) {
	t.Helper()
	req, err := http.NewRequest("POST", srv.URL+path, strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	if id != "" {
		req.Header.Set("X-Request-ID", id)
	}
	resp, err := http.DefaultClient.Do(req)
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

// TestHTTPReadyz: /readyz is 200 until shutdown begins, then 503 —
// while /healthz (liveness) stays 200 through the whole shutdown.
func TestHTTPReadyz(t *testing.T) {
	cat, _ := newCatalog(t)
	srv := httptest.NewServer(cat.Handler())
	defer srv.Close()

	resp, raw := getBody(t, srv, "/readyz")
	if resp.StatusCode != http.StatusOK || !strings.Contains(string(raw), "ready") {
		t.Fatalf("fresh /readyz = %d %q, want 200 ready", resp.StatusCode, raw)
	}
	cat.BeginShutdown()
	resp, raw = getBody(t, srv, "/readyz")
	if resp.StatusCode != http.StatusServiceUnavailable || !strings.Contains(string(raw), "draining") {
		t.Fatalf("draining /readyz = %d %q, want 503 draining", resp.StatusCode, raw)
	}
	if resp, _ := getBody(t, srv, "/healthz"); resp.StatusCode != http.StatusOK {
		t.Fatalf("draining /healthz = %d, want 200 (process is alive)", resp.StatusCode)
	}
}

// TestHTTPRequestIDEcho: a well-formed client X-Request-ID comes back on
// the response; a missing or malformed one is replaced by a generated ID.
func TestHTTPRequestIDEcho(t *testing.T) {
	_, srv := serve(t)

	resp, _ := postJSONWithID(t, srv, "/estimate", `{"queries":["//book/title"]}`, "req-echo-1")
	if got := resp.Header.Get("X-Request-ID"); got != "req-echo-1" {
		t.Fatalf("echoed X-Request-ID = %q, want req-echo-1", got)
	}

	gen := regexp.MustCompile(`^[0-9a-f]{16}$`)
	for _, bad := range []string{"", "has space"} {
		resp, _ := postJSONWithID(t, srv, "/estimate", `{"queries":["//book/title"]}`, bad)
		if got := resp.Header.Get("X-Request-ID"); !gen.MatchString(got) {
			t.Fatalf("X-Request-ID for client id %q = %q, want generated 16 hex digits", bad, got)
		}
	}
}

// TestHTTPRequestIDInErrorEnvelope: whole-request failures echo the
// request ID inside the JSON error body, so a client log line holds
// everything needed to find the trace.
func TestHTTPRequestIDInErrorEnvelope(t *testing.T) {
	_, srv := serve(t)

	resp, raw := postJSONWithID(t, srv, "/estimate", `{"queries":[]}`, "req-err-1")
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("status = %d, want 400", resp.StatusCode)
	}
	var body map[string]string
	if err := json.Unmarshal(raw, &body); err != nil {
		t.Fatalf("%v in %s", err, raw)
	}
	if body["error"] == "" || body["request_id"] != "req-err-1" {
		t.Fatalf("error envelope = %v, want error text and request_id req-err-1", body)
	}
}

// TestHTTPDebugTraces: an estimate request leaves one trace tree in
// /debug/traces whose root carries the client's request ID and whose
// children are the per-estimate pipeline spans.
func TestHTTPDebugTraces(t *testing.T) {
	_, srv := serve(t)

	postJSONWithID(t, srv, "/estimate", `{"queries":["//book[year>1990]/title"]}`, "req-trace-1")

	resp, raw := getBody(t, srv, "/debug/traces")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	var tr catalog.TracesResponse
	if err := json.Unmarshal(raw, &tr); err != nil {
		t.Fatalf("%v in %s", err, raw)
	}
	var fam *obs.FamilySnapshot
	for i := range tr.Families {
		if tr.Families[i].Family == "POST /estimate" {
			fam = &tr.Families[i]
		}
	}
	if fam == nil {
		t.Fatalf("families = %+v, want POST /estimate", tr.Families)
	}
	root := fam.Recent[0]
	if root.RequestID != "req-trace-1" {
		t.Fatalf("root request ID = %q, want req-trace-1", root.RequestID)
	}
	if root.Nanos <= 0 {
		t.Fatalf("root span nanos = %d, want > 0", root.Nanos)
	}
	var est *obs.SpanSnapshot
	for i := range root.Spans {
		if root.Spans[i].Name == "estimate" {
			est = &root.Spans[i]
		}
	}
	if est == nil {
		t.Fatalf("root children = %+v, want an estimate span", root.Spans)
	}
	if est.Detail == "" || len(est.Spans) == 0 {
		t.Fatalf("estimate span = %+v, want canonical detail and pipeline-stage children", est)
	}
}

// TestHTTPDebugSLO: without objectives the shard's report is disabled;
// with objectives, traffic lands in the trailing windows.
func TestHTTPDebugSLO(t *testing.T) {
	// shardSLO reads the one shard's report from the catalog's rollup.
	shardSLO := func(srv *httptest.Server) obs.SLOReport {
		t.Helper()
		var all catalog.SLOAllResponse
		if resp := getJSON(t, srv, "/debug/slo", &all); resp.StatusCode != http.StatusOK {
			t.Fatalf("status = %d", resp.StatusCode)
		}
		if len(all.Shards) != 1 {
			t.Fatalf("shards = %+v, want the one shard", all.Shards)
		}
		return all.Shards[0].SLOReport
	}
	_, plain := serve(t)
	if rep := shardSLO(plain); rep.Enabled {
		t.Fatalf("default service SLO report = %+v, want disabled", rep)
	}

	_, srv := serve(t, service.WithSLO(obs.SLOConfig{
		Availability:     0.999,
		LatencyObjective: 5 * time.Second,
	}))
	postJSON(t, srv, "/estimate", `{"queries":["//book/title","//journal/title"]}`)
	rep := shardSLO(srv)
	if !rep.Enabled || rep.AvailabilityObjective != 0.999 || rep.LatencyObjective != "5s" {
		t.Fatalf("report = %+v, want enabled with configured objectives", rep)
	}
	if rep.LatencyTarget != 0.99 {
		t.Fatalf("latency target = %v, want defaulted 0.99", rep.LatencyTarget)
	}
	if len(rep.Windows) != 2 || rep.Windows[0].Window != "5m" || rep.Windows[1].Window != "1h" {
		t.Fatalf("windows = %+v, want 5m then 1h", rep.Windows)
	}
	if got := rep.Windows[0].Total; got != 2 {
		t.Fatalf("5m window total = %d, want 2", got)
	}

	// The scrape mirrors the same numbers as xcluster_slo_* series.
	_, raw := getBody(t, srv, "/metrics")
	for _, want := range []string{
		"xcluster_slo_availability_objective 0.999",
		`xcluster_slo_window_requests{window="5m"} 2`,
		`xcluster_slo_burn_rate{slo="availability",window="5m"} 0`,
	} {
		if !strings.Contains(string(raw), want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
}

// TestHTTPMetricsRuntimeSeries: the scrape carries the sampled
// runtime-telemetry series.
func TestHTTPMetricsRuntimeSeries(t *testing.T) {
	_, srv := serve(t)

	postJSON(t, srv, "/estimate", `{"queries":["//book/title"]}`)
	_, raw := getBody(t, srv, "/metrics")
	for _, want := range []string{
		"# TYPE xcluster_go_goroutines gauge",
		"# TYPE xcluster_go_heap_allocs_total counter",
		`xcluster_go_gc_pause_seconds{quantile="0.99"}`,
		`xcluster_go_sched_latency_seconds{quantile="0.5"}`,
		"xcluster_go_estimate_allocs_per_op",
	} {
		if !strings.Contains(string(raw), want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
}

// TestHTTPSlowLogRequestID: slow-log entries captured during an HTTP
// request carry that request's correlation ID.
func TestHTTPSlowLogRequestID(t *testing.T) {
	_, srv := serve(t, service.WithSlowQueryLog(time.Nanosecond, 4))

	postJSONWithID(t, srv, "/estimate", `{"queries":["//book[year>1990]/title"]}`, "req-slow-1")

	_, raw := getBody(t, srv, "/debug/slowlog")
	var sl service.SlowLogResponse
	if err := json.Unmarshal(raw, &sl); err != nil {
		t.Fatalf("%v in %s", err, raw)
	}
	if len(sl.Entries) == 0 {
		t.Fatal("no slow-log entries captured")
	}
	if got := sl.Entries[0].RequestID; got != "req-slow-1" {
		t.Fatalf("slow-log request ID = %q, want req-slow-1", got)
	}
}
