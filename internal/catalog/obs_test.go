package catalog

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"xcluster/internal/obs"
	"xcluster/internal/profile"
)

// postJSONWithID is postJSON plus a client X-Request-ID header.
func postJSONWithID(t *testing.T, h http.Handler, path, body, id string, out any) *httptest.ResponseRecorder {
	t.Helper()
	req := httptest.NewRequest(http.MethodPost, path, strings.NewReader(body))
	req.Header.Set("X-Request-ID", id)
	w := httptest.NewRecorder()
	h.ServeHTTP(w, req)
	if out != nil && w.Code < 300 {
		if err := json.Unmarshal(w.Body.Bytes(), out); err != nil {
			t.Fatalf("decoding %s response: %v\n%s", path, err, w.Body.String())
		}
	}
	return w
}

// TestCatalogReadyz walks the readiness lifecycle: 503 before the first
// shard, 200 while serving, 503 again once shutdown begins (while
// /healthz stays 200 throughout).
func TestCatalogReadyz(t *testing.T) {
	c := newTestCatalog(t, Config{})
	h := c.Handler()

	if w := getPath(t, h, "/readyz"); w.Code != http.StatusServiceUnavailable ||
		!strings.Contains(w.Body.String(), "no shards") {
		t.Fatalf("empty catalog /readyz = %d %q, want 503 no shards", w.Code, w.Body.String())
	}
	if _, err := c.Attach(context.Background(), spec("acme", "docs")); err != nil {
		t.Fatal(err)
	}
	if w := getPath(t, h, "/readyz"); w.Code != http.StatusOK {
		t.Fatalf("serving /readyz = %d %q, want 200", w.Code, w.Body.String())
	}
	c.BeginShutdown()
	if w := getPath(t, h, "/readyz"); w.Code != http.StatusServiceUnavailable ||
		!strings.Contains(w.Body.String(), "draining") {
		t.Fatalf("shutdown /readyz = %d %q, want 503 draining", w.Code, w.Body.String())
	}
	if w := getPath(t, h, "/healthz"); w.Code != http.StatusOK {
		t.Fatalf("shutdown /healthz = %d, want 200", w.Code)
	}
}

// TestCatalogScatterTrace is the end-to-end correlation check: one
// scattered estimate produces one trace tree whose per-shard child
// spans all carry the client's request ID and their shard identity.
func TestCatalogScatterTrace(t *testing.T) {
	_, h := httpFixture(t)

	w := postJSONWithID(t, h, "/estimate", `{"tenant":"acme","queries":["//book"]}`, "abc", nil)
	if w.Code != http.StatusOK {
		t.Fatalf("scatter status %d: %s", w.Code, w.Body.String())
	}
	if got := w.Header().Get("X-Request-ID"); got != "abc" {
		t.Fatalf("echoed X-Request-ID = %q, want abc", got)
	}

	w = getPath(t, h, "/debug/traces")
	if w.Code != http.StatusOK {
		t.Fatalf("traces status %d", w.Code)
	}
	var tr struct {
		Families []obs.FamilySnapshot `json:"families"`
	}
	if err := json.Unmarshal(w.Body.Bytes(), &tr); err != nil {
		t.Fatal(err)
	}
	var fam *obs.FamilySnapshot
	for i := range tr.Families {
		if tr.Families[i].Family == "POST /estimate" {
			fam = &tr.Families[i]
		}
	}
	if fam == nil || len(fam.Recent) == 0 {
		t.Fatalf("families = %+v, want a recorded POST /estimate tree", tr.Families)
	}
	root := fam.Recent[0]
	if root.RequestID != "abc" {
		t.Fatalf("root request ID = %q, want abc", root.RequestID)
	}
	if root.Tenant != "acme" {
		t.Fatalf("root tenant = %q, want acme (scatter target)", root.Tenant)
	}
	// One child per scattered collection, each labeled and correlated.
	var shardChildren int
	seen := map[string]bool{}
	for _, sp := range root.Spans {
		if sp.Name != "shard" {
			continue
		}
		shardChildren++
		if sp.RequestID != "abc" {
			t.Fatalf("shard span request ID = %q, want inherited abc", sp.RequestID)
		}
		if sp.Tenant != "acme" || sp.Collection == "" {
			t.Fatalf("shard span identity = %q/%q, want acme/<collection>", sp.Tenant, sp.Collection)
		}
		seen[sp.Collection] = true
	}
	if shardChildren != 2 || !seen["docs"] || !seen["mail"] {
		t.Fatalf("shard children = %d over %v, want 2 covering docs and mail", shardChildren, seen)
	}
}

// TestCatalogErrorEnvelopeRequestID: catalog error envelopes carry the
// correlation ID like the single-tenant service's do.
func TestCatalogErrorEnvelopeRequestID(t *testing.T) {
	_, h := httpFixture(t)
	w := postJSONWithID(t, h, "/estimate", `{"tenant":"nobody","collection":"docs","queries":["//a"]}`, "req-404", nil)
	if w.Code != http.StatusNotFound {
		t.Fatalf("status = %d, want 404", w.Code)
	}
	var body map[string]string
	if err := json.Unmarshal(w.Body.Bytes(), &body); err != nil {
		t.Fatalf("%v in %s", err, w.Body.String())
	}
	if body["error"] == "" || body["request_id"] != "req-404" {
		t.Fatalf("error envelope = %v, want error text and request_id req-404", body)
	}
}

// TestCatalogSLO: manifest objectives enable per-shard tracking, the
// /debug/slo rollup lists every shard (objective-less ones as
// disabled), and the scrape carries tenant/collection-labeled
// xcluster_slo_* series.
func TestCatalogSLO(t *testing.T) {
	withSLO := spec("acme", "mail")
	withSLO.SLOAvailability = 0.999
	withSLO.SLOLatencyMS = 5000
	c := newTestCatalog(t, Config{
		DefaultKey:       Key{Tenant: "acme", Collection: "docs"},
		UnlabeledDefault: true,
	},
		spec("acme", "docs"),
		withSLO,
	)
	h := c.Handler()
	postJSON(t, h, "/estimate", `{"tenant":"acme","collection":"mail","queries":["//book"]}`, nil)

	w := getPath(t, h, "/debug/slo")
	if w.Code != http.StatusOK {
		t.Fatalf("slo status %d", w.Code)
	}
	var resp SLOAllResponse
	if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if len(resp.Shards) != 2 {
		t.Fatalf("shards = %d, want 2 (disabled ones listed too)", len(resp.Shards))
	}
	byKey := map[string]ShardSLO{}
	for _, s := range resp.Shards {
		byKey[s.Tenant+"/"+s.Collection] = s
	}
	if s := byKey["acme/docs"]; s.Enabled {
		t.Fatalf("objective-less shard reports enabled: %+v", s)
	}
	mail := byKey["acme/mail"]
	if !mail.Enabled || mail.AvailabilityObjective != 0.999 || mail.LatencyObjective != "5s" {
		t.Fatalf("mail SLO = %+v, want manifest objectives", mail)
	}
	if len(mail.Windows) != 2 || mail.Windows[0].Total != 1 {
		t.Fatalf("mail windows = %+v, want the one request counted", mail.Windows)
	}

	w = getPath(t, h, "/metrics")
	body := w.Body.String()
	for _, want := range []string{
		`xcluster_slo_availability_objective{tenant="acme",collection="mail"} 0.999`,
		`xcluster_slo_window_requests{tenant="acme",collection="mail",window="5m"} 1`,
		`xcluster_slo_burn_rate{tenant="acme",collection="mail",slo="availability",window="5m"} 0`,
	} {
		if !strings.Contains(body, want) {
			t.Errorf("metrics missing %q", want)
		}
	}
	// The objective-less shard emits no SLO series at all.
	if strings.Contains(body, `xcluster_slo_availability_objective{tenant="acme",collection="docs"}`) {
		t.Error("objective-less shard leaked SLO series into the scrape")
	}
	// Runtime telemetry is process-global: present once, unlabeled.
	if !strings.Contains(body, "xcluster_go_goroutines ") {
		t.Error("metrics missing unlabeled xcluster_go_goroutines")
	}
	if strings.Contains(body, `xcluster_go_goroutines{`) {
		t.Error("runtime series acquired shard labels; they must stay process-global")
	}
}

// TestManifestSLOValidation: bad SLO fields are rejected at parse time.
func TestManifestSLOValidation(t *testing.T) {
	bad := []string{
		`{"shards":[{"tenant":"a","collection":"b","synopsis":"s","slo_availability":1.5}]}`,
		`{"shards":[{"tenant":"a","collection":"b","synopsis":"s","slo_latency_ms":-10}]}`,
		`{"shards":[{"tenant":"a","collection":"b","synopsis":"s","slo_latency_target":0.9}]}`,
	}
	for _, m := range bad {
		if _, err := ParseManifest([]byte(m)); err == nil {
			t.Errorf("manifest %s parsed, want SLO validation error", m)
		}
	}
	good := `{"shards":[{"tenant":"a","collection":"b","synopsis":"s","slo_availability":0.99,"slo_latency_ms":250,"slo_latency_target":0.95}]}`
	man, err := ParseManifest([]byte(good))
	if err != nil {
		t.Fatalf("valid SLO manifest rejected: %v", err)
	}
	cfg := man.Shards[0].SLO()
	if !cfg.Enabled() || cfg.Availability != 0.99 || cfg.LatencyTarget != 0.95 {
		t.Fatalf("parsed SLO config = %+v", cfg)
	}
}

// TestCatalogWorkload: the merged GET /debug/workload lists every
// shard's profile with tenant/collection labels, the export answers
// for the addressed shard, and workload series reach the merged scrape
// labeled.
func TestCatalogWorkload(t *testing.T) {
	c, h := httpFixture(t)
	_ = c
	postJSON(t, h, "/estimate", `{"tenant":"acme","collection":"docs","queries":["//book","//book[year>1990]"]}`, nil)
	postJSON(t, h, "/estimate", `{"tenant":"acme","collection":"mail","queries":["//book/title"]}`, nil)

	w := getPath(t, h, "/debug/workload")
	if w.Code != http.StatusOK {
		t.Fatalf("workload status %d", w.Code)
	}
	var resp WorkloadAllResponse
	if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if len(resp.Shards) != 3 {
		t.Fatalf("shards = %d, want 3", len(resp.Shards))
	}
	byKey := map[string]ShardWorkload{}
	for _, s := range resp.Shards {
		byKey[s.Tenant+"/"+s.Collection] = s
	}
	docs := byKey["acme/docs"]
	if !docs.Enabled || docs.TotalRequests != 2 || len(docs.Shapes) != 2 {
		t.Fatalf("acme/docs workload = enabled=%v total=%d shapes=%d, want 2 requests / 2 shapes",
			docs.Enabled, docs.TotalRequests, len(docs.Shapes))
	}
	if docs.Coverage.TotalBudgetBytes == 0 || len(docs.Coverage.Rows) == 0 {
		t.Fatalf("acme/docs coverage = %+v, want populated", docs.Coverage)
	}
	if mail := byKey["acme/mail"]; mail.TotalRequests != 1 {
		t.Fatalf("acme/mail total = %d, want 1", mail.TotalRequests)
	}
	if idle := byKey["globex/docs"]; !idle.Enabled || idle.TotalRequests != 0 {
		t.Fatalf("globex/docs = enabled=%v total=%d, want enabled idle shard", idle.Enabled, idle.TotalRequests)
	}

	// ?limit caps each shard's shape list.
	w = getPath(t, h, "/debug/workload?limit=1")
	var capped WorkloadAllResponse
	if err := json.Unmarshal(w.Body.Bytes(), &capped); err != nil {
		t.Fatal(err)
	}
	for _, s := range capped.Shards {
		if len(s.Shapes) > 1 {
			t.Fatalf("%s/%s shapes = %d after limit=1", s.Tenant, s.Collection, len(s.Shapes))
		}
	}
	if w = getPath(t, h, "/debug/workload?limit=x"); w.Code != http.StatusBadRequest {
		t.Fatalf("bad limit status = %d, want 400", w.Code)
	}

	// The export endpoint answers per shard and yields the addressed
	// shard's artifact.
	w = getPath(t, h, "/admin/workload/export?tenant=acme&collection=docs")
	if w.Code != http.StatusOK {
		t.Fatalf("export status %d: %s", w.Code, w.Body.String())
	}
	exported, err := profile.Parse(w.Body.Bytes())
	if err != nil {
		t.Fatalf("addressed export does not parse: %v", err)
	}
	if exported.TotalRequests != 2 {
		t.Fatalf("exported total = %d, want acme/docs's 2", exported.TotalRequests)
	}

	// Workload series arrive in the merged scrape with shard labels;
	// the default shard (UnlabeledDefault) scrapes unlabeled, so a
	// converted single-tenant deployment's dashboards keep working.
	body := getPath(t, h, "/metrics").Body.String()
	for _, want := range []string{
		`xcluster_workload_requests_total{class="struct"} 1`,
		`xcluster_workload_requests_total{class="range"} 1`,
		`xcluster_workload_requests_total{tenant="acme",collection="mail",class="struct"} 1`,
		`xcluster_workload_shapes_tracked 2`,
		`xcluster_workload_shapes_tracked{tenant="acme",collection="mail"} 1`,
	} {
		if !strings.Contains(body, want) {
			t.Errorf("metrics missing %q", want)
		}
	}
}
