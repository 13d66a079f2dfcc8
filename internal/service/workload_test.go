package service_test

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"
	"time"

	"xcluster/internal/catalog"
	"xcluster/internal/profile"
	"xcluster/internal/service"
)

// getWorkload reads the one shard's profile from the catalog's
// GET /debug/workload rollup.
func getWorkload(t *testing.T, srv *httptest.Server, path string) (service.WorkloadResponse, *http.Response) {
	t.Helper()
	var all catalog.WorkloadAllResponse
	resp := getJSON(t, srv, path, &all)
	if len(all.Shards) != 1 {
		t.Fatalf("GET %s: shards = %d, want the one shard", path, len(all.Shards))
	}
	return all.Shards[0].WorkloadResponse, resp
}

// driveWorkload runs every test query through the service a few times.
func driveWorkload(t *testing.T, svc *service.Service, rounds int) {
	t.Helper()
	qs := service.ParseWorkload(t)
	ctx := context.Background()
	for r := 0; r < rounds; r++ {
		for _, q := range qs {
			if _, err := svc.Estimate(ctx, q); err != nil {
				t.Fatalf("estimate %s: %v", q, err)
			}
		}
	}
}

func TestWorkloadEndpointReportsTraffic(t *testing.T) {
	svc, srv := serve(t)
	driveWorkload(t, svc, 3)

	resp, got := getWorkload(t, srv, "/debug/workload")
	if got.StatusCode != http.StatusOK {
		t.Fatalf("GET /debug/workload = %d", got.StatusCode)
	}
	if !resp.Enabled {
		t.Fatal("profiling not enabled by default")
	}
	if want := uint64(3 * len(service.TestWorkload)); resp.TotalRequests != want {
		t.Fatalf("total requests = %d, want %d", resp.TotalRequests, want)
	}
	// The 10 test queries all have distinct shapes; every row carries a
	// join ID.
	if len(resp.Shapes) != len(service.TestWorkload) {
		t.Fatalf("shapes = %d, want %d", len(resp.Shapes), len(service.TestWorkload))
	}
	for _, sh := range resp.Shapes {
		if len(sh.ID) != 16 || sh.Count == 0 {
			t.Fatalf("shape row = %+v", sh)
		}
	}
	// Coverage joins the served synopsis's budget: total bytes match
	// /debug/synopsis and every class has a row.
	var syn service.SynopsisDebugResponse
	getJSON(t, srv, "/debug/synopsis", &syn)
	wantTotal := syn.Budget.NodeBytes + syn.Budget.EdgeBytes +
		syn.Budget.HistogramBytes + syn.Budget.PSTBytes + syn.Budget.TermHistBytes
	if resp.Coverage.TotalBudgetBytes != wantTotal {
		t.Fatalf("coverage budget = %d, want %d", resp.Coverage.TotalBudgetBytes, wantTotal)
	}
	if len(resp.Coverage.Rows) != len(resp.Classes) {
		t.Fatalf("coverage rows = %d, classes = %d", len(resp.Coverage.Rows), len(resp.Classes))
	}

	// ?limit caps the shape list; a bad limit is a 400.
	capped, _ := getWorkload(t, srv, "/debug/workload?limit=2")
	if len(capped.Shapes) != 2 {
		t.Fatalf("limited shapes = %d, want 2", len(capped.Shapes))
	}
	if got, _ := getBody(t, srv, "/debug/workload?limit=-1"); got.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad limit status = %d, want 400", got.StatusCode)
	}
}

func TestWorkloadExportRoundTrip(t *testing.T) {
	svc, srv := serve(t)
	driveWorkload(t, svc, 2)

	resp, body := getBody(t, srv, "/admin/workload/export")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("export = %d", resp.StatusCode)
	}
	// The exported bytes are the canonical artifact: they decode and
	// re-encode byte-identically.
	var parsed profile.Profile
	if err := json.Unmarshal(body, &parsed); err != nil {
		t.Fatalf("exported artifact does not decode: %v", err)
	}
	if parsed.Version != profile.ProfileVersion || parsed.Fingerprint == "" {
		t.Fatalf("artifact identity = v%d %q", parsed.Version, parsed.Fingerprint)
	}
	if want := uint64(2 * len(service.TestWorkload)); parsed.TotalRequests != want {
		t.Fatalf("exported requests = %d, want %d", parsed.TotalRequests, want)
	}
	again, err := profile.Encode(parsed)
	if err != nil {
		t.Fatal(err)
	}
	if string(again) != string(body) {
		t.Fatal("exported bytes are not Encode's canonical form")
	}
	// The artifact snapshot matches a fresh in-process profile of the
	// same (undisturbed) profiler: export is a faithful capture.
	direct, err := svc.WorkloadProfile()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(direct.Snapshot.Classes, parsed.Snapshot.Classes) {
		t.Fatalf("exported classes diverge from live profile:\n got %+v\nwant %+v",
			parsed.Snapshot.Classes, direct.Snapshot.Classes)
	}
}

func TestWorkloadDisabled(t *testing.T) {
	svc, srv := serve(t, service.WithWorkloadProfile(-1))
	driveWorkload(t, svc, 1)

	if resp, got := getWorkload(t, srv, "/debug/workload"); got.StatusCode != http.StatusOK || resp.Enabled {
		t.Fatalf("disabled workload = %d enabled=%v, want 200/false", got.StatusCode, resp.Enabled)
	}
	if got := getJSON(t, srv, "/admin/workload/export", nil); got.StatusCode != http.StatusPreconditionFailed {
		t.Fatalf("disabled export status = %d, want 412", got.StatusCode)
	}
	// No xcluster_workload_* series when disabled.
	if _, metrics := getBody(t, srv, "/metrics"); strings.Contains(string(metrics), "xcluster_workload_") {
		t.Fatal("disabled profiler still exports xcluster_workload_* series")
	}
}

func TestWorkloadMetricsExported(t *testing.T) {
	svc, srv := serve(t)
	driveWorkload(t, svc, 1)

	_, body := getBody(t, srv, "/metrics")
	text := string(body)
	for _, line := range []string{
		"# HELP xcluster_workload_requests_total",
		"# TYPE xcluster_workload_requests_total counter",
		`xcluster_workload_requests_total{class="struct"} 2`,
		`xcluster_workload_requests_total{class="range"} 6`,
		`xcluster_workload_requests_total{class="substring"} 1`,
		`xcluster_workload_requests_total{class="ftcontains"} 1`,
		`xcluster_workload_requests_total{class="ftsim"} 0`,
		"xcluster_workload_shapes_tracked 10",
		"xcluster_workload_shape_evictions_total 0",
	} {
		if !strings.Contains(text, line) {
			t.Errorf("missing %q in /metrics", line)
		}
	}
}

func TestSlowLogCarriesShapeID(t *testing.T) {
	// Threshold 1ns: every estimate is slow, so log rows and workload
	// shapes must join on shape_id.
	svc, srv := serve(t, service.WithSlowQueryLog(time.Nanosecond, 16))
	driveWorkload(t, svc, 1)

	var slow service.SlowLogResponse
	getJSON(t, srv, "/debug/slowlog", &slow)
	if len(slow.Entries) == 0 {
		t.Fatal("no slow-log entries at 1ns threshold")
	}
	work, _ := getWorkload(t, srv, "/debug/workload")
	shapes := make(map[string]string)
	for _, sh := range work.Shapes {
		shapes[sh.ID] = sh.Shape
	}
	for _, e := range slow.Entries {
		if e.ShapeID == "" {
			t.Fatalf("slow-log entry %q has no shape_id", e.Query)
		}
		if _, ok := shapes[e.ShapeID]; !ok {
			t.Fatalf("slow-log shape_id %q (query %q) not in /debug/workload", e.ShapeID, e.Query)
		}
	}
}

func TestRebuildStampsWorkloadFingerprint(t *testing.T) {
	svc := service.New(service.NewTestSynopsis(t), service.WithDocument(service.TestTree(t)))
	defer svc.Close()
	driveWorkload(t, svc, 1)
	wantFP := svc.Workload().Fingerprint(time.Now())
	if wantFP == "" {
		t.Fatal("live profiler has empty fingerprint")
	}
	ev, err := svc.Rebuild(context.Background(), service.RebuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if ev.WorkloadFingerprint != wantFP {
		t.Fatalf("swap fingerprint = %q, want %q", ev.WorkloadFingerprint, wantFP)
	}

	// With profiling disabled the field stays empty (and absent in JSON).
	off := service.New(service.NewTestSynopsis(t), service.WithDocument(service.TestTree(t)), service.WithWorkloadProfile(-1))
	defer off.Close()
	ev, err = off.Rebuild(context.Background(), service.RebuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if ev.WorkloadFingerprint != "" {
		t.Fatalf("disabled-profiler swap fingerprint = %q, want empty", ev.WorkloadFingerprint)
	}
}
