package service_test

import (
	"context"
	"encoding/json"
	"math"
	"net/http"
	"strings"
	"testing"
	"time"

	"xcluster/internal/accuracy"
	"xcluster/internal/query"
	"xcluster/internal/service"
	"xcluster/internal/workload"
)

// TestShadowDifferential is the tentpole acceptance check: with
// shadow-rate 1.0 over the test workload, the per-class average
// relative errors reported by GET /debug/accuracy must match
// workload.AvgRelError computed offline on the same query set — the
// online monitor and the offline harness share one metric.
func TestShadowDifferential(t *testing.T) {
	tree := service.TestTree(t)
	svc, srv := serve(t,
		service.WithDocument(tree),
		service.WithShadowSampling(1.0, 2, 10*time.Second),
	)
	if svc.Shadow() == nil {
		t.Fatal("shadow sampler not created")
	}

	qs := service.ParseWorkload(t)
	for i, q := range qs {
		if _, err := svc.Estimate(context.Background(), q); err != nil {
			t.Fatalf("query %d (%s): %v", i, service.TestWorkload[i], err)
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := svc.Shadow().Drain(ctx); err != nil {
		t.Fatalf("Drain: %v", err)
	}
	st := svc.Shadow().Stats()
	if st.Sampled != uint64(len(qs)) || st.Observed != uint64(len(qs)) {
		t.Fatalf("shadow stats = %+v, want all %d queries observed at rate 1", st, len(qs))
	}

	resp, raw := getBody(t, srv, "/debug/accuracy")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d, body %s", resp.StatusCode, raw)
	}
	var ar service.AccuracyResponse
	if err := json.Unmarshal(raw, &ar); err != nil {
		t.Fatalf("%v in %s", err, raw)
	}
	if ar.Shadow == nil || ar.Shadow.Observed != uint64(len(qs)) {
		t.Fatalf("accuracy response shadow = %+v", ar.Shadow)
	}
	if ar.Samples != uint64(len(qs)) {
		t.Fatalf("samples = %d, want %d", ar.Samples, len(qs))
	}

	// The shadow counters mirror into /metrics at scrape time.
	_, mraw := getBody(t, srv, "/metrics")
	mtext := string(mraw)
	for _, want := range []string{
		"# HELP xcluster_shadow_sampled_total Estimates selected for shadow exact evaluation.",
		"xcluster_shadow_sampled_total 10",
		"xcluster_shadow_observed_total 10",
		`xcluster_shadow_dropped_total{reason="deadline"} 0`,
		`xcluster_shadow_dropped_total{reason="queue_full"} 0`,
	} {
		if !strings.Contains(mtext, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}

	// Offline reference: exact truths from the document, estimates from
	// the same synopsis, grouped by the same classifier, averaged by the
	// harness metric with the monitor's sanity bound.
	ev := query.NewEvaluator(tree)
	sanity := svc.Monitor().SanityBound()
	byClass := make(map[string][]workload.Query)
	for _, q := range qs {
		byClass[accuracy.Classify(q).String()] = append(byClass[accuracy.Classify(q).String()],
			workload.Query{Q: q, True: ev.Selectivity(q)})
	}
	est := func(q *query.Query) float64 {
		v, err := svc.Estimate(context.Background(), q)
		if err != nil {
			t.Fatalf("estimate %s: %v", q, err)
		}
		return v
	}
	seen := 0
	for _, cr := range ar.Classes {
		ref, ok := byClass[cr.Class]
		if !ok {
			t.Errorf("monitor reports class %q the offline grouping lacks", cr.Class)
			continue
		}
		seen++
		want := workload.AvgRelError(ref, est, sanity)
		if math.Abs(cr.AvgRelError-want) > 1e-9 {
			t.Errorf("class %s: online avg %g, offline workload.AvgRelError %g",
				cr.Class, cr.AvgRelError, want)
		}
		if cr.Samples != uint64(len(ref)) {
			t.Errorf("class %s: %d samples, offline set has %d", cr.Class, cr.Samples, len(ref))
		}
	}
	if seen != len(byClass) {
		t.Errorf("monitor reports %d classes, offline grouping has %d", seen, len(byClass))
	}
}

// TestShadowDeadlineNeverFailsClient: a ground-truth source slower than
// the shadow deadline only increments the drop counter; every client
// estimate still succeeds, untouched.
func TestShadowDeadlineNeverFailsClient(t *testing.T) {
	syn := service.NewTestSynopsis(t)
	blocking := func(ctx context.Context, q *query.Query) (float64, error) {
		<-ctx.Done() // the evaluator honors ctx, then reports why it stopped
		return 0, ctx.Err()
	}
	svc := service.New(syn,
		service.WithTruthFunc(blocking),
		service.WithShadowSampling(1.0, 1, 5*time.Millisecond),
	)
	defer svc.Close()

	qs := service.ParseWorkload(t)[:3]
	want := service.SequentialAnswers(syn, qs)
	for i, q := range qs {
		got, err := svc.Estimate(context.Background(), q)
		if err != nil {
			t.Fatalf("client estimate %d failed under a stuck shadow evaluator: %v", i, err)
		}
		if got != want[i] {
			t.Fatalf("estimate %d = %v, want %v", i, got, want[i])
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := svc.Shadow().Drain(ctx); err != nil {
		t.Fatalf("Drain: %v", err)
	}
	st := svc.Shadow().Stats()
	if st.DeadlineDrops != uint64(len(qs)) || st.Observed != 0 {
		t.Fatalf("shadow stats = %+v, want every sample a deadline drop", st)
	}
	if rep := svc.Monitor().Report(); rep.Samples != 0 {
		t.Fatalf("dropped samples reached the monitor: %+v", rep)
	}
	if s := svc.Stats(); s.Failed != 0 || s.Served != uint64(len(qs)) {
		t.Fatalf("service stats = %+v, want all served and none failed", s)
	}
}

// TestHTTPFeedback exercises POST /feedback: pushed ground truth feeds
// the monitor, per-entry failures stay inline.
func TestHTTPFeedback(t *testing.T) {
	svc, srv := serve(t)

	body := `{"feedback":[
		{"query":"//book[year>1990]","true":60},
		{"query":"//book[","true":1},
		{"query":"//book/title","true":120}
	]}`
	resp, raw := postJSON(t, srv, "/feedback", body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d, body %s", resp.StatusCode, raw)
	}
	var fr service.FeedbackResponse
	if err := json.Unmarshal(raw, &fr); err != nil {
		t.Fatalf("%v in %s", err, raw)
	}
	if fr.Accepted != 2 || len(fr.Results) != 3 {
		t.Fatalf("accepted = %d, results = %d, want 2 of 3", fr.Accepted, len(fr.Results))
	}
	if fr.Results[0].Class != "range" || fr.Results[2].Class != "struct" {
		t.Errorf("classes = %q, %q, want range and struct",
			fr.Results[0].Class, fr.Results[2].Class)
	}
	if fr.Results[1].Error == "" {
		t.Errorf("malformed query produced no inline error: %+v", fr.Results[1])
	}
	if fr.Results[0].RelError < 0 {
		t.Errorf("rel_error = %g, want >= 0", fr.Results[0].RelError)
	}

	rep := svc.Monitor().Report()
	if rep.Samples != 2 {
		t.Fatalf("monitor samples = %d, want the 2 accepted entries", rep.Samples)
	}

	// Whole-request failures use status codes.
	if resp, _ := postJSON(t, srv, "/feedback", `{"feedback":[]}`); resp.StatusCode != http.StatusBadRequest {
		t.Errorf("empty feedback status = %d, want 400", resp.StatusCode)
	}
	if resp, _ := postJSON(t, srv, "/feedback", `{nonsense`); resp.StatusCode != http.StatusBadRequest {
		t.Errorf("malformed body status = %d, want 400", resp.StatusCode)
	}
}

// TestHTTPSynopsisDebug: the introspection endpoint's budget split must
// be internally consistent with /synopsis totals, the cluster list
// sorted by cardinality, and ?limit honored.
func TestHTTPSynopsisDebug(t *testing.T) {
	svc, srv := serve(t)
	syn := svc.Synopsis()

	resp, raw := getBody(t, srv, "/debug/synopsis")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	var sd service.SynopsisDebugResponse
	if err := json.Unmarshal(raw, &sd); err != nil {
		t.Fatalf("%v in %s", err, raw)
	}
	if sd.Clusters != syn.NumNodes() || sd.Edges != syn.NumEdges() {
		t.Fatalf("clusters/edges = %d/%d, synopsis has %d/%d",
			sd.Clusters, sd.Edges, syn.NumNodes(), syn.NumEdges())
	}
	if got := sd.Budget.NodeBytes + sd.Budget.EdgeBytes; got != sd.StructBytes {
		t.Errorf("node+edge bytes = %d, struct bytes = %d", got, sd.StructBytes)
	}
	if got := sd.Budget.HistogramBytes + sd.Budget.PSTBytes + sd.Budget.TermHistBytes; got != sd.ValueBytes {
		t.Errorf("summary byte split sums to %d, value bytes = %d", got, sd.ValueBytes)
	}
	if sd.TotalBytes != sd.StructBytes+sd.ValueBytes {
		t.Errorf("total = %d, want %d", sd.TotalBytes, sd.StructBytes+sd.ValueBytes)
	}
	if len(sd.ClusterDetail) != syn.NumNodes() {
		t.Fatalf("detail rows = %d, want %d", len(sd.ClusterDetail), syn.NumNodes())
	}
	withSummary := 0
	for i, row := range sd.ClusterDetail {
		if row.Label == "" || row.Count <= 0 {
			t.Errorf("row %d = %+v, want a label and positive count", i, row)
		}
		if i > 0 && row.Count > sd.ClusterDetail[i-1].Count {
			t.Errorf("rows not sorted by descending count at %d: %g > %g",
				i, row.Count, sd.ClusterDetail[i-1].Count)
		}
		if row.Summary != "" {
			withSummary++
			switch row.Summary {
			case "histogram", "pst", "termhist":
			default:
				t.Errorf("row %d summary = %q", i, row.Summary)
			}
			if row.SummaryBytes <= 0 {
				t.Errorf("row %d has a summary but %d bytes", i, row.SummaryBytes)
			}
		}
	}
	if withSummary != syn.NumValueNodes() {
		t.Errorf("%d rows carry summaries, synopsis has %d value nodes", withSummary, syn.NumValueNodes())
	}

	// ?limit caps the detail list without touching the totals.
	_, raw = getBody(t, srv, "/debug/synopsis?limit=2")
	var capped service.SynopsisDebugResponse
	if err := json.Unmarshal(raw, &capped); err != nil {
		t.Fatal(err)
	}
	if len(capped.ClusterDetail) != 2 || capped.Clusters != sd.Clusters {
		t.Errorf("limit=2: rows = %d, clusters = %d", len(capped.ClusterDetail), capped.Clusters)
	}
	if resp, _ := getBody(t, srv, "/debug/synopsis?limit=bogus"); resp.StatusCode != http.StatusBadRequest {
		t.Errorf("bad limit status = %d, want 400", resp.StatusCode)
	}
}

// TestMonitorAlwaysAvailable: without shadow sampling or a document the
// monitor still exists, so /feedback and /debug/accuracy work and the
// accuracy series are pre-registered in /metrics.
func TestMonitorAlwaysAvailable(t *testing.T) {
	svc, srv := serve(t)
	if svc.Monitor() == nil {
		t.Fatal("Monitor() = nil on a default service")
	}
	if svc.Shadow() != nil {
		t.Fatal("Shadow() != nil without shadow sampling")
	}
	svc.Close() // must be safe with no sampler

	resp, raw := getBody(t, srv, "/debug/accuracy")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	var ar service.AccuracyResponse
	if err := json.Unmarshal(raw, &ar); err != nil {
		t.Fatalf("%v in %s", err, raw)
	}
	if ar.Samples != 0 || ar.Shadow != nil {
		t.Errorf("idle accuracy report = %+v", ar)
	}
	if ar.SanityBound != accuracy.DefaultSanityBound {
		t.Errorf("sanity bound = %g, want the paper's %d", ar.SanityBound, accuracy.DefaultSanityBound)
	}
}
