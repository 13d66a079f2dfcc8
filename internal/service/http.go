package service

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"sort"
	"sync"
	"time"

	"xcluster/internal/accuracy"
	"xcluster/internal/core"
	"xcluster/internal/obs"
	"xcluster/internal/profile"
	"xcluster/internal/query"
	"xcluster/internal/xmltree"
)

// This file holds the service's side of the HTTP contract: the wire
// types of every per-shard endpoint, the error-to-status mapping, and
// the JSON writer. The routes themselves belong to the catalog
// (internal/catalog), which serves every endpoint over the service's
// Go API.

// MaxRequestBytes bounds the size of every JSON request body.
const MaxRequestBytes = 1 << 20

// Catalog addressing errors. The sentinels live here, next to their
// HTTP mapping (ErrorStatus), so every endpoint reports unknown-resource
// and draining failures with one consistent JSON body instead of
// generic 500s. Test with errors.Is; re-exported at the repository
// root.
var (
	// ErrUnknownTenant reports a request addressing a tenant the
	// catalog has no shards for (HTTP 404).
	ErrUnknownTenant = errors.New("service: unknown tenant")
	// ErrUnknownCollection reports a request addressing a collection
	// the tenant does not have (HTTP 404).
	ErrUnknownCollection = errors.New("service: unknown collection")
	// ErrShardDraining reports a request addressing a shard that is
	// being detached: in-flight work finishes, new work is refused
	// (HTTP 503).
	ErrShardDraining = errors.New("service: shard draining")
	// ErrNoProfiler reports a workload-profile operation on a service
	// whose profiler was disabled (HTTP 412).
	ErrNoProfiler = errors.New("service: workload profiling disabled (WithWorkloadProfile)")
)

// ErrorStatus maps a service or catalog error to its HTTP status:
// unknown tenants and collections are 404, draining shards and expired
// deadlines 503, rebuild conflicts 409, missing preconditions 412, and
// anything else 500.
func ErrorStatus(err error) int {
	switch {
	case errors.Is(err, ErrUnknownTenant), errors.Is(err, ErrUnknownCollection):
		return http.StatusNotFound
	case errors.Is(err, ErrShardDraining),
		errors.Is(err, context.DeadlineExceeded),
		errors.Is(err, context.Canceled):
		return http.StatusServiceUnavailable
	case errors.Is(err, ErrRebuildInProgress):
		return http.StatusConflict
	case errors.Is(err, ErrNoSource), errors.Is(err, ErrNoDocument), errors.Is(err, ErrNoProfiler):
		return http.StatusPreconditionFailed
	default:
		return http.StatusInternalServerError
	}
}

// WriteError writes err as the standard JSON error body with the
// ErrorStatus status code.
func WriteError(w http.ResponseWriter, err error) {
	WriteErrorMsg(w, ErrorStatus(err), err.Error())
}

// WriteErrorMsg writes an error envelope with an explicit status. The
// correlation middleware (obs.TraceHandler) sets the X-Request-ID
// response header before the handler runs, so the envelope echoes the
// request ID without threading it through every call site. (encoding/json
// renders map keys sorted, so the body stays deterministic.)
func WriteErrorMsg(w http.ResponseWriter, status int, msg string) {
	body := map[string]string{"error": msg}
	if id := w.Header().Get("X-Request-ID"); id != "" {
		body["request_id"] = id
	}
	WriteJSON(w, status, body)
}

// WriteJSON writes v as an indented JSON response body with the given
// status, the rendering every endpoint uses. The body is encoded before
// anything is written, so a value that cannot be encoded (a NaN or ±Inf
// float) is answered with the 500 error envelope instead of a
// truncated body under the intended status.
func WriteJSON(w http.ResponseWriter, status int, v any) {
	je := jsonEncoders.Get().(*jsonEncoder)
	je.buf.Reset()
	if err := je.enc.Encode(v); err != nil {
		jsonEncoders.Put(je)
		WriteErrorMsg(w, http.StatusInternalServerError, "service: encode response: "+err.Error())
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	w.Write(je.buf.Bytes()) //nolint:errcheck // headers are out; nothing to do
	if je.buf.Cap() <= maxPooledJSON {
		jsonEncoders.Put(je)
	}
}

// jsonEncoder is one pooled response encoder: a buffer and the
// indenting encoder that writes into it.
type jsonEncoder struct {
	buf bytes.Buffer
	enc *json.Encoder
}

// jsonEncoders recycles response encoders across requests.
var jsonEncoders = sync.Pool{New: func() any {
	je := new(jsonEncoder)
	je.enc = json.NewEncoder(&je.buf)
	je.enc.SetIndent("", "  ")
	return je
}}

// maxPooledJSON is the largest buffer WriteJSON returns to the pool, so
// one large response (a /debug/traces dump) does not pin its memory.
const maxPooledJSON = 64 << 10

// EstimateRequest is the body of POST /estimate.
type EstimateRequest struct {
	// Queries are twig queries in the XPath fragment ParseQuery accepts.
	Queries []string `json:"queries"`
	// Explain asks for the top synopsis embeddings of each query.
	Explain bool `json:"explain,omitempty"`
	// Plan asks for each query's compiled plan (the canonicalize →
	// compile → execute pipeline's executable form, rendered).
	Plan bool `json:"plan,omitempty"`
	// Trace asks for each query's per-stage pipeline spans (parse,
	// canonicalize, cache lookups, compile, execute).
	Trace bool `json:"trace,omitempty"`
}

// TraceSpan is one timed pipeline stage of an answered query.
// OffsetNanos places the stage's start relative to the start of the
// estimate (omitted when zero; the parse span runs before the
// estimate's timeline starts).
type TraceSpan struct {
	Stage       string `json:"stage"`
	OffsetNanos int64  `json:"offset_nanos,omitempty"`
	Nanos       int64  `json:"nanos"`
}

// TraceInfo is the inline pipeline trace of one answered query. The
// span durations sum to at most TotalNanos (inter-stage bookkeeping is
// not attributed to any stage).
type TraceInfo struct {
	TotalNanos     int64       `json:"total_nanos"`
	ResultCacheHit bool        `json:"result_cache_hit"`
	PlanCacheHit   bool        `json:"plan_cache_hit"`
	Subproblems    int         `json:"subproblems,omitempty"`
	Spans          []TraceSpan `json:"spans"`
}

// EstimateResult is one entry of an EstimateResponse, positional with the
// request's Queries. Exactly one of Selectivity and Error is set; parse
// failures additionally carry the byte offset of the failure.
type EstimateResult struct {
	Query       string     `json:"query"`
	Selectivity *float64   `json:"selectivity,omitempty"`
	Error       string     `json:"error,omitempty"`
	Offset      *int       `json:"offset,omitempty"`
	Explain     []string   `json:"explain,omitempty"`
	Plan        string     `json:"plan,omitempty"`
	Trace       *TraceInfo `json:"trace,omitempty"`
}

// EstimateResponse is the body of a successful POST /estimate.
type EstimateResponse struct {
	Results []EstimateResult `json:"results"`
}

// StatsResponse is the body of GET /stats.
type StatsResponse struct {
	Served            uint64  `json:"served"`
	Failed            uint64  `json:"failed"`
	CacheHits         uint64  `json:"cache_hits"`
	CacheMisses       uint64  `json:"cache_misses"`
	CacheHitRate      float64 `json:"cache_hit_rate"`
	CacheLen          int     `json:"cache_len"`
	CacheCapacity     int     `json:"cache_capacity"`
	PlanCacheHits     uint64  `json:"plan_cache_hits"`
	PlanCacheMisses   uint64  `json:"plan_cache_misses"`
	PlanCacheHitRate  float64 `json:"plan_cache_hit_rate"`
	PlanCacheLen      int     `json:"plan_cache_len"`
	PlanCacheCapacity int     `json:"plan_cache_capacity"`
	P50               string  `json:"p50"`
	P95               string  `json:"p95"`
	P99               string  `json:"p99"`
	LatencySamples    int     `json:"latency_samples"`
	SlowQueries       uint64  `json:"slow_queries"`
	Uptime            string  `json:"uptime"`
}

// SynopsisResponse is the body of GET /synopsis: the size and composition
// of the served synopsis.
type SynopsisResponse struct {
	Nodes       int `json:"nodes"`
	ValueNodes  int `json:"value_nodes"`
	Edges       int `json:"edges"`
	StructBytes int `json:"struct_bytes"`
	ValueBytes  int `json:"value_bytes"`
	TotalBytes  int `json:"total_bytes"`
}

// SlowLogResponse is the body of GET /debug/slowlog.
type SlowLogResponse struct {
	// ThresholdNanos is the capture threshold (0: log disabled).
	ThresholdNanos int64 `json:"threshold_nanos"`
	// Total counts entries ever captured, including ones the ring has
	// since overwritten.
	Total uint64 `json:"total"`
	// Entries are the retained slow queries, most recent first (capped
	// by the request's ?limit=N).
	Entries []obs.SlowLogEntry `json:"entries"`
}

// FeedbackEntry is one pushed ground-truth observation: a query and
// the exact result size the deployment measured for it.
type FeedbackEntry struct {
	Query string  `json:"query"`
	True  float64 `json:"true"`
}

// FeedbackRequest is the body of POST /feedback, for deployments that
// do not keep the document resident: the query processor reports exact
// result sizes it observed, and the service pairs them with its own
// estimates to feed the accuracy monitor.
type FeedbackRequest struct {
	Feedback []FeedbackEntry `json:"feedback"`
}

// FeedbackResult is one entry of a FeedbackResponse, positional with
// the request. Exactly one of Class and Error is set.
type FeedbackResult struct {
	Query    string  `json:"query"`
	Class    string  `json:"class,omitempty"`
	Estimate float64 `json:"estimate,omitempty"`
	RelError float64 `json:"rel_error,omitempty"`
	Error    string  `json:"error,omitempty"`
}

// FeedbackResponse is the body of a successful POST /feedback.
type FeedbackResponse struct {
	Accepted int              `json:"accepted"`
	Results  []FeedbackResult `json:"results"`
}

// AccuracyResponse is the body of GET /debug/accuracy: the monitor's
// per-class error report plus, when shadow sampling is on, the
// sampler's counters.
type AccuracyResponse struct {
	accuracy.Report
	Shadow *accuracy.ShadowStats `json:"shadow,omitempty"`
}

// SynopsisCluster is one cluster row of GET /debug/synopsis.
type SynopsisCluster struct {
	ID    int    `json:"id"`
	Label string `json:"label"`
	Path  string `json:"path,omitempty"`
	// Count is the cluster cardinality |extent(u)|.
	Count float64 `json:"count"`
	// Children is the out-degree (distinct child clusters).
	Children int `json:"children"`
	// Summary and SummaryBytes describe the value summary ("histogram",
	// "pst", or "termhist"; absent on structure-only clusters).
	Summary      string `json:"summary,omitempty"`
	SummaryBytes int    `json:"summary_bytes,omitempty"`
}

// SynopsisBudget is the storage split of the served synopsis: the
// structural charge by component and the value charge by summary kind.
type SynopsisBudget struct {
	NodeBytes int `json:"node_bytes"`
	EdgeBytes int `json:"edge_bytes"`
	// HistogramBytes, PSTBytes and TermHistBytes split the value budget
	// across numeric histograms, pruned suffix trees, and end-biased
	// term histograms.
	HistogramBytes int `json:"histogram_bytes"`
	PSTBytes       int `json:"pst_bytes"`
	TermHistBytes  int `json:"termhist_bytes"`
}

// SynopsisVersion is the build-identity section of GET /debug/synopsis:
// the served generation's fingerprint plus the codec version this build
// writes.
type SynopsisVersion struct {
	// Generation is the build generation of the serving synopsis;
	// InstalledAt is when it went live in this process.
	Generation  uint64    `json:"generation"`
	InstalledAt time.Time `json:"installed_at"`
	// CodecVersion is the file format version WriteTo produces.
	CodecVersion int `json:"codec_version"`
	// DocHash fingerprints the source document (hex; empty for legacy
	// artifacts that carry no fingerprint).
	DocHash string `json:"doc_hash,omitempty"`
	// StructBudget/ValueBudget are the build byte budgets;
	// BuildOptions the non-default reference options.
	StructBudget int    `json:"struct_budget,omitempty"`
	ValueBudget  int    `json:"value_budget,omitempty"`
	BuildOptions string `json:"build_options,omitempty"`
	// BuiltAt and BuildNanos record when and how long the synopsis
	// build ran (zero for legacy artifacts).
	BuiltAt    time.Time `json:"built_at,omitzero"`
	BuildNanos int64     `json:"build_nanos,omitempty"`
}

// SynopsisDebugResponse is the body of GET /debug/synopsis: read-only
// introspection of where the budget went, so accuracy reports can be
// correlated with the synopsis's spending, plus the serving
// generation's build identity and the rebuilder's status.
type SynopsisDebugResponse struct {
	Clusters      int             `json:"clusters"`
	ValueClusters int             `json:"value_clusters"`
	Edges         int             `json:"edges"`
	StructBytes   int             `json:"struct_bytes"`
	ValueBytes    int             `json:"value_bytes"`
	TotalBytes    int             `json:"total_bytes"`
	Version       SynopsisVersion `json:"version"`
	Rebuild       RebuildStatus   `json:"rebuild"`
	Budget        SynopsisBudget  `json:"budget"`
	// ClusterDetail lists clusters by descending cardinality (capped by
	// the request's ?limit=N).
	ClusterDetail []SynopsisCluster `json:"cluster_detail"`
}

// RebuildRequest is the (optional) body of POST /admin/rebuild.
type RebuildRequest struct {
	// StructBudget and ValueBudget override the new synopsis's byte
	// budgets (nonpositive or absent: keep the current ones).
	StructBudget int `json:"struct_budget,omitempty"`
	ValueBudget  int `json:"value_budget,omitempty"`
	// Adaptive asks the workload-adaptive planner to re-split the
	// inherited total (ignored when explicit budgets are given; 412
	// when the workload profiler is disabled).
	Adaptive bool `json:"adaptive,omitempty"`
	// Async returns 202 immediately and rebuilds in the background;
	// poll GET /debug/synopsis for the outcome.
	Async bool `json:"async,omitempty"`
	// Reason is recorded in the swap event and logs.
	Reason string `json:"reason,omitempty"`
}

// explainLimit caps the embeddings returned per query when Explain is set.
const explainLimit = 5

// WorkloadResponse is the body of GET /debug/workload: the profiler's
// snapshot (shape top-K, class mix with pain scores) plus the synopsis
// coverage report comparing the observed class mix against the served
// synopsis's budget byte split. Enabled is false (and everything else
// zero) when profiling was disabled.
type WorkloadResponse struct {
	Enabled bool `json:"enabled"`
	profile.Snapshot
	Coverage profile.CoverageReport `json:"coverage"`
}

// WorkloadReport builds the GET /debug/workload body: snapshot, pain
// join, and coverage against the serving generation's budget split.
func (s *Service) WorkloadReport() WorkloadResponse {
	if s.prof == nil {
		return WorkloadResponse{}
	}
	snap := s.prof.Snapshot(time.Now())
	snap.Join(s.mon.Report())
	return WorkloadResponse{
		Enabled:  true,
		Snapshot: snap,
		Coverage: profile.Coverage(snap.Classes, actualSplit(s.cur.Load().syn)),
	}
}

// RunEstimateRequest answers one EstimateRequest end to end: it parses
// each query (per-query failures land inline in the results), runs the
// parseable ones as one batch, and renders traces, explanations, and
// plans as requested — all against one pinned synopsis generation, so
// an explanation always describes the synopsis that produced its
// estimate, even when a swap lands mid-request. It is the
// body of POST /estimate for one shard: the catalog routes the request
// here and writes the response with WriteJSON. A non-nil error is a
// whole-request failure (map it with ErrorStatus).
func (s *Service) RunEstimateRequest(ctx context.Context, req EstimateRequest) (EstimateResponse, error) {
	results := make([]EstimateResult, len(req.Queries))
	var qs []*query.Query      // parsed queries, in request order
	var pos []int              // pos[j] = results index of qs[j]
	var parsed []time.Duration // parsed[j] = parse time of qs[j]
	for i, qstr := range req.Queries {
		results[i].Query = qstr
		t0 := time.Now()
		q, err := query.Parse(qstr)
		d := time.Since(t0)
		s.reg.Observe(core.MetricPipelineStageSeconds, `stage="`+core.StageParse+`"`, d.Seconds())
		if err != nil {
			results[i].Error = err.Error()
			var perr *query.ParseError
			if errors.As(err, &perr) {
				off := perr.Offset
				results[i].Offset = &off
			}
			continue
		}
		qs = append(qs, q)
		pos = append(pos, i)
		parsed = append(parsed, d)
	}

	sl := s.cur.Load()
	sels, traces, err := s.estimateBatch(ctx, sl, qs)
	if err != nil {
		return EstimateResponse{}, err
	}
	for j, i := range pos {
		v := sels[j]
		results[i].Selectivity = &v
		if req.Trace && traces[j] != nil {
			results[i].Trace = renderTrace(parsed[j], traces[j])
		}
		if req.Explain {
			results[i].Explain = sl.explain(qs[j], explainLimit)
		}
		if req.Plan {
			plan, err := sl.explainPlan(qs[j])
			if err != nil {
				results[i].Error = err.Error()
				continue
			}
			results[i].Plan = plan
		}
	}
	return EstimateResponse{Results: results}, nil
}

// renderTrace combines the HTTP layer's parse span with the core
// pipeline trace into the wire form. The reported total covers parse
// through execute, so the spans sum to at most the total.
func renderTrace(parse time.Duration, tr *core.EstimateTrace) *TraceInfo {
	ti := &TraceInfo{
		TotalNanos:     (parse + tr.Total).Nanoseconds(),
		ResultCacheHit: tr.ResultCacheHit,
		PlanCacheHit:   tr.PlanCacheHit,
		Subproblems:    tr.Subproblems,
		Spans:          make([]TraceSpan, 0, len(tr.Spans)+1),
	}
	ti.Spans = append(ti.Spans, TraceSpan{Stage: core.StageParse, Nanos: parse.Nanoseconds()})
	for _, sp := range tr.Spans {
		ti.Spans = append(ti.Spans, TraceSpan{
			Stage:       sp.Stage,
			OffsetNanos: sp.Offset.Nanoseconds(),
			Nanos:       sp.Duration.Nanoseconds(),
		})
	}
	return ti
}

// summaryKind names a value summary for introspection output.
func summaryKind(vt xmltree.ValueType) string {
	switch vt {
	case xmltree.TypeNumeric:
		return "histogram"
	case xmltree.TypeString:
		return "pst"
	case xmltree.TypeText:
		return "termhist"
	default:
		return ""
	}
}

// synopsisBudget computes the storage split of a synopsis: structural
// charge from the cluster and edge counts, value charge by summary
// kind. Shared by GET /debug/synopsis and the workload coverage report.
func synopsisBudget(syn *core.Synopsis) SynopsisBudget {
	b := SynopsisBudget{
		NodeBytes: syn.NumNodes() * core.NodeBytes,
		EdgeBytes: syn.NumEdges() * core.EdgeBytes,
	}
	for _, n := range syn.Nodes() {
		if n.VSum == nil {
			continue
		}
		bytes := n.VSum.SizeBytes()
		switch n.VSum.Type() {
		case xmltree.TypeNumeric:
			b.HistogramBytes += bytes
		case xmltree.TypeString:
			b.PSTBytes += bytes
		case xmltree.TypeText:
			b.TermHistBytes += bytes
		}
	}
	return b
}

// SynopsisReport builds the GET /debug/synopsis body from one pinned
// generation: sizes, budget split, build identity, rebuild status, and
// the clusters by descending cardinality.
func (s *Service) SynopsisReport() SynopsisDebugResponse {
	sl := s.cur.Load()
	fp := sl.syn.Fingerprint()
	ver := SynopsisVersion{
		Generation:   fp.Generation,
		InstalledAt:  sl.installed,
		CodecVersion: core.CodecVersion,
		StructBudget: fp.StructBudget,
		ValueBudget:  fp.ValueBudget,
		BuildOptions: fp.BuildOptions,
		BuildNanos:   fp.BuildNanos,
	}
	if fp.DocHash != 0 {
		ver.DocHash = fmt.Sprintf("%016x", fp.DocHash)
	}
	if fp.BuiltAtUnix != 0 {
		ver.BuiltAt = time.Unix(fp.BuiltAtUnix, 0).UTC()
	}
	resp := SynopsisDebugResponse{
		Clusters:      sl.syn.NumNodes(),
		ValueClusters: sl.syn.NumValueNodes(),
		Edges:         sl.syn.NumEdges(),
		StructBytes:   sl.syn.StructBytes(),
		ValueBytes:    sl.syn.ValueBytes(),
		TotalBytes:    sl.syn.TotalBytes(),
		Version:       ver,
		Rebuild:       s.RebuildStatus(),
		Budget:        synopsisBudget(sl.syn),
	}
	nodes := sl.syn.Nodes()
	resp.ClusterDetail = make([]SynopsisCluster, 0, len(nodes))
	for _, n := range nodes {
		row := SynopsisCluster{
			ID:       int(n.ID),
			Label:    n.Label,
			Path:     n.Path,
			Count:    n.Count,
			Children: len(n.Children),
		}
		if n.VSum != nil {
			row.Summary = summaryKind(n.VSum.Type())
			row.SummaryBytes = n.VSum.SizeBytes()
		}
		resp.ClusterDetail = append(resp.ClusterDetail, row)
	}
	// Largest extents first: the clusters where the budget matters most.
	sort.SliceStable(resp.ClusterDetail, func(i, j int) bool {
		return resp.ClusterDetail[i].Count > resp.ClusterDetail[j].Count
	})
	return resp
}
