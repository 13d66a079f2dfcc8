package catalog

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strconv"

	"xcluster/internal/obs"
	"xcluster/internal/query"
	"xcluster/internal/service"
)

// EstimateRequest is the body of the catalog's POST /estimate: the
// single-tenant request shape plus optional addressing. Three forms:
//
//   - tenant and collection set: route to that shard;
//   - tenant set, collection empty: scatter-gather over every
//     collection of the tenant;
//   - neither set: serve from the configured default shard (the
//     single-tenant compatibility path — the response is byte-for-byte
//     what a standalone service would return).
type EstimateRequest struct {
	Tenant     string `json:"tenant,omitempty"`
	Collection string `json:"collection,omitempty"`
	service.EstimateRequest
}

// ScatterQueryResult is one aggregated row of a ScatterResponse,
// positional with the request's Queries.
type ScatterQueryResult struct {
	Query string `json:"query"`
	// Selectivity sums the per-collection selectivities (shards hold
	// disjoint corpora). Unset when the query failed to parse.
	Selectivity *float64 `json:"selectivity,omitempty"`
	Error       string   `json:"error,omitempty"`
	Offset      *int     `json:"offset,omitempty"`
}

// ScatterResponse is the body of a scatter-gather POST /estimate.
// Partial coverage is explicit: Collections lists what the aggregate
// includes, ShardErrors what it does not and why.
type ScatterResponse struct {
	Tenant      string               `json:"tenant"`
	Collections []string             `json:"collections"`
	Partial     bool                 `json:"partial,omitempty"`
	Results     []ScatterQueryResult `json:"results"`
	ShardErrors []ShardError         `json:"shard_errors,omitempty"`
}

// AttachResponse is the body of a successful POST /admin/catalog/attach.
type AttachResponse struct {
	Tenant     string `json:"tenant"`
	Collection string `json:"collection"`
	Generation uint64 `json:"generation"`
}

// DetachRequest is the body of POST /admin/catalog/detach.
type DetachRequest struct {
	Tenant     string `json:"tenant"`
	Collection string `json:"collection"`
}

// ListResponse is the body of GET /admin/catalog.
type ListResponse struct {
	Tenants []string    `json:"tenants"`
	Shards  []ShardInfo `json:"shards"`
}

// RouteResponse is the body of GET /admin/catalog/route.
type RouteResponse struct {
	Tenant     string `json:"tenant"`
	Key        string `json:"key"`
	Collection string `json:"collection"`
}

// SlowLogAllResponse is the body of GET /debug/slowlog/all: every
// shard's retained slow queries in one list, annotated with tenant and
// collection, most recent first.
type SlowLogAllResponse struct {
	Total   uint64             `json:"total"`
	Entries []obs.SlowLogEntry `json:"entries"`
}

// Handler returns the daemon's HTTP API — every endpoint it serves:
//
//	POST /estimate              single-tenant body, or +{"tenant":...,"collection":...}; scatter when collection omitted
//	GET  /admin/catalog         tenants and shards
//	POST /admin/catalog/attach  body: a ShardSpec; loads and attaches the shard
//	POST /admin/catalog/detach  {"tenant":...,"collection":...}; drains and removes
//	GET  /admin/catalog/route   ?tenant=T&key=K: the collection owning document key K
//	GET  /metrics               merged Prometheus rendering: catalog series plus every shard's, labeled tenant/collection
//	GET  /debug/slowlog/all     all shards' slow queries, annotated, most recent first (?limit=N)
//	GET  /debug/traces          retained request trace trees per family
//	GET  /debug/slo             every shard's SLO report, tenant/collection-labeled
//	GET  /debug/workload        every shard's workload profile, tenant/collection-labeled (?limit=N)
//	GET  /readyz                503 before the first shard attaches and while shutting down; 200 otherwise
//	GET  /healthz, /buildinfo   liveness probe; module version, VCS revision, Go version
//
// plus the per-shard endpoints of shardhttp.go (/stats, /synopsis,
// /feedback, /debug/slowlog, /debug/accuracy, /debug/synopsis,
// /debug/budget, /admin/reload, /admin/rebuild,
// /admin/workload/export), addressed with ?tenant=T&collection=C query
// parameters; without them the default shard answers, so a converted
// single-tenant deployment's clients and scripts keep working unchanged.
//
// Every endpoint answers a documented status or the ServeMux's own: 301
// for a non-canonical path, 404 for an unknown one, 405 for a wrong
// method. Per-query failures (parse errors, unknown labels) are
// reported inline in the results; whole-request failures use the JSON
// error envelope with the ErrorStatus code.
//
// The handler is wrapped in the request-correlation middleware: every
// response carries X-Request-ID (honored from the request or
// generated), and a completed trace tree per request lands in the
// catalog's trace store.
func (c *Catalog) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /estimate", c.handleEstimate)
	mux.HandleFunc("GET /admin/catalog", c.handleList)
	mux.HandleFunc("POST /admin/catalog/attach", c.handleAttach)
	mux.HandleFunc("POST /admin/catalog/detach", c.handleDetach)
	mux.HandleFunc("GET /admin/catalog/route", c.handleRoute)
	mux.HandleFunc("GET /metrics", c.handleMetrics)
	mux.HandleFunc("GET /debug/slowlog/all", c.handleSlowLogAll)
	mux.HandleFunc("GET /debug/traces", c.handleTraces)
	mux.HandleFunc("GET /debug/slo", c.handleSLO)
	mux.HandleFunc("GET /debug/workload", c.handleWorkloadAll)
	mux.HandleFunc("GET /readyz", c.handleReady)
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprintln(w, "ok")
	})
	mux.HandleFunc("GET /buildinfo", func(w http.ResponseWriter, r *http.Request) {
		service.WriteJSON(w, http.StatusOK, service.ReadBuildInfo())
	})
	for pattern, h := range shardEndpoints {
		mux.HandleFunc(pattern, c.perShard(h))
	}
	return obs.TraceHandler(c.traces, mux)
}

// handleReady answers the readiness probe: 503 while shutting down and
// before the first shard — the first live synopsis generation — is
// attached, so load balancers neither route to an empty catalog nor to
// one that is draining.
func (c *Catalog) handleReady(w http.ResponseWriter, r *http.Request) {
	ready, reason := c.Ready()
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	if !ready {
		w.WriteHeader(http.StatusServiceUnavailable)
		fmt.Fprintln(w, reason)
		return
	}
	fmt.Fprintln(w, "ready")
}

// TracesResponse is the body of GET /debug/traces.
type TracesResponse struct {
	Families []obs.FamilySnapshot `json:"families"`
}

// handleTraces answers GET /debug/traces: the retained request trace
// trees, grouped by family, most recent and slowest first. Scattered
// requests carry labeled per-shard children.
func (c *Catalog) handleTraces(w http.ResponseWriter, r *http.Request) {
	families := c.traces.Snapshot()
	if families == nil {
		families = []obs.FamilySnapshot{}
	}
	service.WriteJSON(w, http.StatusOK, TracesResponse{Families: families})
}

// ShardSLO is one shard's SLO report in the catalog's GET /debug/slo.
type ShardSLO struct {
	Tenant     string `json:"tenant"`
	Collection string `json:"collection"`
	obs.SLOReport
}

// SLOAllResponse is the body of the catalog's GET /debug/slo: every
// shard's report, including disabled ones (Enabled false), so operators
// see at a glance which tenants lack objectives.
type SLOAllResponse struct {
	Shards []ShardSLO `json:"shards"`
}

func (c *Catalog) handleSLO(w http.ResponseWriter, r *http.Request) {
	resp := SLOAllResponse{Shards: []ShardSLO{}}
	for _, sh := range c.allShards() {
		resp.Shards = append(resp.Shards, ShardSLO{
			Tenant:     sh.key.Tenant,
			Collection: sh.key.Collection,
			SLOReport:  sh.svc.SLO().Report(),
		})
	}
	service.WriteJSON(w, http.StatusOK, resp)
}

// ShardWorkload is one shard's workload profile in the catalog's
// GET /debug/workload.
type ShardWorkload struct {
	Tenant     string `json:"tenant"`
	Collection string `json:"collection"`
	service.WorkloadResponse
}

// WorkloadAllResponse is the body of the catalog's GET /debug/workload:
// every shard's live workload profile and coverage report, including
// shards with profiling disabled (Enabled false), so traffic mix and
// budget misallocation are comparable across tenants in one response.
type WorkloadAllResponse struct {
	Shards []ShardWorkload `json:"shards"`
}

func (c *Catalog) handleWorkloadAll(w http.ResponseWriter, r *http.Request) {
	limit, ok := parseLimit(w, r)
	if !ok {
		return
	}
	resp := WorkloadAllResponse{Shards: []ShardWorkload{}}
	for _, sh := range c.allShards() {
		rep := sh.svc.WorkloadReport()
		rep.Shapes = truncate(rep.Shapes, limit)
		resp.Shards = append(resp.Shards, ShardWorkload{
			Tenant:           sh.key.Tenant,
			Collection:       sh.key.Collection,
			WorkloadResponse: rep,
		})
	}
	service.WriteJSON(w, http.StatusOK, resp)
}

// shardForRequest resolves the shard a per-shard request addresses from
// its ?tenant=&collection= parameters, falling back to the default
// shard when neither is present.
func (c *Catalog) shardForRequest(r *http.Request) (*Shard, error) {
	q := r.URL.Query()
	tenant, collection := q.Get("tenant"), q.Get("collection")
	if tenant == "" && collection == "" {
		return c.DefaultShard()
	}
	if tenant == "" || collection == "" {
		// The wording predates the per-shard handlers; it is part of the
		// wire contract.
		return nil, fmt.Errorf("%w: delegated endpoints need both tenant and collection", service.ErrUnknownCollection)
	}
	return c.Shard(tenant, collection)
}

// decodeBody decodes r's JSON body into v: bounded by
// service.MaxRequestBytes, unknown fields rejected. With optional set,
// an empty body leaves v untouched. On failure it writes the 400
// envelope and reports false.
func decodeBody(w http.ResponseWriter, r *http.Request, v any, optional bool) bool {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, service.MaxRequestBytes))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil && !(optional && errors.Is(err, io.EOF)) {
		service.WriteErrorMsg(w, http.StatusBadRequest, fmt.Sprintf("bad request body: %v", err))
		return false
	}
	return true
}

// parseLimit reads the optional non-negative ?limit=N parameter of the
// listing endpoints; -1 means no cap. On a malformed value it writes
// the 400 envelope and reports false.
func parseLimit(w http.ResponseWriter, r *http.Request) (int, bool) {
	raw := r.URL.Query().Get("limit")
	if raw == "" {
		return -1, true
	}
	n, err := strconv.Atoi(raw)
	if err != nil || n < 0 {
		service.WriteErrorMsg(w, http.StatusBadRequest,
			fmt.Sprintf("bad limit %q: want a non-negative integer", raw))
		return 0, false
	}
	return n, true
}

// truncate caps s at limit entries; a negative limit leaves it whole.
func truncate[T any](s []T, limit int) []T {
	if limit >= 0 && len(s) > limit {
		return s[:limit]
	}
	return s
}

func (c *Catalog) handleEstimate(w http.ResponseWriter, r *http.Request) {
	var req EstimateRequest
	if !decodeBody(w, r, &req, false) {
		return
	}
	if len(req.Queries) == 0 {
		service.WriteErrorMsg(w, http.StatusBadRequest, "no queries")
		return
	}
	if req.Tenant == "" && req.Collection != "" {
		service.WriteErrorMsg(w, http.StatusBadRequest, "collection requires tenant")
		return
	}

	// Scatter: tenant without collection.
	if req.Tenant != "" && req.Collection == "" {
		c.scatterEstimateHTTP(w, r, req)
		return
	}

	// Routed (or default) single-shard path: the response is exactly
	// what the shard's own service would serve.
	var (
		sh  *Shard
		err error
	)
	if req.Tenant == "" {
		sh, err = c.DefaultShard()
	} else {
		sh, err = c.Shard(req.Tenant, req.Collection)
	}
	if err != nil {
		service.WriteError(w, err)
		return
	}
	if sp := obs.SpanFrom(r.Context()); sp != nil {
		sp.SetShard(sh.key.Tenant, sh.key.Collection)
	}
	resp, err := sh.svc.RunEstimateRequest(r.Context(), req.EstimateRequest)
	if err != nil {
		service.WriteError(w, err)
		return
	}
	service.WriteJSON(w, http.StatusOK, resp)
}

// scatterEstimateHTTP answers a scatter-gather estimate over HTTP.
func (c *Catalog) scatterEstimateHTTP(w http.ResponseWriter, r *http.Request, req EstimateRequest) {
	if req.Explain || req.Plan || req.Trace {
		service.WriteErrorMsg(w, http.StatusBadRequest,
			"explain/plan/trace are per-shard features; address a collection to use them")
		return
	}
	if sp := obs.SpanFrom(r.Context()); sp != nil {
		sp.SetShard(req.Tenant, "")
		sp.SetDetail(fmt.Sprintf("scatter %d queries", len(req.Queries)))
	}
	results := make([]ScatterQueryResult, len(req.Queries))
	var qs []*query.Query
	var pos []int
	for i, qstr := range req.Queries {
		results[i].Query = qstr
		q, err := query.Parse(qstr)
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
	}
	res, err := c.ScatterEstimate(r.Context(), req.Tenant, qs)
	if err != nil {
		service.WriteError(w, err)
		return
	}
	for j, i := range pos {
		v := res.Selectivities[j]
		results[i].Selectivity = &v
	}
	service.WriteJSON(w, http.StatusOK, ScatterResponse{
		Tenant:      req.Tenant,
		Collections: res.Collections,
		Partial:     !res.Complete(),
		Results:     results,
		ShardErrors: res.Errors,
	})
}

func (c *Catalog) handleList(w http.ResponseWriter, r *http.Request) {
	service.WriteJSON(w, http.StatusOK, ListResponse{
		Tenants: c.Tenants(),
		Shards:  c.List(),
	})
}

func (c *Catalog) handleAttach(w http.ResponseWriter, r *http.Request) {
	var spec ShardSpec
	if !decodeBody(w, r, &spec, false) {
		return
	}
	if err := spec.validate(); err != nil {
		service.WriteErrorMsg(w, http.StatusBadRequest, err.Error())
		return
	}
	sh, err := c.Attach(r.Context(), spec)
	if err != nil {
		service.WriteErrorMsg(w, http.StatusConflict, err.Error())
		return
	}
	service.WriteJSON(w, http.StatusCreated, AttachResponse{
		Tenant:     sh.key.Tenant,
		Collection: sh.key.Collection,
		Generation: sh.svc.Generation(),
	})
}

func (c *Catalog) handleDetach(w http.ResponseWriter, r *http.Request) {
	var req DetachRequest
	if !decodeBody(w, r, &req, false) {
		return
	}
	if err := c.Detach(r.Context(), req.Tenant, req.Collection); err != nil {
		service.WriteError(w, err)
		return
	}
	service.WriteJSON(w, http.StatusOK, map[string]string{
		"status":     "detached",
		"tenant":     req.Tenant,
		"collection": req.Collection,
	})
}

func (c *Catalog) handleRoute(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	tenant, key := q.Get("tenant"), q.Get("key")
	if tenant == "" || key == "" {
		service.WriteErrorMsg(w, http.StatusBadRequest, "route needs ?tenant=T&key=K")
		return
	}
	k, err := c.RouteDocument(tenant, key)
	if err != nil {
		service.WriteError(w, err)
		return
	}
	service.WriteJSON(w, http.StatusOK, RouteResponse{
		Tenant:     tenant,
		Key:        key,
		Collection: k.Collection,
	})
}

// shardLabels renders a shard's Prometheus label prefix. The default
// shard stays unlabeled when the catalog is configured for single-tenant
// metrics compatibility.
func (c *Catalog) shardLabels(sh *Shard) string {
	if c.cfg.UnlabeledDefault && sh.key == c.cfg.DefaultKey {
		return ""
	}
	return fmt.Sprintf("tenant=%q,collection=%q", sh.key.Tenant, sh.key.Collection)
}

func (c *Catalog) handleMetrics(w http.ResponseWriter, r *http.Request) {
	shards := c.allShards()
	parts := make([]obs.Labeled, 0, len(shards)+1)
	// Runtime series are process-global, so they are sampled into the
	// catalog's own (unlabeled) registry only — never per shard — and
	// only at scrape time. The allocs-per-op denominator sums every
	// shard's request count: allocations are process-wide too.
	var ops uint64
	for _, sh := range shards {
		ops += sh.svc.RequestsTotal()
	}
	c.runtime.Sample(c.reg)
	c.runtime.SampleAllocsPerOp(c.reg, ops)
	parts = append(parts, obs.Labeled{R: c.reg})
	for _, sh := range shards {
		sh.svc.SyncMetrics()
		parts = append(parts, obs.Labeled{Labels: c.shardLabels(sh), R: sh.reg})
	}
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	obs.WritePrometheusMerged(w, parts...) //nolint:errcheck // headers are out; nothing to do
}

func (c *Catalog) handleSlowLogAll(w http.ResponseWriter, r *http.Request) {
	limit, ok := parseLimit(w, r)
	if !ok {
		return
	}
	resp := SlowLogAllResponse{Entries: []obs.SlowLogEntry{}}
	for _, sh := range c.allShards() {
		slow := sh.svc.SlowLog()
		if slow == nil {
			continue
		}
		resp.Total += slow.Total()
		labels := c.shardLabels(sh) // "" for the unlabeled default shard
		for _, e := range slow.Snapshot() {
			if labels != "" {
				e.Tenant = sh.key.Tenant
				e.Collection = sh.key.Collection
			}
			resp.Entries = append(resp.Entries, e)
		}
	}
	sort.SliceStable(resp.Entries, func(i, j int) bool {
		return resp.Entries[i].Time.After(resp.Entries[j].Time)
	})
	resp.Entries = truncate(resp.Entries, limit)
	service.WriteJSON(w, http.StatusOK, resp)
}
