package catalog

import (
	"net/http"

	"xcluster/internal/obs"
	"xcluster/internal/profile"
	"xcluster/internal/query"
	"xcluster/internal/service"
)

// shardHandler is the body of a per-shard endpoint: it answers r from
// the addressed shard's service.
type shardHandler func(w http.ResponseWriter, r *http.Request, svc *service.Service)

// shardEndpoints are the per-shard routes. Each renders one shard's
// state through the service's Go API with the wire types of
// internal/service, so a one-shard catalog answers exactly what the
// single-tenant daemon always did.
var shardEndpoints = map[string]shardHandler{
	"GET /stats":                 handleStats,
	"GET /synopsis":              handleSynopsis,
	"POST /feedback":             handleFeedback,
	"GET /debug/slowlog":         handleSlowLog,
	"GET /debug/accuracy":        handleAccuracy,
	"GET /debug/synopsis":        handleSynopsisDebug,
	"GET /debug/budget":          handleBudget,
	"POST /admin/reload":         handleReload,
	"POST /admin/rebuild":        handleRebuild,
	"GET /admin/workload/export": handleWorkloadExport,
}

// perShard adapts h into a handler that first resolves the shard the
// request addresses (shardForRequest), answering 404 or 503 in the
// standard error envelope when that fails.
func (c *Catalog) perShard(h shardHandler) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		sh, err := c.shardForRequest(r)
		if err != nil {
			service.WriteError(w, err)
			return
		}
		h(w, r, sh.svc)
	}
}

// handleStats answers GET /stats: counters, cache hit rates, and
// latency percentiles.
func handleStats(w http.ResponseWriter, _ *http.Request, svc *service.Service) {
	st := svc.Stats()
	service.WriteJSON(w, http.StatusOK, service.StatsResponse{
		Served:            st.Served,
		Failed:            st.Failed,
		CacheHits:         st.Cache.Hits,
		CacheMisses:       st.Cache.Misses,
		CacheHitRate:      st.Cache.HitRate(),
		CacheLen:          st.Cache.Len,
		CacheCapacity:     st.Cache.Capacity,
		PlanCacheHits:     st.PlanCache.Hits,
		PlanCacheMisses:   st.PlanCache.Misses,
		PlanCacheHitRate:  st.PlanCache.HitRate(),
		PlanCacheLen:      st.PlanCache.Len,
		PlanCacheCapacity: st.PlanCache.Capacity,
		P50:               st.P50.String(),
		P95:               st.P95.String(),
		P99:               st.P99.String(),
		LatencySamples:    st.LatencySamples,
		SlowQueries:       st.SlowQueries,
		Uptime:            st.Uptime.String(),
	})
}

// handleSynopsis answers GET /synopsis: the size and composition of the
// served synopsis.
func handleSynopsis(w http.ResponseWriter, _ *http.Request, svc *service.Service) {
	syn := svc.Synopsis()
	service.WriteJSON(w, http.StatusOK, service.SynopsisResponse{
		Nodes:       syn.NumNodes(),
		ValueNodes:  syn.NumValueNodes(),
		Edges:       syn.NumEdges(),
		StructBytes: syn.StructBytes(),
		ValueBytes:  syn.ValueBytes(),
		TotalBytes:  syn.TotalBytes(),
	})
}

// handleFeedback answers POST /feedback: each pushed exact result size
// is paired with the shard's own estimate and fed to its accuracy
// monitor. Per-entry failures stay inline.
func handleFeedback(w http.ResponseWriter, r *http.Request, svc *service.Service) {
	var req service.FeedbackRequest
	if !decodeBody(w, r, &req, false) {
		return
	}
	if len(req.Feedback) == 0 {
		service.WriteErrorMsg(w, http.StatusBadRequest, "no feedback")
		return
	}
	resp := service.FeedbackResponse{Results: make([]service.FeedbackResult, len(req.Feedback))}
	for i, fb := range req.Feedback {
		resp.Results[i].Query = fb.Query
		q, err := query.Parse(fb.Query)
		if err != nil {
			resp.Results[i].Error = err.Error()
			continue
		}
		est, err := svc.Estimate(r.Context(), q)
		if err != nil {
			resp.Results[i].Error = err.Error()
			continue
		}
		class, relErr := svc.Monitor().Observe(q, est, fb.True)
		resp.Results[i].Class = class.String()
		resp.Results[i].Estimate = est
		resp.Results[i].RelError = relErr
		resp.Accepted++
	}
	service.WriteJSON(w, http.StatusOK, resp)
}

// handleSlowLog answers GET /debug/slowlog: the slow-query ring, most
// recent first (?limit=N).
func handleSlowLog(w http.ResponseWriter, r *http.Request, svc *service.Service) {
	limit, ok := parseLimit(w, r)
	if !ok {
		return
	}
	slow := svc.SlowLog()
	entries := truncate(slow.Snapshot(), limit)
	if entries == nil {
		entries = []obs.SlowLogEntry{}
	}
	service.WriteJSON(w, http.StatusOK, service.SlowLogResponse{
		ThresholdNanos: slow.Threshold().Nanoseconds(),
		Total:          slow.Total(),
		Entries:        entries,
	})
}

// handleAccuracy answers GET /debug/accuracy: per-class estimation
// error, drift flags, and the shadow sampler's counters when it runs.
func handleAccuracy(w http.ResponseWriter, _ *http.Request, svc *service.Service) {
	resp := service.AccuracyResponse{Report: svc.Monitor().Report()}
	if sh := svc.Shadow(); sh != nil {
		st := sh.Stats()
		resp.Shadow = &st
	}
	service.WriteJSON(w, http.StatusOK, resp)
}

// handleSynopsisDebug answers GET /debug/synopsis: cluster
// cardinalities, budget split, build identity, and rebuild status
// (?limit=N caps the cluster list).
func handleSynopsisDebug(w http.ResponseWriter, r *http.Request, svc *service.Service) {
	limit, ok := parseLimit(w, r)
	if !ok {
		return
	}
	resp := svc.SynopsisReport()
	resp.ClusterDetail = truncate(resp.ClusterDetail, limit)
	service.WriteJSON(w, http.StatusOK, resp)
}

// handleBudget answers GET /debug/budget: the serving fingerprint
// (budgets and their provenance), the realized split, and the last
// adaptive planning run.
func handleBudget(w http.ResponseWriter, _ *http.Request, svc *service.Service) {
	service.WriteJSON(w, http.StatusOK, svc.BudgetReport())
}

// handleReload answers POST /admin/reload: re-read the synopsis through
// the shard's source and hot swap it in; the body is the SwapEvent.
func handleReload(w http.ResponseWriter, r *http.Request, svc *service.Service) {
	ev, err := svc.Reload(r.Context())
	if err != nil {
		service.WriteError(w, err)
		return
	}
	service.WriteJSON(w, http.StatusOK, ev)
}

// handleRebuild answers POST /admin/rebuild: rebuild the synopsis from
// the resident document with (optionally) new budgets and hot swap it
// in. The body (a service.RebuildRequest) is optional. With
// "async":true the rebuild runs in the background and 202 returns at
// once; otherwise the body is the completed SwapEvent. 409 while
// another rebuild runs; 412 without a resident document, or for an
// adaptive rebuild without the workload profiler.
func handleRebuild(w http.ResponseWriter, r *http.Request, svc *service.Service) {
	var req service.RebuildRequest
	if !decodeBody(w, r, &req, true) {
		return
	}
	opts := service.RebuildOptions{
		StructBudget: req.StructBudget,
		ValueBudget:  req.ValueBudget,
		Adaptive:     req.Adaptive,
		Reason:       req.Reason,
	}
	if req.Async {
		if err := svc.StartRebuild(opts); err != nil {
			service.WriteError(w, err)
			return
		}
		service.WriteJSON(w, http.StatusAccepted, map[string]string{"status": "rebuild started"})
		return
	}
	ev, err := svc.Rebuild(r.Context(), opts)
	if err != nil {
		service.WriteError(w, err)
		return
	}
	service.WriteJSON(w, http.StatusOK, ev)
}

// handleWorkloadExport answers GET /admin/workload/export: the
// versioned WorkloadProfile artifact in its stable encoding
// (profile.Encode). It is an audit output of the traffic mix (its
// fingerprint is the one on swap events); nothing reads it back, and
// rebuilds score on the profiler's representatives. 412 when profiling
// is disabled.
func handleWorkloadExport(w http.ResponseWriter, _ *http.Request, svc *service.Service) {
	p, err := svc.WorkloadProfile()
	if err != nil {
		service.WriteError(w, err)
		return
	}
	b, err := profile.Encode(p)
	if err != nil {
		service.WriteError(w, err)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Write(b) //nolint:errcheck // headers are out; nothing to do
}
