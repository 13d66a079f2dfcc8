// Package service turns an XCluster synopsis into a concurrent
// selectivity-estimation service: the deployment shape of the paper's
// optimizer statistics, where one small immutable synopsis answers
// estimate requests from many query-optimizer workers at once.
//
// A Service wraps a synopsis and a shared thread-safe Estimator and
// offers batch estimation with a bounded worker pool, per-request
// deadlines via context, and full observability: every estimate runs
// the traced canonicalize → compile → execute pipeline, emitting
// per-stage latencies, cache outcomes, and request counters into an
// internal/obs metrics registry, recording queries above a threshold in
// a ring-buffer slow-query log, and returning per-stage spans inline on
// request.
//
// The package is a Go API with no HTTP routing: internal/catalog owns
// every endpoint and serves each shard through these methods. http.go
// keeps the wire types those endpoints render, the error-to-status
// mapping, and the JSON writer.
package service

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"xcluster/internal/accuracy"
	"xcluster/internal/budget"
	"xcluster/internal/core"
	"xcluster/internal/obs"
	"xcluster/internal/profile"
	"xcluster/internal/query"
	"xcluster/internal/xmltree"
)

// Option configures New.
type Option func(*Service)

// WithWorkers caps the number of goroutines EstimateBatch uses
// (default: GOMAXPROCS).
func WithWorkers(n int) Option {
	return func(s *Service) {
		if n > 0 {
			s.workers = n
		}
	}
}

// WithTimeout sets a per-request deadline applied to every Estimate and
// EstimateBatch call on top of the caller's context (0 disables).
func WithTimeout(d time.Duration) Option {
	return func(s *Service) { s.timeout = d }
}

// WithCacheCapacity sets the estimator query-result cache capacity
// (<= 0 disables caching). The setting is part of the service's stored
// estimator configuration: every estimator the lifecycle installs — the
// initial one and every reload/rebuild replacement — is configured
// identically.
func WithCacheCapacity(n int) Option {
	return func(s *Service) { s.cacheCap, s.cacheCapSet = n, true }
}

// WithPlanCacheCapacity sets the estimator compiled-plan cache capacity
// (<= 0 disables plan caching, so every uncached estimate recompiles).
// Applied to every estimator the lifecycle installs, like
// WithCacheCapacity.
func WithPlanCacheCapacity(n int) Option {
	return func(s *Service) { s.planCap, s.planCapSet = n, true }
}

// WithUninformedSel sets the estimator's selectivity for predicates on
// unsummarized type-matching clusters. Applied to every estimator the
// lifecycle installs.
func WithUninformedSel(sel float64) Option {
	return func(s *Service) { s.uninformedSel = sel }
}

// WithRegistry makes the service emit into a caller-owned metrics
// registry instead of creating its own (e.g. to share one registry
// across a build pipeline and the serving path).
func WithRegistry(r *obs.Registry) Option {
	return func(s *Service) { s.reg = r }
}

// WithSlowQueryLog enables the slow-query log: estimates whose total
// latency reaches threshold are captured (canonical query, plan
// summary, stage timings, estimate) in a ring of the given capacity
// (obs.DefaultSlowLogCapacity when <= 0). A non-positive threshold
// leaves the log disabled.
func WithSlowQueryLog(threshold time.Duration, capacity int) Option {
	return func(s *Service) { s.slow = obs.NewSlowLog(threshold, capacity) }
}

// WithShadowSampling enables shadow accuracy evaluation: rate (0..1]
// of served estimates are re-run through the exact evaluator on a pool
// of workers goroutines, each evaluation bounded by deadline (measured
// from enqueue; accuracy.DefaultShadowDeadline when <= 0). Shadow work
// is queued and dropped under overload — it can never block or fail a
// client estimate. Requires a ground-truth source: WithDocument or
// WithTruthFunc; without one, shadow sampling stays off.
func WithShadowSampling(rate float64, workers int, deadline time.Duration) Option {
	return func(s *Service) {
		s.shadowRate = rate
		s.shadowWorkers = workers
		s.shadowDeadline = deadline
	}
}

// WithDocument makes the source document resident so shadow sampling
// can compute exact ground truth with internal/query's evaluator.
func WithDocument(tree *xmltree.Tree) Option {
	return func(s *Service) { s.doc = tree }
}

// WithTruthFunc overrides the ground-truth source for shadow sampling
// (it wins over WithDocument). Deployments that cannot keep the
// document resident can plug a remote exact-evaluation client; tests
// use it to force deadline expiry.
func WithTruthFunc(fn accuracy.TruthFunc) Option {
	return func(s *Service) { s.truth = fn }
}

// WithAccuracy forwards options to the service's accuracy monitor
// (sanity bound, drift window/threshold, drift callback).
func WithAccuracy(opts ...accuracy.MonitorOption) Option {
	return func(s *Service) { s.monOpts = append(s.monOpts, opts...) }
}

// WithSLO configures the service's availability/latency objectives.
// Every traced estimate's outcome feeds multi-window (5m/1h)
// error-budget burn rates, reported at GET /debug/slo and as
// xcluster_slo_* gauges. The zero config (the default) disables
// tracking at zero hot-path cost.
func WithSLO(cfg obs.SLOConfig) Option {
	return func(s *Service) { s.sloCfg = cfg }
}

// WithWorkloadProfile configures the live workload profiler: capacity
// is the number of distinct query shapes its space-saving table tracks
// (profile.DefaultCapacity when 0; negative disables profiling
// entirely), window the rolling-window width behind rates and traffic
// shares (profile.DefaultWindow when 0). The profiler is on by
// default: its hot-path cost is a handful of atomic updates per
// estimate (priced by BENCH_workload.json), and its output —
// GET /debug/workload, xcluster_workload_* series, and the exported
// WorkloadProfile artifact — is what workload-adaptive rebuilds
// consume.
func WithWorkloadProfile(capacity int, window time.Duration) Option {
	return func(s *Service) { s.profCap, s.profWindow = capacity, window }
}

// Service is a concurrent estimation service over an immutable synopsis
// generation. All methods are safe for concurrent use.
//
// The synopsis and its estimator live in an atomically swappable slot:
// Reload and Rebuild install a replacement generation without stopping
// the serving path (see lifecycle.go). Each estimate pins the slot it
// started on, so in-flight requests finish coherently on the old
// generation while new requests see the new one.
type Service struct {
	// cur is the serving slot (synopsis + estimator + install time).
	// Always non-nil after New.
	cur     atomic.Pointer[slot]
	workers int
	timeout time.Duration
	start   time.Time

	// Stored estimator configuration, replayed onto every estimator the
	// lifecycle installs so generations only differ by their synopsis.
	cacheCap      int
	cacheCapSet   bool
	planCap       int
	planCapSet    bool
	uninformedSel float64

	// Lifecycle state: swapMu serializes installs, gen numbers them,
	// rebuilding single-flights Rebuild, source re-reads the synopsis
	// for Reload, onSwap observes transitions. See lifecycle.go.
	swapMu         sync.Mutex
	rebuilding     atomic.Bool
	source         func(context.Context) (*core.Synopsis, error)
	onSwap         func(SwapEvent)
	rebuildOnDrift bool
	rbMu           sync.Mutex
	rb             RebuildStatus
	defaultBstr    int
	defaultBval    int
	refOpts        core.ReferenceOptions
	buildWorkers   int

	// Adaptive budget planning (see adaptive.go): planMu guards the
	// last planner run recorded for GET /debug/budget.
	adaptiveBudget   bool
	planMu           sync.Mutex
	lastPlanInputs   *budget.Inputs
	lastPlanDecision *budget.Decision

	// reg aggregates every metric the service and its estimator emit;
	// slow is the optional slow-query ring (nil when disabled).
	reg  *obs.Registry
	slow *obs.SlowLog

	// prof sketches the live workload (nil when disabled via
	// WithWorkloadProfile with a negative capacity).
	prof       *profile.Profiler
	profCap    int
	profWindow time.Duration

	// slo tracks error-budget burn rates (nil: no objectives
	// configured).
	slo    *obs.SLOTracker
	sloCfg obs.SLOConfig

	// Accuracy monitoring: mon aggregates estimate/truth pairs (always
	// on — POST /feedback feeds it even without shadow sampling);
	// shadow re-runs sampled estimates through truth (nil when disabled
	// or no ground-truth source is configured).
	mon            *accuracy.Monitor
	shadow         *accuracy.Shadow
	doc            *xmltree.Tree
	truth          accuracy.TruthFunc
	monOpts        []accuracy.MonitorOption
	shadowRate     float64
	shadowWorkers  int
	shadowDeadline time.Duration

	// Registry series the hot path holds directly (no per-event lookup).
	served       *obs.Counter // xcluster_requests_total{outcome="ok"}
	failed       *obs.Counter // xcluster_requests_total{outcome="error"}
	reqHist      *obs.Histogram
	batches      *obs.Counter
	batchQueries *obs.Counter
	slowTotal    *obs.Counter
	inflight     *obs.Gauge
	genGauge     *obs.Gauge     // xcluster_synopsis_generation
	rebuildsOK   *obs.Counter   // xcluster_rebuilds_total{outcome="ok"}
	rebuildsErr  *obs.Counter   // xcluster_rebuilds_total{outcome="error"}
	rebuildHist  *obs.Histogram // xcluster_rebuild_seconds
	swaps        *obs.Counter   // xcluster_synopsis_swaps_total

	// inflightWG tracks in-flight Estimate/EstimateBatch calls so Drain
	// can wait for them during graceful shutdown.
	inflightWG sync.WaitGroup
}

// New returns a service over the synopsis. The service owns the
// estimator of each installed generation, configured by the options;
// configuration after New is not synchronized.
func New(syn *core.Synopsis, opts ...Option) *Service {
	s := &Service{
		workers: runtime.GOMAXPROCS(0),
		start:   time.Now(),
	}
	for _, opt := range opts {
		opt(s)
	}
	if s.reg == nil {
		s.reg = obs.NewRegistry()
	}
	s.slo = obs.NewSLOTracker(s.sloCfg)
	if s.profCap >= 0 {
		s.prof = profile.New(s.profCap, s.profWindow)
	}
	s.wireMetrics()
	// Install the initial generation. The artifact keeps whatever
	// generation its fingerprint carries (0 for fresh builds and legacy
	// files); only swaps advance it.
	s.cur.Store(s.newSlot(syn))
	s.genGauge.Set(float64(syn.Fingerprint().Generation))
	s.rb.Phase = PhaseIdle
	monOpts := []accuracy.MonitorOption{accuracy.WithMonitorRegistry(s.reg)}
	monOpts = append(monOpts, s.monOpts...)
	if s.rebuildOnDrift {
		monOpts = append(monOpts, accuracy.WithOnDrift(func(ev accuracy.DriftEvent) {
			// Busy and no-document outcomes land in RebuildStatus; drift
			// rebuilds are best-effort by design.
			go func() {
				_, _ = s.Rebuild(context.Background(), RebuildOptions{
					Reason:   "drift:" + ev.Class.String(),
					Adaptive: s.adaptiveBudget,
				})
			}()
		}))
	}
	s.mon = accuracy.NewMonitor(monOpts...)
	if s.truth == nil && s.doc != nil {
		ev := query.NewEvaluator(s.doc)
		s.truth = func(ctx context.Context, q *query.Query) (float64, error) {
			// The exact evaluator is not interruptible mid-walk; honoring
			// the deadline at the boundaries still bounds queue-delayed
			// work and reports late results as drops.
			if err := ctx.Err(); err != nil {
				return 0, err
			}
			v := ev.Selectivity(q)
			if err := ctx.Err(); err != nil {
				return 0, err
			}
			return v, nil
		}
	}
	if s.shadowRate > 0 && s.truth != nil {
		s.shadow = accuracy.NewShadow(s.mon, s.truth,
			s.shadowRate, s.shadowWorkers, s.shadowDeadline, 0)
	}
	return s
}

// Close stops the shadow sampler's workers after processing the queued
// samples. The serving paths stay usable (shadow offers after Close
// are counted as drops); call it when retiring the service.
func (s *Service) Close() {
	if s.shadow != nil {
		s.shadow.Close()
	}
}

// wireMetrics registers help text and resolves the hot-path series.
// (Each generation's estimator gets its metric sink pointed at the
// registry by newSlot.)
func (s *Service) wireMetrics() {
	r := s.reg
	r.Help("xcluster_requests_total", "Estimate queries answered, by outcome.")
	r.Help("xcluster_request_seconds", "End-to-end latency of successfully answered estimates.")
	r.Help("xcluster_batches_total", "Estimate batches served.")
	r.Help("xcluster_batch_queries_total", "Queries submitted across all batches.")
	r.Help("xcluster_slow_queries_total", "Estimates captured by the slow-query log.")
	r.Help("xcluster_inflight_estimates", "Estimates currently executing.")
	r.Help("xcluster_estimator_cache_hits_total", "All-time estimator cache hits (matches /stats).")
	r.Help("xcluster_estimator_cache_misses_total", "All-time estimator cache misses (matches /stats).")
	r.Help("xcluster_estimator_cache_entries", "Current estimator cache occupancy.")
	r.Help("xcluster_synopsis_bytes", "Size of the served synopsis by component.")
	r.Help("xcluster_uptime_seconds", "Seconds since the service was created.")
	r.Help("xcluster_shadow_sampled_total", "Estimates selected for shadow exact evaluation.")
	r.Help("xcluster_shadow_observed_total", "Shadow evaluations that completed and reached the accuracy monitor.")
	r.Help("xcluster_shadow_dropped_total", "Sampled estimates lost to overload, deadline expiry, or evaluator errors.")
	r.Help("xcluster_synopsis_generation", "Build generation of the currently served synopsis.")
	r.Help("xcluster_rebuilds_total", "Synopsis rebuilds attempted, by outcome.")
	r.Help("xcluster_budget_plan_total_bytes", "Total byte budget of the serving synopsis's plan.")
	r.Help("xcluster_budget_plan_provenance", "1 for the serving plan's provenance (static, auto, workload), 0 otherwise.")
	r.Help("xcluster_budget_planned_bytes", "Planned byte budget of the serving synopsis by component (0 when the plan leaves the component unsplit).")
	r.Help("xcluster_budget_actual_bytes", "Realized bytes of the serving synopsis by component.")
	r.Help("xcluster_rebuild_seconds", "End-to-end wall time of successful synopsis rebuilds (build through swap).")
	r.Help("xcluster_synopsis_swaps_total", "Synopsis hot swaps performed (reloads and rebuilds).")
	if s.prof != nil {
		r.Help("xcluster_workload_requests_total", "Estimates profiled by the workload profiler, by accuracy class.")
		r.Help("xcluster_workload_errors_total", "Failed estimates profiled by the workload profiler, by accuracy class.")
		r.Help("xcluster_workload_class_share", "Rolling-window traffic share per accuracy class.")
		r.Help("xcluster_workload_pain_score", "Traffic share times relative error per accuracy class.")
		r.Help("xcluster_workload_shapes_tracked", "Distinct query shapes currently tracked by the workload profiler.")
		r.Help("xcluster_workload_shape_evictions_total", "Shapes displaced from the profiler's bounded top-K table.")
	}
	r.Help(core.MetricPipelineStageSeconds, "Wall time per estimation pipeline stage.")
	r.Help(core.MetricCacheLookupsTotal, "Estimate-pipeline cache lookups, by cache and outcome.")
	r.Help(core.MetricBuildPhaseSeconds, "Synopsis build phase wall time.")
	r.Help(core.MetricBuildMergesTotal, "Node merges applied by synopsis builds.")
	r.Help(core.MetricBuildPairsTotal, "Merge-candidate evaluations by synopsis builds, by outcome (computed, memo_hit, memo_partial).")
	s.served = r.Counter("xcluster_requests_total", `outcome="ok"`)
	s.failed = r.Counter("xcluster_requests_total", `outcome="error"`)
	s.reqHist = r.Histogram("xcluster_request_seconds", "", nil)
	s.batches = r.Counter("xcluster_batches_total", "")
	s.batchQueries = r.Counter("xcluster_batch_queries_total", "")
	s.slowTotal = r.Counter("xcluster_slow_queries_total", "")
	s.inflight = r.Gauge("xcluster_inflight_estimates", "")
	s.genGauge = r.Gauge("xcluster_synopsis_generation", "")
	s.rebuildsOK = r.Counter("xcluster_rebuilds_total", `outcome="ok"`)
	s.rebuildsErr = r.Counter("xcluster_rebuilds_total", `outcome="error"`)
	s.rebuildHist = r.Histogram("xcluster_rebuild_seconds", "", nil)
	s.swaps = r.Counter("xcluster_synopsis_swaps_total", "")
}

// SyncMetrics mirrors scrape-time state into the service's registry:
// the estimator's authoritative cache counters (the same values Stats
// reports, so the two views cannot disagree), cache occupancy, synopsis
// size, uptime, shadow counters, and the workload, budget, and SLO
// gauges. The catalog calls it for each shard before a GET /metrics
// render.
func (s *Service) SyncMetrics() {
	r := s.reg
	sl := s.cur.Load()
	for _, c := range []struct {
		label string
		stats core.CacheStats
	}{
		{`cache="result"`, sl.est.CacheStats()},
		{`cache="plan"`, sl.est.PlanCacheStats()},
	} {
		r.Counter("xcluster_estimator_cache_hits_total", c.label).Store(c.stats.Hits)
		r.Counter("xcluster_estimator_cache_misses_total", c.label).Store(c.stats.Misses)
		r.Gauge("xcluster_estimator_cache_entries", c.label).Set(float64(c.stats.Len))
	}
	r.Gauge("xcluster_synopsis_bytes", `component="struct"`).Set(float64(sl.syn.StructBytes()))
	r.Gauge("xcluster_synopsis_bytes", `component="value"`).Set(float64(sl.syn.ValueBytes()))
	r.Gauge("xcluster_uptime_seconds", "").Set(time.Since(s.start).Seconds())
	if s.shadow != nil {
		st := s.shadow.Stats()
		r.Counter("xcluster_shadow_sampled_total", "").Store(st.Sampled)
		r.Counter("xcluster_shadow_observed_total", "").Store(st.Observed)
		r.Counter("xcluster_shadow_dropped_total", `reason="queue_full"`).Store(st.QueueDrops)
		r.Counter("xcluster_shadow_dropped_total", `reason="deadline"`).Store(st.DeadlineDrops)
		r.Counter("xcluster_shadow_dropped_total", `reason="error"`).Store(st.ErrorDrops)
	}
	if s.prof != nil {
		s.prof.Sync(r, s.mon.Report(), time.Now())
	}
	s.syncBudgetGauges()
	s.slo.Sync(r)
}

// SLO returns the SLO tracker (nil when no objectives are configured).
func (s *Service) SLO() *obs.SLOTracker { return s.slo }

// RequestsTotal returns the number of estimates ever answered (served
// plus failed) — the ops denominator the catalog uses for allocs-per-op
// sampling.
func (s *Service) RequestsTotal() uint64 { return s.served.Value() + s.failed.Value() }

// Synopsis returns the currently served synopsis generation.
func (s *Service) Synopsis() *core.Synopsis { return s.cur.Load().syn }

// Estimator returns the current generation's estimator (for callers
// that want direct access, e.g. Explain). A hot swap replaces it; hold
// the returned pointer across related calls if cross-call consistency
// matters.
func (s *Service) Estimator() *core.Estimator { return s.cur.Load().est }

// Registry returns the service's metrics registry.
func (s *Service) Registry() *obs.Registry { return s.reg }

// SlowLog returns the slow-query log (nil when disabled).
func (s *Service) SlowLog() *obs.SlowLog { return s.slow }

// Monitor returns the accuracy monitor (always non-nil; it aggregates
// shadow samples and pushed feedback).
func (s *Service) Monitor() *accuracy.Monitor { return s.mon }

// Shadow returns the shadow sampler (nil when shadow sampling is
// disabled or no ground-truth source was configured).
func (s *Service) Shadow() *accuracy.Shadow { return s.shadow }

// Workload returns the live workload profiler (nil when disabled).
func (s *Service) Workload() *profile.Profiler { return s.prof }

// WorkloadProfile captures the live workload as a versioned,
// persistable artifact with class error and pain joined from the
// accuracy monitor — the body of GET /admin/workload/export.
func (s *Service) WorkloadProfile() (profile.Profile, error) {
	if s.prof == nil {
		return profile.Profile{}, ErrNoProfiler
	}
	return s.prof.Profile(time.Now(), s.mon.Report()), nil
}

// Estimate answers one query under the service's deadline.
func (s *Service) Estimate(ctx context.Context, q *query.Query) (float64, error) {
	v, _, err := s.EstimateTraced(ctx, q)
	return v, err
}

// EstimateTraced answers one query under the service's deadline and
// returns the per-stage pipeline trace alongside the estimate.
func (s *Service) EstimateTraced(ctx context.Context, q *query.Query) (float64, *core.EstimateTrace, error) {
	s.inflightWG.Add(1)
	defer s.inflightWG.Done()
	if s.timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, s.timeout)
		defer cancel()
	}
	return s.estimateOne(ctx, s.cur.Load(), q)
}

// estimateOne runs one traced estimate against the pinned slot,
// recording latency, counters, and — above the threshold — a slow-query
// log entry. The caller pins the slot so one logical operation (a
// single estimate, or a whole batch) runs coherently on one generation
// even while a hot swap installs the next.
func (s *Service) estimateOne(ctx context.Context, sl *slot, q *query.Query) (float64, *core.EstimateTrace, error) {
	s.inflight.Add(1)
	defer s.inflight.Add(-1)
	t0 := time.Now()
	v, tr, err := sl.est.SelectivityTraced(ctx, q)
	d := time.Since(t0)
	// One context lookup is the whole per-estimate tracing cost when the
	// request carries no span (untraced callers, or tracing disabled).
	sp := obs.SpanFrom(ctx)
	// The profiler reuses the trace's canonical string and hash, so its
	// hit path is a read-locked map probe plus atomic counter bumps.
	shapeID := ""
	if s.prof != nil && tr != nil {
		shapeID = s.prof.Record(t0, q, tr.Canonical, tr.CanonicalHash, d, tr.Estimate, err != nil)
	}
	if err != nil {
		s.failed.Inc()
		s.slo.ObserveAt(t0, d, true)
		if sp != nil {
			sp.AddChild(estimateSpan(t0, d, tr, err))
		}
		return 0, tr, err
	}
	s.reqHist.Observe(d.Seconds())
	s.served.Inc()
	s.slo.ObserveAt(t0, d, false)
	if sp != nil {
		sp.AddChild(estimateSpan(t0, d, tr, nil))
	}
	s.recordSlow(ctx, sl, q, tr, v, d, shapeID)
	if s.shadow != nil {
		// Pair the trace's estimate with exact ground truth off the
		// serving path; Offer never blocks.
		s.shadow.Offer(q, tr.Estimate)
	}
	return v, tr, nil
}

// estimateSpan renders one completed estimate (and its pipeline-stage
// timings) as a span subtree for the request's trace.
func estimateSpan(start time.Time, d time.Duration, tr *core.EstimateTrace, err error) *obs.Span {
	sp := obs.CompletedSpan("estimate", start, d)
	if tr != nil {
		sp.SetDetail(tr.Canonical)
		for _, st := range tr.Spans {
			sp.AddChild(obs.CompletedSpan(st.Stage, start.Add(st.Offset), st.Duration))
		}
	}
	if err != nil {
		sp.FinishErr(err)
	}
	return sp
}

// recordSlow captures one answered estimate in the slow-query log when
// its latency reaches the threshold. The plan summary is resolved
// through the plan cache, so the extra cost is paid only by queries
// already slow enough to log.
func (s *Service) recordSlow(ctx context.Context, sl *slot, q *query.Query, tr *core.EstimateTrace, v float64, d time.Duration, shapeID string) {
	if s.slow == nil || d < s.slow.Threshold() {
		return
	}
	planSummary := ""
	if pq, err := sl.est.Prepare(q); err == nil {
		planSummary = pq.PlanSummary()
	}
	spans := make([]obs.SlowLogSpan, len(tr.Spans))
	for i, sp := range tr.Spans {
		spans[i] = obs.SlowLogSpan{Stage: sp.Stage, Nanos: sp.Duration.Nanoseconds()}
	}
	if s.slow.Record(obs.SlowLogEntry{
		Time:       time.Now(),
		RequestID:  obs.RequestIDFrom(ctx),
		ShapeID:    shapeID,
		Query:      tr.Canonical,
		Plan:       planSummary,
		Estimate:   v,
		TotalNanos: d.Nanoseconds(),
		Spans:      spans,
	}) {
		s.slowTotal.Inc()
	}
}

// EstimateBatch answers a batch of queries with a worker pool of up to
// WithWorkers goroutines (default GOMAXPROCS). Results are positional:
// out[i] is the selectivity of qs[i]. The first context error aborts the
// remaining work and is returned; already-computed entries stay in the
// slice.
//
// Before fanning out, the batch compiles its query shapes,
// sequentially, into the estimator's plan cache (each distinct shape
// once: a repeated shape's second lookup is a plan-cache hit), so
// racing workers never compile the same shape twice; the workers then
// execute through the estimator's plan and result caches.
func (s *Service) EstimateBatch(ctx context.Context, qs []*query.Query) ([]float64, error) {
	out, _, err := s.EstimateBatchTraced(ctx, qs)
	return out, err
}

// EstimateBatchTraced is EstimateBatch returning, additionally, the
// positional per-stage pipeline traces (trace entries for queries the
// batch never reached are nil).
func (s *Service) EstimateBatchTraced(ctx context.Context, qs []*query.Query) ([]float64, []*core.EstimateTrace, error) {
	return s.estimateBatch(ctx, s.cur.Load(), qs)
}

// estimateBatch is EstimateBatchTraced on a pinned slot: every query of
// the batch is answered by the same generation even if a swap lands
// mid-batch.
func (s *Service) estimateBatch(ctx context.Context, sl *slot, qs []*query.Query) ([]float64, []*core.EstimateTrace, error) {
	s.inflightWG.Add(1)
	defer s.inflightWG.Done()
	if s.timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, s.timeout)
		defer cancel()
	}
	out := make([]float64, len(qs))
	trs := make([]*core.EstimateTrace, len(qs))
	if len(qs) == 0 {
		return out, trs, nil
	}
	s.batches.Inc()
	s.batchQueries.Add(uint64(len(qs)))
	if err := s.prepareShapes(sl, qs); err != nil {
		return out, trs, err
	}
	workers := s.workers
	if workers > len(qs) {
		workers = len(qs)
	}
	if workers <= 1 {
		for i, q := range qs {
			v, tr, err := s.estimateOne(ctx, sl, q)
			trs[i] = tr
			if err != nil {
				return out, trs, fmt.Errorf("service: query %d: %w", i, err)
			}
			out[i] = v
		}
		return out, trs, nil
	}
	var (
		next     atomic.Int64
		stop     atomic.Bool
		wg       sync.WaitGroup
		errMu    sync.Mutex
		batchErr error
	)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(qs) || stop.Load() {
					return
				}
				v, tr, err := s.estimateOne(ctx, sl, qs[i])
				trs[i] = tr
				if err != nil {
					errMu.Lock()
					if batchErr == nil {
						batchErr = fmt.Errorf("service: query %d: %w", i, err)
					}
					errMu.Unlock()
					stop.Store(true)
					return
				}
				out[i] = v
			}
		}()
	}
	wg.Wait()
	return out, trs, batchErr
}

// prepareShapes seeds the estimator's plan cache with the batch's
// query shapes. The pass is sequential, so a repeated shape is a
// plan-cache hit (unless more distinct shapes than the cache holds came
// in between) and needs no dedupe of its own. With the plan cache
// disabled this is a no-op (per-call compilation is what the caller
// asked for).
func (s *Service) prepareShapes(sl *slot, qs []*query.Query) error {
	if sl.est.PlanCacheCapacity() == 0 {
		return nil
	}
	for i, q := range qs {
		if _, err := sl.est.Prepare(q); err != nil {
			return fmt.Errorf("service: query %d: %w", i, err)
		}
	}
	return nil
}

// Drain blocks until every in-flight Estimate and EstimateBatch call
// has returned, or until ctx ends (returning its error). Call it during
// graceful shutdown after the listener has stopped accepting requests;
// work submitted concurrently with Drain is not guaranteed to be
// waited for.
func (s *Service) Drain(ctx context.Context) error {
	done := make(chan struct{})
	go func() {
		s.inflightWG.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// ExplainPlan compiles one query and renders its compiled plan: the
// resolved frontier clusters, bound term weights, and subproblem
// structure of the canonicalize → compile → execute pipeline.
func (s *Service) ExplainPlan(q *query.Query) (string, error) {
	return s.cur.Load().explainPlan(q)
}

// explainPlan is ExplainPlan on a pinned slot.
func (sl *slot) explainPlan(q *query.Query) (string, error) {
	pq, err := sl.est.Prepare(q)
	if err != nil {
		return "", err
	}
	return pq.ExplainPlan(), nil
}

// Explain returns up to limit formatted embeddings (query variables →
// synopsis clusters with per-embedding tuple counts) for one query.
func (s *Service) Explain(q *query.Query, limit int) []string {
	return s.cur.Load().explain(q, limit)
}

// explain is Explain on a pinned slot.
func (sl *slot) explain(q *query.Query, limit int) []string {
	ems := sl.est.Explain(q, limit)
	out := make([]string, len(ems))
	for i, em := range ems {
		out[i] = sl.syn.FormatEmbedding(em)
	}
	return out
}

// Stats is a point-in-time snapshot of the service.
type Stats struct {
	// Served counts successfully answered queries; Failed counts
	// queries aborted by cancellation or deadline.
	Served, Failed uint64
	// Cache is the shared estimator's result-cache snapshot.
	Cache core.CacheStats
	// PlanCache is the shared estimator's compiled-plan cache snapshot;
	// its Misses count how many query shapes were compiled.
	PlanCache core.CacheStats
	// P50, P95 and P99 are latency percentiles over the last
	// LatencySamples answered queries, read from the same shared
	// histogram /metrics exports (the two views cannot disagree).
	P50, P95, P99 time.Duration
	// LatencySamples is the number of samples behind the percentiles
	// (at most the histogram's retained window).
	LatencySamples int
	// SlowQueries counts estimates captured by the slow-query log.
	SlowQueries uint64
	// Uptime is the time since New.
	Uptime time.Duration
	// Generation is the build generation of the synopsis currently
	// serving; Swaps counts the hot swaps performed since New.
	Generation uint64
	Swaps      uint64
}

// Stats snapshots the counters, cache state, and latency percentiles.
// Cache statistics belong to the current generation's estimator (they
// reset on a hot swap, together with the caches themselves).
func (s *Service) Stats() Stats {
	snap := s.reqHist.Snapshot()
	sl := s.cur.Load()
	return Stats{
		Served:         s.served.Value(),
		Failed:         s.failed.Value(),
		Cache:          sl.est.CacheStats(),
		PlanCache:      sl.est.PlanCacheStats(),
		Generation:     sl.syn.Fingerprint().Generation,
		Swaps:          s.swaps.Value(),
		P50:            secondsDuration(snap.P50),
		P95:            secondsDuration(snap.P95),
		P99:            secondsDuration(snap.P99),
		LatencySamples: snap.Samples,
		SlowQueries:    s.slow.Total(),
		Uptime:         time.Since(s.start),
	}
}

// secondsDuration converts a seconds float into a Duration.
func secondsDuration(sec float64) time.Duration {
	return time.Duration(sec * float64(time.Second))
}
