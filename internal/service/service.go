// Package service turns an XCluster synopsis into a concurrent
// selectivity-estimation service: the deployment shape of the paper's
// optimizer statistics, where one small immutable synopsis answers
// estimate requests from many query-optimizer workers at once.
//
// A Service wraps a synopsis and a shared thread-safe Estimator and
// offers batch estimation, per-request deadlines via context, and full
// observability: every estimate runs the traced canonicalize → compile
// → execute pipeline, and the service records that one trace —
// per-stage latencies, cache outcomes, and request counters into an
// internal/obs metrics registry, queries above a threshold into a
// ring-buffer slow-query log, the trace itself into the request's span
// tree — and returns per-stage spans inline on request.
//
// The package is a Go API with no HTTP routing: internal/catalog owns
// every endpoint and serves each shard through these methods. http.go
// keeps the wire types those endpoints render, the error-to-status
// mapping, and the JSON writer.
package service

import (
	"context"
	"fmt"
	"math"
	"slices"
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

// WithTimeout sets a per-request deadline applied to every Estimate and
// EstimateBatch call on top of the caller's context (0 disables). The
// deadline is taken when the call starts and checked where the caller's
// context is, before each root-variable group of an executed plan, so
// a result-cache hit is never refused; an expired deadline fails the
// estimate with context.DeadlineExceeded.
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
// (drift window/threshold, drift callback).
func WithAccuracy(opts ...accuracy.MonitorOption) Option {
	return func(s *Service) { s.monOpts = append(s.monOpts, opts...) }
}

// WithSLO configures the service's availability/latency objectives:
// multi-window (5m/1h) error-budget burn rates over the request window
// every estimate is written to, reported at GET /debug/slo and as
// xcluster_slo_* gauges. The zero config (the default) disables them.
func WithSLO(cfg obs.SLOConfig) Option {
	return func(s *Service) { s.sloCfg = cfg }
}

// WithWorkloadProfile configures the live workload profiler: capacity
// is the number of distinct query shapes its space-saving table tracks
// (profile.DefaultCapacity when 0; negative disables profiling
// entirely). Rates and traffic shares cover the trailing
// profile.RateWindow. The profiler is on by
// default: its hot-path cost is a handful of atomic updates per
// estimate (BenchmarkEstimateTelemetry prices it), and its output —
// GET /debug/workload, xcluster_workload_* series, and the exported
// WorkloadProfile artifact — is what workload-adaptive rebuilds
// consume.
func WithWorkloadProfile(capacity int) Option {
	return func(s *Service) { s.profCap = capacity }
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
	timeout time.Duration
	start   time.Time

	// Stored estimator configuration, replayed onto every estimator the
	// lifecycle installs so generations only differ by their synopsis.
	cacheCap    int
	cacheCapSet bool
	planCap     int
	planCapSet  bool

	// Lifecycle state: swapMu serializes installs, source re-reads the
	// synopsis for Reload, onSwap observes transitions, and rb (under
	// rbMu) is the rebuilder's status, whose Running flag single-flights
	// Rebuild. See lifecycle.go.
	swapMu         sync.Mutex
	source         func(context.Context) (*core.Synopsis, error)
	onSwap         func(SwapEvent)
	rebuildOnDrift bool
	rbMu           sync.Mutex
	rb             RebuildStatus
	defaultBstr    int
	defaultBval    int
	buildWorkers   int

	// Adaptive budget planning (see adaptive.go): planMu guards the
	// last planning run recorded for GET /debug/budget.
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
	prof    *profile.Profiler
	profCap int

	// reqs is the shard's one window over its estimates, behind the
	// /stats percentiles and the SLO views; slo reads error-budget burn
	// rates from it (nil: no objectives configured).
	reqs   *obs.RequestWindow
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
	// served and slowTotal mirror reqHist.Count() and slow.Total(),
	// stored at scrape time (SyncMetrics): each fact is counted once.
	stages       stageMetrics
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
	s := &Service{start: time.Now(), reg: obs.NewRegistry()}
	for _, opt := range opts {
		opt(s)
	}
	s.reqs = obs.NewRequestWindow(s.sloCfg.LatencyObjective)
	s.slo = obs.NewSLOTracker(s.sloCfg, s.reqs)
	if s.profCap >= 0 {
		s.prof = profile.New(s.profCap)
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

// Per-estimate metric families the service records from each trace.
const (
	// metricStageSeconds is a histogram of per-stage wall time of the
	// estimation pipeline, labeled stage="parse|canonicalize|
	// result_cache|plan_cache|compile|execute".
	metricStageSeconds = "xcluster_pipeline_stage_seconds"
	// metricCacheLookups counts estimate-pipeline cache lookups,
	// labeled cache="result|plan" and outcome="hit|miss".
	metricCacheLookups = "xcluster_cache_lookups_total"
)

// stageMetrics are the pipeline series of metricStageSeconds and
// metricCacheLookups, resolved once in wireMetrics: one histogram per
// stage and one counter per cache outcome.
type stageMetrics struct {
	parse, canonicalize, resultCache, planCache, compile, execute *obs.Histogram
	resultHit, resultMiss, planHit, planMiss                      *obs.Counter
}

func newStageMetrics(r *obs.Registry) stageMetrics {
	stage := func(name string) *obs.Histogram {
		return r.Histogram(metricStageSeconds, `stage="`+name+`"`, nil)
	}
	lookups := func(labels string) *obs.Counter { return r.Counter(metricCacheLookups, labels) }
	return stageMetrics{
		parse:        stage(core.StageParse),
		canonicalize: stage(core.StageCanonicalize),
		resultCache:  stage(core.StageResultCache),
		planCache:    stage(core.StagePlanCache),
		compile:      stage(core.StageCompile),
		execute:      stage(core.StageExecute),
		resultHit:    lookups(`cache="result",outcome="hit"`),
		resultMiss:   lookups(`cache="result",outcome="miss"`),
		planHit:      lookups(`cache="plan",outcome="hit"`),
		planMiss:     lookups(`cache="plan",outcome="miss"`),
	}
}

// record observes each stage the trace ran, and one cache lookup per
// cache-lookup stage.
func (m *stageMetrics) record(tr *core.EstimateTrace) {
	for _, sp := range tr.Spans {
		var h *obs.Histogram
		switch sp.Stage {
		case core.StageCanonicalize:
			h = m.canonicalize
		case core.StageResultCache:
			h = m.resultCache
			countLookup(tr.ResultCacheHit, m.resultHit, m.resultMiss)
		case core.StagePlanCache:
			h = m.planCache
			countLookup(tr.PlanCacheHit, m.planHit, m.planMiss)
		case core.StageCompile:
			h = m.compile
		case core.StageExecute:
			h = m.execute
		default:
			continue
		}
		h.Observe(sp.Duration.Seconds())
	}
}

func countLookup(hit bool, hits, misses *obs.Counter) {
	if hit {
		hits.Inc()
	} else {
		misses.Inc()
	}
}

// wireMetrics registers help text and resolves the hot-path series.
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
	r.Help(metricStageSeconds, "Wall time per estimation pipeline stage.")
	r.Help(metricCacheLookups, "Estimate-pipeline cache lookups, by cache and outcome.")
	r.Help(core.MetricBuildPhaseSeconds, "Synopsis build phase wall time.")
	r.Help(core.MetricBuildMergesTotal, "Node merges applied by synopsis builds.")
	r.Help(core.MetricBuildPairsTotal, "Merge-candidate evaluations by synopsis builds, by outcome (computed, memo_hit, memo_partial).")
	s.stages = newStageMetrics(r)
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
// the answered and slow-logged counts (from the latency histogram and
// the slow log, which count them), the estimator's authoritative cache
// counters (the same values Stats reports, so the two views cannot
// disagree), cache occupancy, synopsis size, uptime, shadow counters,
// and the workload, budget, and SLO gauges. The catalog calls it for
// each shard before a GET /metrics render.
func (s *Service) SyncMetrics() {
	r := s.reg
	sl := s.cur.Load()
	s.served.Store(s.reqHist.Count())
	s.slowTotal.Store(s.slow.Total())
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
func (s *Service) RequestsTotal() uint64 { return s.reqHist.Count() + s.failed.Value() }

// Synopsis returns the currently served synopsis generation.
func (s *Service) Synopsis() *core.Synopsis { return s.cur.Load().syn }

// Estimator returns the current generation's estimator (for callers
// that want direct access, e.g. core.Estimator.Explain). A hot swap
// replaces it; hold the returned pointer across related calls if
// cross-call consistency matters.
func (s *Service) Estimator() *core.Estimator { return s.cur.Load().est }

// Registry returns the registry the service emits every metric into,
// its rebuilds' included; each service owns its own.
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
	s.inflightWG.Add(1)
	defer s.inflightWG.Done()
	return s.estimateOne(ctx, s.deadline(), s.cur.Load(), q, "", new(core.EstimateTrace))
}

// deadline returns the service deadline of one Estimate or
// estimateBatch call, the zero time when WithTimeout is off. It is a
// plain time the estimator checks beside ctx, not a derived context: a
// timer per call would cost more than a result-cache hit, which never
// checks it.
func (s *Service) deadline() time.Time {
	if s.timeout <= 0 {
		return time.Time{}
	}
	return time.Now().Add(s.timeout)
}

// estimateOne runs one estimate against the pinned slot, traced into
// tr, and records it. The caller pins the slot so one logical operation
// (a single estimate, or a whole batch) runs coherently on one
// generation even while a hot swap installs the next. canonical is q's
// canonical string when the caller already computed it (a parse through
// the text cache, or the batch warm pass), "" otherwise. deadline is
// the call's service deadline (zero for none). tr must stay unchanged
// afterwards: the request's span tree may keep it.
func (s *Service) estimateOne(ctx context.Context, deadline time.Time, sl *slot, q *query.Query, canonical string, tr *core.EstimateTrace) (float64, error) {
	s.inflight.Add(1)
	defer s.inflight.Add(-1)
	v, err := sl.est.SelectivityTracedCanonical(ctx, q, canonical, deadline, tr)
	s.record(ctx, sl, q, tr, err)
	return v, err
}

// record writes one estimate down, once. Every per-request sink reads
// the estimate's own trace — its start and total (the one clock),
// stages, canonical query and estimate — so nothing is timed or copied
// twice: the stage and cache-lookup series, the workload profiler, the
// request window, the request's span tree (which keeps the trace itself),
// then, for an answered estimate, the latency histogram, the slow-query
// log and the shadow sampler; a failed one counts as failed. The slow
// log's plan summary is resolved through the plan cache, so its cost is
// paid only by queries already slow enough to log.
func (s *Service) record(ctx context.Context, sl *slot, q *query.Query, tr *core.EstimateTrace, err error) {
	s.stages.record(tr)
	// The profiler reuses the trace's canonical string and hash, so its
	// hit path is a read-locked map probe plus atomic counter bumps.
	shapeID := ""
	if s.prof != nil {
		shapeID = s.prof.Record(tr.Start, q, tr.Canonical, tr.CanonicalHash, tr.Total, tr.Estimate, err != nil)
	}
	s.reqs.Observe(tr.Start, tr.Total, err != nil)
	// One context lookup is the whole per-estimate tracing cost when the
	// request carries no span (a direct Go API caller).
	if sp := obs.SpanFrom(ctx); sp != nil {
		sp.AddRun(tr, err)
	}
	if err != nil {
		s.failed.Inc()
		return
	}
	s.reqHist.Observe(tr.Total.Seconds())
	if s.slow != nil && tr.Total >= s.slow.Threshold() {
		planSummary := ""
		if pq, err := sl.est.Prepare(q); err == nil {
			planSummary = pq.PlanSummary()
		}
		spans := make([]obs.SlowLogSpan, len(tr.Spans))
		for i, sp := range tr.Spans {
			spans[i] = obs.SlowLogSpan{Stage: sp.Stage, Nanos: sp.Duration.Nanoseconds()}
		}
		s.slow.Record(obs.SlowLogEntry{
			Time:       tr.Start.Add(tr.Total),
			RequestID:  obs.RequestIDFrom(ctx),
			ShapeID:    shapeID,
			Query:      tr.Canonical,
			Plan:       planSummary,
			Estimate:   tr.Estimate,
			TotalNanos: tr.Total.Nanoseconds(),
			Spans:      spans,
		})
	}
	if s.shadow != nil {
		// Pair the trace's estimate with exact ground truth off the
		// serving path; Offer never blocks.
		s.shadow.Offer(q, tr.Estimate)
	}
}

// EstimateBatch answers a batch of queries in order, on the caller's
// goroutine. Results are positional: out[i] is the selectivity of
// qs[i]. canonicals is nil, or holds each query's canonical string
// (canonicals[i] == qs[i].String(), as ParseQuery returns it), so a
// caller estimating the same queries on several services canonicalizes
// them once. The first error (a context error, say) aborts the
// remaining queries and is returned; already-computed entries stay in
// the slice. Concurrency comes from the callers: the catalog's scatter
// pool runs one shard's batch per goroutine.
func (s *Service) EstimateBatch(ctx context.Context, qs []*query.Query, canonicals []string) ([]float64, error) {
	bp := batchPool.Get().(*[]batchQuery)
	batch := slices.Grow((*bp)[:0], len(qs))[:len(qs)]
	// A request's span tree may keep the traces past the call, so they
	// live in one slice of their own, not in the pooled records.
	traces := make([]core.EstimateTrace, len(qs))
	for i, q := range qs {
		batch[i] = batchQuery{q: q, pos: i, tr: &traces[i]}
		if canonicals != nil {
			batch[i].canonical = canonicals[i]
		}
	}
	err := s.estimateBatch(ctx, s.cur.Load(), batch)
	out := make([]float64, len(qs))
	for i := range batch {
		out[i] = batch[i].sel
	}
	if cap(batch) <= maxPooledBatch {
		clear(batch) // the pool must not keep queries and traces alive
		*bp = batch[:0]
		batchPool.Put(bp)
	}
	return out, err
}

// batchPool recycles EstimateBatch's records. The catalog's scatter
// calls EstimateBatch once per shard per request, and only the
// estimates and traces outlive the call.
var batchPool = sync.Pool{New: func() any { return new([]batchQuery) }}

// maxPooledBatch is the largest record slice EstimateBatch returns to
// the pool, so one huge batch does not pin its memory.
const maxPooledBatch = 1024

// batchQuery is one query's record on its way through estimateBatch:
// the parsed query and its canonical string (from the caller, or ""
// until prepareShapes computes it), then its estimate and pipeline
// trace. tr points at the trace: EstimateBatch's own slice, or else the
// record's trace field, and nil until the batch reaches the query. pos
// is the query's index in the caller's list (qs for EstimateBatch, the
// request's queries for RunEstimateRequest, which leaves unparseable
// ones out of the batch), and a whole-batch error names it.
// RunEstimateRequest also keeps the query's parse time here, so a
// request needs one slice of records, traces included, however many
// queries it carries. A record must not be copied once its trace is
// filled: the trace's Spans alias its own storage.
type batchQuery struct {
	q         *query.Query
	canonical string
	sel       float64
	tr        *core.EstimateTrace
	pos       int
	parse     time.Duration
	trace     core.EstimateTrace
}

// estimateBatch answers the batch in place on a pinned slot: every
// query of the batch is answered by the same generation even if a swap
// lands mid-batch. An estimate is traced where its record's tr points,
// or into the record itself, and the request's span, when there is
// one, makes room for all of them at once.
func (s *Service) estimateBatch(ctx context.Context, sl *slot, batch []batchQuery) error {
	s.inflightWG.Add(1)
	defer s.inflightWG.Done()
	if len(batch) == 0 {
		return nil
	}
	s.batches.Inc()
	s.batchQueries.Add(uint64(len(batch)))
	deadline := s.deadline()
	if err := s.prepareShapes(sl, batch); err != nil {
		return err
	}
	if sp := obs.SpanFrom(ctx); sp != nil {
		sp.Grow(len(batch))
	}
	for i := range batch {
		bq := &batch[i]
		if bq.tr == nil {
			bq.tr = &bq.trace
		}
		v, err := s.estimateOne(ctx, deadline, sl, bq.q, bq.canonical, bq.tr)
		if err != nil {
			return fmt.Errorf("service: query %d: %w", bq.pos, err)
		}
		bq.sel = v
	}
	return nil
}

// prepareShapes looks each of the batch's queries up in the
// estimator's plan cache (core.Estimator.WarmPlan: canonicalize unless
// the record already holds the canonical string, then one plan-cache
// lookup, compiling on a miss) and stores the canonical strings in the
// records, where the batch's estimates reuse them. A query whose
// answer the result cache holds and whose plan the plan cache does not
// is skipped, so the pass compiles only what the estimates will
// execute. What it still adds is one plan-cache lookup for each query
// whose answer and plan are both cached. The serving benchmark's plan
// hit rate counts those lookups (on a result-cache hit they are the
// only ones), which is why the pass is still here. With the plan cache
// disabled it only canonicalizes.
func (s *Service) prepareShapes(sl *slot, batch []batchQuery) error {
	for i := range batch {
		bq := &batch[i]
		c, err := sl.est.WarmPlan(bq.q, bq.canonical)
		if err != nil {
			return fmt.Errorf("service: query %d: %w", bq.pos, err)
		}
		bq.canonical = c
	}
	return nil
}

// ParseQuery parses a query text through the serving estimator's text
// cache (core.Estimator.ParseQuery), returning the query and its
// canonical string. A parse depends on neither the synopsis nor its
// generation, so the result is valid on every service: the catalog's
// scatter parses each text once, here on the tenant's first shard, and
// hands the query to every shard.
func (s *Service) ParseQuery(text string) (*query.Query, string, error) {
	return s.cur.Load().est.ParseQuery(text)
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

// explainPlan compiles one query on a pinned slot and renders its
// compiled plan: the resolved frontier clusters, bound term weights,
// and subproblem structure of the canonicalize → compile → execute
// pipeline.
func (sl *slot) explainPlan(q *query.Query) (string, error) {
	pq, err := sl.est.Prepare(q)
	if err != nil {
		return "", err
	}
	return pq.ExplainPlan(), nil
}

// explain returns up to limit formatted embeddings (query variables →
// synopsis clusters with per-embedding tuple counts) for one query on a
// pinned slot.
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
	// P50, P95 and P99 are latency percentiles of the queries answered
	// in the trailing five minutes, interpolated within the latency
	// buckets /metrics exports, read from the request window /debug/slo
	// also reads.
	P50, P95, P99 time.Duration
	// LatencySamples is the number of samples behind the percentiles:
	// the queries answered in the trailing five minutes.
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
	recent := s.reqs.Trailing(time.Now(), obs.ShortWindow)
	sl := s.cur.Load()
	return Stats{
		Served:         s.reqHist.Count(),
		Failed:         s.failed.Value(),
		Cache:          sl.est.CacheStats(),
		PlanCache:      sl.est.PlanCacheStats(),
		Generation:     sl.syn.Fingerprint().Generation,
		Swaps:          s.swaps.Value(),
		P50:            secondsDuration(recent.Quantile(0.50)),
		P95:            secondsDuration(recent.Quantile(0.95)),
		P99:            secondsDuration(recent.Quantile(0.99)),
		LatencySamples: int(recent.Answered()),
		SlowQueries:    s.slow.Total(),
		Uptime:         time.Since(s.start),
	}
}

// secondsDuration converts a seconds float into a Duration, rounded to
// the nanosecond (interpolated percentiles are rarely whole).
func secondsDuration(sec float64) time.Duration {
	return time.Duration(math.Round(sec * float64(time.Second)))
}
