package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"time"

	"xcluster/internal/catalog"
	"xcluster/internal/core"
	"xcluster/internal/query"
	"xcluster/internal/service"
	"xcluster/internal/xmltree"
)

// layer is one timed boundary of the traced replay.
type layer int

const (
	lWire     layer = iota // request over loopback to the daemon
	lServe                 // catalog Handler().ServeHTTP in process
	lDecode                // JSON request decode
	lParse                 // query.Parse of every query text
	lCanon                 // (*query.Query).String of every query
	lRequest               // service RunEstimateRequest on every shard
	lScatter               // catalog ScatterEstimate over the tenant
	lEstimate              // core SelectivityContext, default caches
	lCompile               // core Prepare on a cache-less estimator
	lExecute               // core PreparedQuery.Selectivity
	lEncode                // JSON response encode (service.WriteJSON)
	nLayers
)

var layerNames = [nLayers]string{
	"http.wire", "catalog.serve", "wire.decode", "query.parse", "query.canonicalize",
	"service.request", "catalog.scatter", "core.estimate", "core.compile", "core.execute", "wire.encode",
}

// parentOf names the layer whose time includes l's, "" for a root. The
// layers run one after another on separate instances, so the relation
// is the program's call structure, not temporal nesting.
func parentOf(l layer, scatter bool) string {
	switch l {
	case lServe:
		return layerNames[lWire]
	case lDecode, lEncode:
		return layerNames[lServe]
	case lParse:
		if scatter {
			return layerNames[lServe]
		}
		return layerNames[lRequest]
	case lRequest:
		if scatter {
			return layerNames[lScatter]
		}
		return layerNames[lServe]
	case lScatter:
		if scatter {
			return layerNames[lServe]
		}
		return ""
	case lEstimate:
		return layerNames[lRequest]
	case lCanon, lCompile, lExecute:
		return layerNames[lEstimate]
	}
	return ""
}

// maxSpanRequests bounds how many timed requests keep their spans.
const maxSpanRequests = 2000

type span struct {
	Request int    `json:"request"`
	Body    int    `json:"body"`
	Layer   string `json:"layer"`
	StartNs int64  `json:"start_ns"`
	EndNs   int64  `json:"end_ns"`
	Parent  string `json:"parent,omitempty"`
}

// daemonShardOptions are the serving-path service options xclusterd
// applies to every shard at its default flags (-timeout 5s, -slowquery
// 100ms), so in-process instances serve like the daemon's shards.
func daemonShardOptions(catalog.ShardSpec) []service.Option {
	return []service.Option{
		service.WithTimeout(5 * time.Second),
		service.WithSlowQueryLog(100*time.Millisecond, 0),
	}
}

// newCatalog assembles an in-process catalog from the run's manifest,
// each shard serving a freshly decoded copy of the daemon's artifact.
func (in *inputs) newCatalog() (*catalog.Catalog, error) {
	m, err := catalog.LoadManifestFile(in.manifest)
	if err != nil {
		return nil, err
	}
	byName := make(map[string]*collection, len(in.colls))
	for _, c := range in.colls {
		byName[c.name] = c
	}
	def, _ := m.DefaultKey()
	cat, err := catalog.New(catalog.Config{
		Loader: func(_ context.Context, sp catalog.ShardSpec) (*core.Synopsis, *xmltree.Tree, error) {
			c := byName[sp.Collection]
			syn, err := c.decode()
			if sp.Document == "" {
				return syn, nil, err
			}
			return syn, c.tree, err
		},
		ShardOptions:   daemonShardOptions,
		ScatterWorkers: m.ScatterWorkers,
		DefaultKey:     def,
	})
	if err != nil {
		return nil, err
	}
	return cat, cat.AttachManifest(context.Background(), m)
}

// replayer drives one request at a time through every layer.
type replayer struct {
	in      *inputs
	scatter bool // requests scatter over the tenant's collections

	wire     *conn
	wireReqs [][]byte
	wireCk   checker
	serve    http.Handler
	serveCk  checker
	scat     *catalog.Catalog
	svcs     []*service.Service
	ests     []*core.Estimator // default caches, no metric sink
	cold     []*core.Estimator // no caches: every Prepare compiles
	out      discard

	start time.Time
	timed int
	sum   [nLayers]time.Duration
	spans []span

	allocs    [1]metrics.Sample // this process's cumulative heap allocation
	collected uint64            // its value at the last collection

	attempted, failed int64
}

// discard is a ResponseWriter that drops the body, so wire.encode times
// the encoder alone.
type discard struct{ h http.Header }

func (d *discard) Header() http.Header         { return d.h }
func (d *discard) Write(b []byte) (int, error) { return len(b), nil }
func (d *discard) WriteHeader(int)             {}

func newReplayer(in *inputs, d *daemon) (*replayer, error) {
	r := &replayer{
		in:      in,
		scatter: len(in.colls) > 1,
		wire:    &conn{addr: d.addr},
		wireCk:  newChecker(in),
		serveCk: newChecker(in),
		out:     discard{h: http.Header{}},
		allocs:  [1]metrics.Sample{{Name: "/gc/heap/allocs:bytes"}},
	}
	for _, b := range in.bodies {
		r.wireReqs = append(r.wireReqs, rawRequest(d.addr, "/estimate", b))
	}
	serveCat, err := in.newCatalog()
	if err != nil {
		return nil, err
	}
	r.serve = serveCat.Handler()
	if r.scat, err = in.newCatalog(); err != nil {
		return nil, err
	}
	svcCat, err := in.newCatalog()
	if err != nil {
		return nil, err
	}
	for _, c := range in.colls {
		sh, err := svcCat.Shard(tenant, c.name)
		if err != nil {
			return nil, err
		}
		r.svcs = append(r.svcs, sh.Service())
		syn, err := c.decode()
		if err != nil {
			return nil, err
		}
		r.ests = append(r.ests, core.NewEstimator(syn))
		if syn, err = c.decode(); err != nil {
			return nil, err
		}
		cold := core.NewEstimator(syn)
		cold.SetCacheCapacity(0)
		cold.SetPlanCacheCapacity(0)
		r.cold = append(r.cold, cold)
	}
	return r, nil
}

// replayGCBytes is how much the replay allocates between collections.
const replayGCBytes = 64 << 20

// collect runs the garbage collector between requests once enough has
// been allocated. The replay turns automatic collection off, so no
// timed layer absorbs a collection that happened to start inside it.
func (r *replayer) collect() {
	metrics.Read(r.allocs[:])
	if n := r.allocs[0].Value.Uint64(); n-r.collected >= replayGCBytes {
		runtime.GC()
		r.collected = n
	}
}

func sameBits(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

// parse parses texts untimed.
func parse(texts []string) ([]*query.Query, error) {
	qs := make([]*query.Query, len(texts))
	for j, t := range texts {
		var err error
		if qs[j], err = query.Parse(t); err != nil {
			return nil, err
		}
	}
	return qs, nil
}

// request replays body i through every layer, checking each layer's
// answers, and accumulates the timings when record is set.
func (r *replayer) request(i int, record bool) error {
	ctx := context.Background()
	in := r.in
	texts, body, want := in.texts[i], in.bodies[i], in.expect[i]
	ok := true
	var marks [nLayers][2]time.Time
	mark := func(l layer, t0 time.Time) { marks[l] = [2]time.Time{t0, time.Now()} }

	t0 := time.Now()
	status, resp, err := r.wire.roundTrip(r.wireReqs[i])
	mark(lWire, t0)
	ok = ok && err == nil && r.wireCk.ok(i, status, resp)

	hreq := httptest.NewRequest(http.MethodPost, "/estimate", bytes.NewReader(body))
	rec := httptest.NewRecorder()
	t0 = time.Now()
	r.serve.ServeHTTP(rec, hreq)
	mark(lServe, t0)
	ok = ok && r.serveCk.ok(i, rec.Code, rec.Body.Bytes())

	var dreq catalog.EstimateRequest
	t0 = time.Now()
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	err = dec.Decode(&dreq)
	mark(lDecode, t0)
	ok = ok && err == nil && len(dreq.Queries) == len(texts)

	qs := make([]*query.Query, len(texts))
	var perr error
	t0 = time.Now()
	for j, t := range texts {
		if qs[j], err = query.Parse(t); err != nil {
			perr = err
		}
	}
	mark(lParse, t0)
	if perr != nil {
		return perr
	}

	// Every layer below gets its own parsed copies (the parse layer's go
	// to the scatter), so none runs on query values another has touched.
	cq, err := parse(texts)
	if err != nil {
		return err
	}
	canon := make([]string, len(cq))
	t0 = time.Now()
	for j, q := range cq {
		canon[j] = q.String()
	}
	mark(lCanon, t0)
	for j := range canon {
		ok = ok && canon[j] == texts[j]
	}

	resps := make([]service.EstimateResponse, len(r.svcs))
	errs := make([]error, len(r.svcs))
	t0 = time.Now()
	for k, svc := range r.svcs {
		resps[k], errs[k] = svc.RunEstimateRequest(ctx, service.EstimateRequest{Queries: texts})
	}
	mark(lRequest, t0)
	for k := range r.svcs {
		ok = ok && errs[k] == nil && len(resps[k].Results) == len(texts)
		for j := 0; ok && j < len(texts); j++ {
			sel := resps[k].Results[j].Selectivity
			ok = sel != nil && sameBits(*sel, in.perColl[texts[j]][k])
		}
	}

	t0 = time.Now()
	sres, err := r.scat.ScatterEstimate(ctx, tenant, qs)
	mark(lScatter, t0)
	ok = ok && err == nil && sres.Complete() && len(sres.Selectivities) == len(want)
	for j := 0; ok && j < len(want); j++ {
		ok = sameBits(sres.Selectivities[j], want[j])
	}

	// The response the daemon's handler renders for this request.
	var rendered any = resps[0]
	if r.scatter && sres != nil {
		results := make([]catalog.ScatterQueryResult, len(texts))
		for j := range texts {
			results[j] = catalog.ScatterQueryResult{Query: texts[j], Selectivity: &sres.Selectivities[j]}
		}
		rendered = catalog.ScatterResponse{Tenant: tenant, Collections: sres.Collections, Results: results}
	}
	t0 = time.Now()
	service.WriteJSON(&r.out, http.StatusOK, rendered)
	mark(lEncode, t0)

	eq, err := parse(texts)
	if err != nil {
		return err
	}
	vals := make([]float64, len(r.ests)*len(eq))
	var eerr error
	t0 = time.Now()
	for k, est := range r.ests {
		for j, q := range eq {
			if vals[k*len(eq)+j], err = est.SelectivityContext(ctx, q); err != nil {
				eerr = err
			}
		}
	}
	mark(lEstimate, t0)
	ok = ok && eerr == nil && r.matchPerColl(texts, vals)

	pq, err := parse(texts)
	if err != nil {
		return err
	}
	prepared := make([]*core.PreparedQuery, len(r.cold)*len(pq))
	var cerr error
	t0 = time.Now()
	for k, est := range r.cold {
		for j, q := range pq {
			if prepared[k*len(pq)+j], err = est.Prepare(q); err != nil {
				cerr = err
			}
		}
	}
	mark(lCompile, t0)
	if cerr != nil {
		return cerr
	}
	t0 = time.Now()
	for x, p := range prepared {
		vals[x] = p.Selectivity()
	}
	mark(lExecute, t0)
	ok = ok && r.matchPerColl(texts, vals)

	r.attempted++
	if !ok {
		r.failed++
	}
	if !record {
		return nil
	}
	for l := range nLayers {
		r.sum[l] += marks[l][1].Sub(marks[l][0])
		if r.timed < maxSpanRequests {
			r.spans = append(r.spans, span{
				Request: r.timed,
				Body:    i,
				Layer:   layerNames[l],
				StartNs: marks[l][0].Sub(r.start).Nanoseconds(),
				EndNs:   marks[l][1].Sub(r.start).Nanoseconds(),
				Parent:  parentOf(l, r.scatter),
			})
		}
	}
	r.timed++
	return nil
}

// matchPerColl checks collection-major estimates against the oracle.
func (r *replayer) matchPerColl(texts []string, vals []float64) bool {
	for k := range r.in.colls {
		for j, t := range texts {
			if !sameBits(vals[k*len(texts)+j], r.in.perColl[t][k]) {
				return false
			}
		}
	}
	return true
}

// shardStats is the part of GET /stats the replay reads.
type shardStats struct {
	CacheHits       float64 `json:"cache_hits"`
	CacheMisses     float64 `json:"cache_misses"`
	PlanCacheHits   float64 `json:"plan_cache_hits"`
	PlanCacheMisses float64 `json:"plan_cache_misses"`
}

// cacheStats sums every shard's estimator cache counters.
func (in *inputs) cacheStats(addr string) (shardStats, error) {
	var sum shardStats
	for _, c := range in.colls {
		status, body, err := get(addr, fmt.Sprintf("/stats?tenant=%s&collection=%s", tenant, c.name))
		if err != nil {
			return sum, err
		}
		var st shardStats
		if status != http.StatusOK {
			return sum, fmt.Errorf("GET /stats: status %d", status)
		}
		if err := json.Unmarshal(body, &st); err != nil {
			return sum, err
		}
		sum.CacheHits += st.CacheHits
		sum.CacheMisses += st.CacheMisses
		sum.PlanCacheHits += st.PlanCacheHits
		sum.PlanCacheMisses += st.PlanCacheMisses
	}
	return sum, nil
}

// medianMillis times fn reps times and returns the median in ms.
func medianMillis(reps int, fn func() error) (float64, error) {
	ts := make([]float64, reps)
	for i := range ts {
		t0 := time.Now()
		if err := fn(); err != nil {
			return 0, err
		}
		ts[i] = float64(time.Since(t0)) / float64(time.Millisecond)
	}
	return median(ts), nil
}

// runReplay measures every layer on the workload's request stream:
// build and codec costs of the workload's own documents, then a
// single-threaded (GOMAXPROCS 1, daemon included) replay of client 0's
// stream through every layer, warmed for cfg.warmup and timed for
// cfg.window.
func runReplay(cfg config, in *inputs) (*report, error) {
	rep := &report{}
	var xmlParse, reference, compressMax, compress1, decodeMs, newEstMs float64
	var stats core.BuildStats
	for _, c := range in.colls {
		xmlParse += c.parseS
		reference += c.referenceS
		compressMax += c.compressS
		stats.PairsEvaluated += c.stats.PairsEvaluated
		stats.MemoHits += c.stats.MemoHits
		stats.MemoPartialHits += c.stats.MemoPartialHits
		opts := c.budgets
		opts.Workers = 1
		t0 := time.Now()
		if _, err := core.XClusterBuild(c.ref, opts); err != nil {
			return nil, err
		}
		compress1 += time.Since(t0).Seconds()
		var syn *core.Synopsis
		ms, err := medianMillis(5, func() (err error) { syn, err = c.decode(); return err })
		if err != nil {
			return nil, err
		}
		decodeMs += ms
		ms, _ = medianMillis(5, func() error { core.NewEstimator(syn); return nil })
		newEstMs += ms
	}

	d, err := startDaemon(cfg.daemonBin, in.manifest, filepath.Join(in.dir, "daemon-traced.log"), "GOMAXPROCS=1")
	if err != nil {
		return nil, err
	}
	defer d.stop() //nolint:errcheck // the run's result is already decided
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	r, err := newReplayer(in, d)
	if err != nil {
		return nil, err
	}
	defer r.wire.close()

	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	rng := rand.New(rand.NewSource(streamSeed(cfg.seed, 0)))
	for deadline := time.Now().Add(cfg.warmup); time.Now().Before(deadline); {
		if err := r.request(rng.Intn(len(in.bodies)), false); err != nil {
			return nil, err
		}
		r.collect()
	}
	before, err := sampleDaemon(d)
	if err != nil {
		return nil, err
	}
	cacheBefore, err := in.cacheStats(d.addr)
	if err != nil {
		return nil, err
	}
	r.start = time.Now()
	for deadline := r.start.Add(cfg.window); time.Now().Before(deadline); {
		if err := r.request(rng.Intn(len(in.bodies)), true); err != nil {
			return nil, err
		}
		r.collect()
	}
	after, err := sampleDaemon(d)
	if err != nil {
		return nil, err
	}
	cacheAfter, err := in.cacheStats(d.addr)
	if err != nil {
		return nil, err
	}
	if r.timed == 0 {
		return nil, errors.New("traced replay timed no request")
	}
	rep.attempted, rep.failed = r.attempted, r.failed

	n := float64(r.timed)
	per := func(l layer) float64 { return micros(r.sum[l]) / n }
	batch := float64(in.spec.batch)
	shards := float64(len(in.colls))
	estimates := batch * shards
	queries := n * batch

	wire, serve, request, scatter := per(lWire), per(lServe), per(lRequest), per(lScatter)
	decode, encode, parseReq := per(lDecode), per(lEncode), per(lParse)
	httpSelf := wire - serve
	catalogSelf := serve - decode - encode - request
	if r.scatter {
		catalogSelf = serve - decode - encode - parseReq - scatter
	}
	serviceSelf := request - shards*parseReq - per(lEstimate)
	consistent := 1.0
	for _, self := range []float64{httpSelf, catalogSelf, serviceSelf} {
		if self < -0.05*wire {
			consistent = 0
		}
	}
	hits, misses := cacheAfter.CacheHits-cacheBefore.CacheHits, cacheAfter.CacheMisses-cacheBefore.CacheMisses
	phits, pmisses := cacheAfter.PlanCacheHits-cacheBefore.PlanCacheHits, cacheAfter.PlanCacheMisses-cacheBefore.PlanCacheMisses

	rep.add("http.wire_us", "us", wire)
	rep.add("http.self_us", "us", httpSelf)
	rep.add("catalog.serve_us", "us", serve)
	rep.add("catalog.scatter_us", "us", scatter)
	rep.add("catalog.self_us", "us", catalogSelf)
	rep.add("wire.decode_us", "us", decode)
	rep.add("wire.encode_us", "us", encode)
	rep.add("service.request_us", "us", request)
	rep.add("service.self_us", "us", serviceSelf)
	rep.add("query.parse_us", "us", parseReq/batch)
	rep.add("query.canonicalize_us", "us", per(lCanon)/batch)
	rep.add("core.estimate_us", "us", per(lEstimate)/estimates)
	rep.add("core.compile_us", "us", per(lCompile)/estimates)
	rep.add("core.execute_us", "us", per(lExecute)/estimates)
	rep.add("core.result_hit_rate", "ratio", hits/(hits+misses))
	rep.add("core.plan_hit_rate", "ratio", phits/(phits+pmisses))
	rep.add("core.plan_lookups_per_query", "lookups", (phits+pmisses)/(n*estimates))
	rep.add("build.xml_parse_s", "s", xmlParse)
	rep.add("build.reference_s", "s", reference)
	rep.add("build.compress_s.w1", "s", compress1)
	rep.add("build.compress_s.wmax", "s", compressMax)
	rep.add("build.pairs_evaluated", "count", float64(stats.PairsEvaluated))
	rep.add("build.memo_hit_rate", "ratio", stats.MemoHitRate())
	rep.add("codec.decode_ms", "ms", decodeMs)
	rep.add("core.new_estimator_ms", "ms", newEstMs)
	rep.add("go.gc_per_kquery", "gc/kquery", (after.gcs-before.gcs)*1000/queries)
	rep.add("go.heap_bytes_per_query", "bytes", (after.bytes-before.bytes)/queries)
	rep.add("trace_consistent", "bool", consistent)
	rep.note("replayed_requests", "requests", n)
	rep.note("go.allocs_per_query", "allocs", (after.allocs-before.allocs)/queries)
	rep.note("cpu_us_per_query", "us", (after.cpu-before.cpu)*1e6/queries)

	return rep, r.writeSpans(filepath.Join(cfg.out, "spans-"+in.spec.name+".json"), cfg.seed)
}

// writeSpans writes the spans kept during the replay as one JSON
// document.
func (r *replayer) writeSpans(path string, seed int64) error {
	b, err := json.Marshal(map[string]any{
		"workload": r.in.spec.name,
		"seed":     seed,
		"note":     "each layer ran on its own instance, one after another; parent is the layer whose time includes this one",
		"spans":    r.spans,
	})
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
