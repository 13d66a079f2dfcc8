// Package catalog shards the corpus: it owns a registry of independent
// per-(tenant, collection) synopsis shards, routes documents to shards
// with a consistent-hash ring, and scatter-gathers estimates across a
// tenant's shards. Each shard is a complete service.Service — its own
// synopsis generations, hot-swap lifecycle, result/plan caches,
// accuracy monitor, shadow-sampling budget, and metrics registry — so
// tenants are isolated structurally rather than by bookkeeping: one
// tenant's traffic cannot evict another's cache entries, exhaust its
// shadow queue, or skew its accuracy series.
package catalog

import (
	"context"
	"fmt"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"xcluster/internal/core"
	"xcluster/internal/obs"
	"xcluster/internal/query"
	"xcluster/internal/service"
	"xcluster/internal/xmltree"
)

// Key addresses one shard: a tenant and one of its collections.
type Key struct {
	Tenant     string
	Collection string
}

// String renders the key as "tenant/collection".
func (k Key) String() string { return k.Tenant + "/" + k.Collection }

// Loader materializes a shard's synopsis (and, when the spec declares a
// document, its source tree) from a ShardSpec. The catalog calls it
// outside its locks, so loads of different shards proceed in parallel.
type Loader func(ctx context.Context, spec ShardSpec) (*core.Synopsis, *xmltree.Tree, error)

// Config configures New.
type Config struct {
	// Loader materializes shard synopses. Required.
	Loader Loader
	// ShardOptions contributes extra service options per shard (e.g.
	// slow-query logs, timeouts). Applied before the catalog's own
	// options, so the catalog's per-shard registry always wins.
	ShardOptions func(spec ShardSpec) []service.Option
	// ScatterWorkers bounds the scatter-gather pool
	// (<= 0: DefaultScatterWorkers).
	ScatterWorkers int
	// DefaultKey, when non-zero, names the shard that serves requests
	// carrying no tenant/collection addressing (single-tenant
	// compatibility). The shard need not exist yet at New time.
	DefaultKey Key
	// UnlabeledDefault renders the default shard's metrics without
	// tenant/collection labels, keeping a converted single-tenant
	// deployment's /metrics byte-compatible.
	UnlabeledDefault bool
}

// Shard is one attached (tenant, collection) member: a service plus the
// catalog bookkeeping around it.
type Shard struct {
	key Key
	svc *service.Service

	// draining flips once, when Detach claims the shard; estimates
	// observing it fail fast with ErrShardDraining.
	draining atomic.Bool

	// estimateBatch is the scatter path's estimate function; tests
	// substitute it to inject per-shard faults without touching the
	// service underneath.
	estimateBatch func(ctx context.Context, qs []*query.Query, canonicals []string) ([]float64, error)
}

// Key returns the shard's (tenant, collection) address.
func (sh *Shard) Key() Key { return sh.key }

// Service returns the shard's underlying service.
func (sh *Shard) Service() *service.Service { return sh.svc }

// tenantState groups a tenant's shards with the consistent-hash ring
// that routes the tenant's documents across them.
type tenantState struct {
	shards map[string]*Shard // by collection
	ring   *Ring             // members are collection names
}

// Catalog is a registry of shards addressed by (tenant, collection),
// safe for concurrent use. Attach/Detach mutate membership while
// estimates, scatters, and routing proceed against a consistent view.
type Catalog struct {
	cfg Config
	reg *obs.Registry

	mu      sync.RWMutex
	tenants map[string]*tenantState
	closed  bool

	// draining flips readiness (GET /readyz → 503) ahead of DrainAll:
	// the daemon calls BeginShutdown before closing the listener so load
	// balancers stop routing before in-flight work is waited out.
	draining atomic.Bool

	// traces retains completed request trace trees for the catalog's
	// /debug/traces; runtime samples runtime/metrics into the catalog
	// registry at scrape time.
	traces  *obs.TraceStore
	runtime *obs.RuntimeSampler

	scatterTotal  map[string]*obs.Counter // by outcome
	shardErrTotal map[string]*obs.Counter // by reason
}

// New returns an empty catalog. cfg.Loader is required.
func New(cfg Config) (*Catalog, error) {
	if cfg.Loader == nil {
		return nil, fmt.Errorf("catalog: Config.Loader is required")
	}
	if cfg.ScatterWorkers <= 0 {
		cfg.ScatterWorkers = DefaultScatterWorkers
	}
	c := &Catalog{
		cfg:     cfg,
		reg:     obs.NewRegistry(),
		tenants: make(map[string]*tenantState),
		traces:  obs.NewTraceStore(),
		runtime: obs.NewRuntimeSampler(),
	}
	c.reg.Help("xcluster_catalog_shards", "Attached shards in the catalog.")
	c.reg.Help("xcluster_catalog_scatter_total", "Scatter-gather estimate calls by outcome (ok, partial, failed).")
	c.reg.Help("xcluster_catalog_shard_errors_total", "Per-shard scatter failures by reason (deadline, draining, error).")
	c.scatterTotal = map[string]*obs.Counter{
		"ok":      c.reg.Counter("xcluster_catalog_scatter_total", `outcome="ok"`),
		"partial": c.reg.Counter("xcluster_catalog_scatter_total", `outcome="partial"`),
		"failed":  c.reg.Counter("xcluster_catalog_scatter_total", `outcome="failed"`),
	}
	c.shardErrTotal = map[string]*obs.Counter{
		ReasonDeadline: c.reg.Counter("xcluster_catalog_shard_errors_total", `reason="deadline"`),
		ReasonDraining: c.reg.Counter("xcluster_catalog_shard_errors_total", `reason="draining"`),
		ReasonError:    c.reg.Counter("xcluster_catalog_shard_errors_total", `reason="error"`),
	}
	c.reg.Gauge("xcluster_catalog_shards", "").Set(0)
	return c, nil
}

// BeginShutdown flips the catalog not-ready (GET /readyz → 503) without
// touching the serving paths. Call it before stopping the listener so
// load balancers drain traffic ahead of DrainAll.
func (c *Catalog) BeginShutdown() { c.draining.Store(true) }

// Ready reports whether the catalog should receive traffic, with a
// human-readable reason when it should not: false while shutting down
// or before the first shard (the first live synopsis generation) is
// attached.
func (c *Catalog) Ready() (bool, string) {
	if c.draining.Load() {
		return false, "draining"
	}
	c.mu.RLock()
	defer c.mu.RUnlock()
	if c.closed {
		return false, "draining"
	}
	for _, ts := range c.tenants {
		if len(ts.shards) > 0 {
			return true, "ready"
		}
	}
	return false, "no shards attached"
}

// DefaultKey returns the configured single-tenant compatibility key and
// whether one is set.
func (c *Catalog) DefaultKey() (Key, bool) {
	return c.cfg.DefaultKey, c.cfg.DefaultKey != Key{}
}

// Attach loads the spec's synopsis and adds the shard to the catalog.
// The load (the expensive part) runs outside the catalog lock, so
// concurrent attaches of different shards overlap; a duplicate key
// loses the race and its freshly built service is closed.
func (c *Catalog) Attach(ctx context.Context, spec ShardSpec) (*Shard, error) {
	if err := spec.validate(); err != nil {
		return nil, err
	}
	k := spec.Key()
	// Fast-path duplicate check before paying for the load.
	c.mu.RLock()
	if ts, ok := c.tenants[k.Tenant]; ok {
		if _, dup := ts.shards[k.Collection]; dup {
			c.mu.RUnlock()
			return nil, fmt.Errorf("catalog: shard %s already attached", k)
		}
	}
	closed := c.closed
	c.mu.RUnlock()
	if closed {
		return nil, fmt.Errorf("catalog: closed")
	}

	sh, err := c.buildShard(ctx, spec)
	if err != nil {
		return nil, err
	}

	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		sh.svc.Close()
		return nil, fmt.Errorf("catalog: closed")
	}
	ts, ok := c.tenants[k.Tenant]
	if !ok {
		ts = &tenantState{
			shards: make(map[string]*Shard),
			ring:   NewRing(DefaultRingReplicas),
		}
		c.tenants[k.Tenant] = ts
	}
	if _, dup := ts.shards[k.Collection]; dup {
		c.mu.Unlock()
		sh.svc.Close()
		return nil, fmt.Errorf("catalog: shard %s already attached", k)
	}
	ts.shards[k.Collection] = sh
	ts.ring.Add(k.Collection)
	c.mu.Unlock()
	c.reg.Gauge("xcluster_catalog_shards", "").Add(1)
	return sh, nil
}

// buildShard loads the synopsis and assembles the shard's service with
// its private registry and the spec's budgets.
func (c *Catalog) buildShard(ctx context.Context, spec ShardSpec) (*Shard, error) {
	syn, tree, err := c.cfg.Loader(ctx, spec)
	if err != nil {
		return nil, fmt.Errorf("catalog: loading shard %s: %w", spec.Key(), err)
	}
	if syn == nil {
		return nil, fmt.Errorf("catalog: loading shard %s: loader returned no synopsis", spec.Key())
	}
	var opts []service.Option
	if c.cfg.ShardOptions != nil {
		opts = append(opts, c.cfg.ShardOptions(spec)...)
	}
	if spec.Cache != 0 {
		opts = append(opts, service.WithCacheCapacity(spec.Cache))
	}
	if spec.PlanCache != 0 {
		opts = append(opts, service.WithPlanCacheCapacity(spec.PlanCache))
	}
	if tree != nil {
		opts = append(opts, service.WithDocument(tree))
	}
	if spec.ShadowRate > 0 {
		opts = append(opts, service.WithShadowSampling(spec.ShadowRate, spec.ShadowWorkers, spec.ShadowDeadline()))
	}
	if spec.RebuildOnDrift {
		opts = append(opts, service.WithRebuildOnDrift())
	}
	if spec.AdaptiveBudget {
		opts = append(opts, service.WithAdaptiveBudget())
	}
	if spec.StructBudget > 0 || spec.ValueBudget > 0 {
		opts = append(opts, service.WithRebuildBudgets(spec.StructBudget, spec.ValueBudget))
	}
	// Manifest objectives override any server-wide SLO defaults the
	// daemon put in ShardOptions (later options win).
	if spec.SLO().Enabled() {
		opts = append(opts, service.WithSLO(spec.SLO()))
	}
	// Reload re-runs the loader with the same spec, so per-shard
	// /admin/reload picks up a re-serialized synopsis.
	loader, loadSpec := c.cfg.Loader, spec
	opts = append(opts, service.WithSynopsisSource(func(ctx context.Context) (*core.Synopsis, error) {
		s, _, err := loader(ctx, loadSpec)
		return s, err
	}))
	svc := service.New(syn, opts...)
	sh := &Shard{key: spec.Key(), svc: svc}
	sh.estimateBatch = svc.EstimateBatch
	return sh, nil
}

// Detach drains the shard and removes it. The drain (waiting out
// in-flight estimates) runs outside the catalog lock; new estimates
// observing the draining flag fail fast with ErrShardDraining, and a
// concurrent second Detach of the same shard fails the same way.
func (c *Catalog) Detach(ctx context.Context, tenant, collection string) error {
	c.mu.RLock()
	sh, err := c.lookupLocked(tenant, collection)
	c.mu.RUnlock()
	if err != nil {
		return err
	}
	if !sh.draining.CompareAndSwap(false, true) {
		return service.ErrShardDraining
	}
	drainErr := sh.svc.Drain(ctx)

	c.mu.Lock()
	if ts, ok := c.tenants[tenant]; ok {
		if cur, ok := ts.shards[collection]; ok && cur == sh {
			delete(ts.shards, collection)
			ts.ring.Remove(collection)
			if len(ts.shards) == 0 {
				delete(c.tenants, tenant)
			}
		}
	}
	c.mu.Unlock()
	c.reg.Gauge("xcluster_catalog_shards", "").Add(-1)
	sh.svc.Close()
	if drainErr != nil {
		return fmt.Errorf("catalog: detaching %s/%s: drain: %w", tenant, collection, drainErr)
	}
	return nil
}

// lookupLocked resolves (tenant, collection) under c.mu (either mode),
// distinguishing unknown tenant, unknown collection, and draining.
func (c *Catalog) lookupLocked(tenant, collection string) (*Shard, error) {
	ts, ok := c.tenants[tenant]
	if !ok {
		return nil, fmt.Errorf("%w: %q", service.ErrUnknownTenant, tenant)
	}
	sh, ok := ts.shards[collection]
	if !ok {
		return nil, fmt.Errorf("%w: %q (tenant %q)", service.ErrUnknownCollection, collection, tenant)
	}
	if sh.draining.Load() {
		return nil, fmt.Errorf("%w: %s", service.ErrShardDraining, sh.key)
	}
	return sh, nil
}

// Shard resolves a serving shard, failing with ErrUnknownTenant,
// ErrUnknownCollection, or ErrShardDraining.
func (c *Catalog) Shard(tenant, collection string) (*Shard, error) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.lookupLocked(tenant, collection)
}

// DefaultShard resolves the single-tenant compatibility shard.
func (c *Catalog) DefaultShard() (*Shard, error) {
	def, ok := c.DefaultKey()
	if !ok {
		return nil, fmt.Errorf("%w: no default shard configured", service.ErrUnknownTenant)
	}
	return c.Shard(def.Tenant, def.Collection)
}

// RouteDocument returns the collection that owns docKey on the tenant's
// consistent-hash ring. Draining shards keep their arcs until detach
// completes, so routing stays stable during a drain.
func (c *Catalog) RouteDocument(tenant, docKey string) (Key, error) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	ts, ok := c.tenants[tenant]
	if !ok {
		return Key{}, fmt.Errorf("%w: %q", service.ErrUnknownTenant, tenant)
	}
	coll, ok := ts.ring.Locate(docKey)
	if !ok {
		return Key{}, fmt.Errorf("%w: tenant %q has no collections", service.ErrUnknownCollection, tenant)
	}
	return Key{Tenant: tenant, Collection: coll}, nil
}

// tenantShards snapshots a tenant's shards sorted by collection,
// including draining ones (the scatter path reports those as errors
// rather than silently shrinking coverage). The snapshot is never
// empty.
func (c *Catalog) tenantShards(tenant string) ([]*Shard, error) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	ts, ok := c.tenants[tenant]
	if !ok {
		return nil, fmt.Errorf("%w: %q", service.ErrUnknownTenant, tenant)
	}
	if len(ts.shards) == 0 {
		// Detaching the last shard removes the tenant, so this does not
		// happen, but guard anyway.
		return nil, fmt.Errorf("%w: tenant %q has no collections", service.ErrUnknownCollection, tenant)
	}
	out := make([]*Shard, 0, len(ts.shards))
	for _, sh := range ts.shards {
		out = append(out, sh)
	}
	slices.SortFunc(out, func(a, b *Shard) int { return strings.Compare(a.key.Collection, b.key.Collection) })
	return out, nil
}

// ShardInfo is one row of List: a shard's address and serving state.
type ShardInfo struct {
	Tenant     string    `json:"tenant"`
	Collection string    `json:"collection"`
	Generation uint64    `json:"generation"`
	Installed  time.Time `json:"installed"`
	Draining   bool      `json:"draining,omitempty"`
	Clusters   int       `json:"clusters"`
	Bytes      int       `json:"bytes"`
}

// allShards snapshots every shard, sorted by (tenant, collection).
func (c *Catalog) allShards() []*Shard {
	c.mu.RLock()
	shards := make([]*Shard, 0, 8)
	for _, ts := range c.tenants {
		for _, sh := range ts.shards {
			shards = append(shards, sh)
		}
	}
	c.mu.RUnlock()
	sortShards(shards)
	return shards
}

// sortShards orders shards by (tenant, collection).
func sortShards(shards []*Shard) {
	sort.Slice(shards, func(i, j int) bool {
		if shards[i].key.Tenant != shards[j].key.Tenant {
			return shards[i].key.Tenant < shards[j].key.Tenant
		}
		return shards[i].key.Collection < shards[j].key.Collection
	})
}

// List snapshots every shard, sorted by tenant then collection.
func (c *Catalog) List() []ShardInfo {
	shards := c.allShards()
	out := make([]ShardInfo, len(shards))
	for i, sh := range shards {
		syn := sh.svc.Synopsis()
		info := ShardInfo{
			Tenant:     sh.key.Tenant,
			Collection: sh.key.Collection,
			Generation: sh.svc.Generation(),
			Installed:  sh.svc.Installed(),
			Draining:   sh.draining.Load(),
		}
		if syn != nil {
			info.Clusters = syn.NumNodes()
			info.Bytes = syn.TotalBytes()
		}
		out[i] = info
	}
	return out
}

// Tenants returns the tenant names, sorted.
func (c *Catalog) Tenants() []string {
	c.mu.RLock()
	defer c.mu.RUnlock()
	out := make([]string, 0, len(c.tenants))
	for t := range c.tenants {
		out = append(out, t)
	}
	sort.Strings(out)
	return out
}

// DrainAll drains every shard in deterministic (tenant, collection)
// order and closes the catalog; later Attach calls fail. Used at
// daemon shutdown.
func (c *Catalog) DrainAll(ctx context.Context) error {
	c.draining.Store(true)
	c.mu.Lock()
	c.closed = true
	shards := make([]*Shard, 0, 8)
	for _, ts := range c.tenants {
		for _, sh := range ts.shards {
			shards = append(shards, sh)
		}
	}
	c.tenants = make(map[string]*tenantState)
	c.mu.Unlock()
	sortShards(shards)
	var firstErr error
	for _, sh := range shards {
		sh.draining.Store(true)
		if err := sh.svc.Drain(ctx); err != nil && firstErr == nil {
			firstErr = fmt.Errorf("catalog: draining %s: %w", sh.key, err)
		}
		sh.svc.Close()
	}
	return firstErr
}

// AttachManifest attaches every shard in the manifest, failing on the
// first error (already-attached shards stay attached).
func (c *Catalog) AttachManifest(ctx context.Context, m *Manifest) error {
	if err := m.Validate(); err != nil {
		return err
	}
	for _, spec := range m.Shards {
		if _, err := c.Attach(ctx, spec); err != nil {
			return err
		}
	}
	return nil
}
