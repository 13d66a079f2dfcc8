package catalog

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"time"

	"xcluster/internal/obs"
)

// nameMaxLen bounds tenant and collection names.
const nameMaxLen = 128

// Bounds on the sizes a manifest or an attach request can set. Both
// caches are rebuilt on every hot swap, and each shadow worker is a
// goroutine, so an unbounded value from outside could exhaust memory.
const (
	// MaxCacheCapacity bounds a shard's result and plan cache
	// capacities (cache, plan_cache; xclusterd -cache, -plancache).
	MaxCacheCapacity = 1 << 20
	// MaxShadowWorkers bounds a shard's shadow evaluation goroutines
	// (shadow_workers; xclusterd -shadow-workers).
	MaxShadowWorkers = 64
)

// ValidName reports whether s is a legal tenant or collection name:
// 1-128 characters from [A-Za-z0-9._-], starting with a letter or
// digit. The restriction keeps names safe to embed verbatim in
// Prometheus label values, URLs, and log lines.
func ValidName(s string) bool {
	if len(s) == 0 || len(s) > nameMaxLen {
		return false
	}
	for i := 0; i < len(s); i++ {
		c := s[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9':
		case (c == '.' || c == '_' || c == '-') && i > 0:
		default:
			return false
		}
	}
	return true
}

// ShardSpec declares one shard of the catalog: the (tenant, collection)
// key, where its synopsis (and optionally its source document) comes
// from, and the per-shard budgets that isolate this tenant's caches and
// shadow sampling from every other tenant's.
type ShardSpec struct {
	Tenant     string `json:"tenant"`
	Collection string `json:"collection"`
	// Synopsis locates the serialized synopsis the shard serves
	// (interpreted by the catalog's Loader; required).
	Synopsis string `json:"synopsis"`
	// Document optionally locates the source document, kept resident
	// for shadow evaluation and per-shard rebuilds.
	Document string `json:"document,omitempty"`
	// StructBudget and ValueBudget are the shard's rebuild byte budgets
	// (0: inherit from the synopsis's own fingerprint).
	StructBudget int `json:"struct_budget,omitempty"`
	ValueBudget  int `json:"value_budget,omitempty"`
	// Cache and PlanCache size the shard's result and plan caches
	// (0: service defaults; negative: disabled; at most
	// MaxCacheCapacity). Each shard owns its caches, so one tenant's
	// traffic can never evict another's entries.
	Cache     int `json:"cache,omitempty"`
	PlanCache int `json:"plan_cache,omitempty"`
	// ShadowRate, ShadowWorkers and ShadowDeadlineMS configure the
	// shard's private shadow-sampling budget (rate in (0,1] requires
	// Document; at most MaxShadowWorkers workers). A noisy tenant
	// exhausts only its own shadow queue.
	ShadowRate       float64 `json:"shadow_rate,omitempty"`
	ShadowWorkers    int     `json:"shadow_workers,omitempty"`
	ShadowDeadlineMS int     `json:"shadow_deadline_ms,omitempty"`
	// RebuildOnDrift triggers a background rebuild of this shard when
	// its accuracy monitor flags drift (requires Document).
	RebuildOnDrift bool `json:"rebuild_on_drift,omitempty"`
	// AdaptiveBudget makes this shard's drift-triggered rebuilds search
	// their budget split on the shard's own workload profile
	// (budget.Plan; requires Document). Each shard plans
	// independently: one tenant's traffic mix never moves another
	// tenant's budget.
	AdaptiveBudget bool `json:"adaptive_budget,omitempty"`
	// SLOAvailability and SLOLatencyMS declare the shard's service-level
	// objectives: a target success fraction in (0,1) (e.g. 0.999) and a
	// latency objective in milliseconds. SLOLatencyTarget is the fraction
	// of requests that must beat the latency objective (default 0.99
	// when a latency objective is set). Either objective alone enables
	// tracking; both zero leaves the shard's SLO disabled unless the
	// daemon supplies server-wide defaults (the manifest wins).
	SLOAvailability  float64 `json:"slo_availability,omitempty"`
	SLOLatencyMS     float64 `json:"slo_latency_ms,omitempty"`
	SLOLatencyTarget float64 `json:"slo_latency_target,omitempty"`
}

// Key returns the shard's catalog key.
func (sp ShardSpec) Key() Key { return Key{Tenant: sp.Tenant, Collection: sp.Collection} }

// ShadowDeadline returns the shadow deadline as a duration (0: default).
func (sp ShardSpec) ShadowDeadline() time.Duration {
	return time.Duration(sp.ShadowDeadlineMS) * time.Millisecond
}

// SLO returns the spec's objectives as an obs.SLOConfig (zero-valued,
// i.e. disabled, when the spec declares none).
func (sp ShardSpec) SLO() obs.SLOConfig {
	return obs.SLOConfig{
		Availability:     sp.SLOAvailability,
		LatencyObjective: time.Duration(sp.SLOLatencyMS * float64(time.Millisecond)),
		LatencyTarget:    sp.SLOLatencyTarget,
	}
}

// validate rejects a malformed spec with an error naming the field.
func (sp ShardSpec) validate() error {
	if !ValidName(sp.Tenant) {
		return fmt.Errorf("catalog: bad tenant %q (want 1-%d chars of [A-Za-z0-9._-], starting alphanumeric)", sp.Tenant, nameMaxLen)
	}
	if !ValidName(sp.Collection) {
		return fmt.Errorf("catalog: tenant %s: bad collection %q (want 1-%d chars of [A-Za-z0-9._-], starting alphanumeric)", sp.Tenant, sp.Collection, nameMaxLen)
	}
	if sp.Synopsis == "" {
		return fmt.Errorf("catalog: shard %s/%s: missing synopsis", sp.Tenant, sp.Collection)
	}
	if sp.StructBudget < 0 || sp.ValueBudget < 0 {
		return fmt.Errorf("catalog: shard %s/%s: negative budget", sp.Tenant, sp.Collection)
	}
	if sp.Cache > MaxCacheCapacity || sp.PlanCache > MaxCacheCapacity {
		return fmt.Errorf("catalog: shard %s/%s: cache and plan_cache must be at most %d", sp.Tenant, sp.Collection, MaxCacheCapacity)
	}
	if sp.ShadowRate < 0 || sp.ShadowRate > 1 {
		return fmt.Errorf("catalog: shard %s/%s: shadow_rate %g outside [0,1]", sp.Tenant, sp.Collection, sp.ShadowRate)
	}
	if sp.ShadowRate > 0 && sp.Document == "" {
		return fmt.Errorf("catalog: shard %s/%s: shadow_rate requires document", sp.Tenant, sp.Collection)
	}
	if sp.ShadowWorkers < 0 || sp.ShadowWorkers > MaxShadowWorkers {
		return fmt.Errorf("catalog: shard %s/%s: shadow_workers %d outside [0,%d]", sp.Tenant, sp.Collection, sp.ShadowWorkers, MaxShadowWorkers)
	}
	if sp.ShadowDeadlineMS < 0 {
		return fmt.Errorf("catalog: shard %s/%s: negative shadow_deadline_ms", sp.Tenant, sp.Collection)
	}
	if sp.RebuildOnDrift && sp.Document == "" {
		return fmt.Errorf("catalog: shard %s/%s: rebuild_on_drift requires document", sp.Tenant, sp.Collection)
	}
	if sp.AdaptiveBudget && sp.Document == "" {
		return fmt.Errorf("catalog: shard %s/%s: adaptive_budget requires document", sp.Tenant, sp.Collection)
	}
	if sp.SLOLatencyMS < 0 {
		return fmt.Errorf("catalog: shard %s/%s: negative slo_latency_ms", sp.Tenant, sp.Collection)
	}
	if err := sp.SLO().Validate(); err != nil {
		return fmt.Errorf("catalog: shard %s/%s: %w", sp.Tenant, sp.Collection, err)
	}
	return nil
}

// Manifest maps tenants to their document collections and per-shard
// budgets: the declarative form of a catalog, loaded by xclusterd
// -catalog at startup.
type Manifest struct {
	// DefaultTenant and DefaultCollection name the shard that answers
	// requests carrying no tenant/collection addressing — the
	// single-tenant compatibility path. Either both or neither are set,
	// and the named shard must exist.
	DefaultTenant     string `json:"default_tenant,omitempty"`
	DefaultCollection string `json:"default_collection,omitempty"`
	// ScatterWorkers bounds the scatter-gather worker pool
	// (0: DefaultScatterWorkers).
	ScatterWorkers int `json:"scatter_workers,omitempty"`
	// Shards declares the catalog's shards; at least one, with no
	// duplicate (tenant, collection) pair.
	Shards []ShardSpec `json:"shards"`
}

// DefaultKey returns the manifest's default shard key and whether one
// is configured.
func (m *Manifest) DefaultKey() (Key, bool) {
	if m.DefaultTenant == "" {
		return Key{}, false
	}
	return Key{Tenant: m.DefaultTenant, Collection: m.DefaultCollection}, true
}

// Validate checks the manifest's internal consistency: every shard spec
// well formed, no duplicate keys, the default shard (when named)
// present.
func (m *Manifest) Validate() error {
	if len(m.Shards) == 0 {
		return fmt.Errorf("catalog: manifest declares no shards")
	}
	if m.ScatterWorkers < 0 {
		return fmt.Errorf("catalog: negative scatter_workers")
	}
	if (m.DefaultTenant == "") != (m.DefaultCollection == "") {
		return fmt.Errorf("catalog: default_tenant and default_collection must be set together")
	}
	seen := make(map[Key]struct{}, len(m.Shards))
	for _, sp := range m.Shards {
		if err := sp.validate(); err != nil {
			return err
		}
		k := sp.Key()
		if _, dup := seen[k]; dup {
			return fmt.Errorf("catalog: duplicate shard %s", k)
		}
		seen[k] = struct{}{}
	}
	if def, ok := m.DefaultKey(); ok {
		if _, exists := seen[def]; !exists {
			return fmt.Errorf("catalog: default shard %s not declared", def)
		}
	}
	return nil
}

// ParseManifest decodes and validates a JSON manifest. Unknown fields
// are rejected so a typo in a budget name fails loudly at startup
// instead of silently serving with defaults.
func ParseManifest(data []byte) (*Manifest, error) {
	var m Manifest
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&m); err != nil {
		return nil, fmt.Errorf("catalog: parsing manifest: %w", err)
	}
	// Trailing content after the manifest object is a malformed file.
	if dec.More() {
		return nil, fmt.Errorf("catalog: parsing manifest: trailing data after manifest object")
	}
	if err := m.Validate(); err != nil {
		return nil, err
	}
	return &m, nil
}

// LoadManifestFile reads and parses a manifest file.
func LoadManifestFile(path string) (*Manifest, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("catalog: reading manifest: %w", err)
	}
	return ParseManifest(data)
}
