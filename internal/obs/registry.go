// Package obs is the repository's stdlib-only observability layer: a
// metrics registry of atomic counters, gauges, and fixed-bucket latency
// histograms, rendered in Prometheus text format, the lock-free time
// window behind every windowed readout (window.go), plus a ring-buffer
// slow-query log (slowlog.go).
//
// The registry is the concrete implementation behind the small
// MetricSink interface internal/core defines (Add/Observe), so a
// synopsis build can emit metrics without depending on this package;
// internal/service and the daemons hold the registry directly and
// expose it at GET /metrics.
//
// All metric operations are safe for concurrent use and lock-free on
// the hot path (counter increments, bucket increments).
package obs

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing metric.
type Counter struct{ v atomic.Uint64 }

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n.
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Store overwrites the counter. It exists for mirrored counters whose
// source of truth lives elsewhere (e.g. the estimator's internal LRU
// counters, synced at scrape time so /stats and /metrics agree).
func (c *Counter) Store(n uint64) { c.v.Store(n) }

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.v.Load() }

// Gauge is a float metric that can go up and down.
type Gauge struct{ bits atomic.Uint64 }

// Set overwrites the gauge.
func (g *Gauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

// Add adjusts the gauge by d (CAS loop; safe concurrently).
func (g *Gauge) Add(d float64) {
	for {
		old := g.bits.Load()
		if g.bits.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+d)) {
			return
		}
	}
}

// Value returns the current gauge value.
func (g *Gauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

// DefaultLatencyBuckets are the histogram bounds used when none are
// given: exponential-ish latency buckets in seconds from 5µs to 10s.
var DefaultLatencyBuckets = []float64{
	5e-6, 1e-5, 2.5e-5, 5e-5, 1e-4, 2.5e-4, 5e-4,
	1e-3, 2.5e-3, 5e-3, 1e-2, 2.5e-2, 5e-2,
	0.1, 0.25, 0.5, 1, 2.5, 5, 10,
}

// Histogram is a fixed-bucket histogram (Prometheus-style cumulative
// buckets at render time) over every observation ever made; windowed
// percentiles come from a RequestWindow instead.
type Histogram struct {
	bounds []float64       // ascending upper bounds; +Inf is implicit
	counts []atomic.Uint64 // len(bounds)+1; the last is the +Inf bucket
	count  atomic.Uint64
	sum    atomic.Uint64 // float64 bits, CAS-accumulated
}

func newHistogram(bounds []float64) *Histogram {
	if len(bounds) == 0 {
		bounds = DefaultLatencyBuckets
	}
	return &Histogram{
		bounds: bounds,
		counts: make([]atomic.Uint64, len(bounds)+1),
	}
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	h.counts[sort.SearchFloat64s(h.bounds, v)].Add(1)
	h.count.Add(1)
	for {
		old := h.sum.Load()
		if h.sum.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+v)) {
			return
		}
	}
}

// Count returns the total number of observations.
func (h *Histogram) Count() uint64 { return h.count.Load() }

// Sum returns the sum of all observations.
func (h *Histogram) Sum() float64 { return math.Float64frombits(h.sum.Load()) }

// metricKey identifies one series: a metric name plus its rendered
// label pairs (e.g. `stage="compile"`, possibly empty).
type metricKey struct{ name, labels string }

// Registry is a set of named metrics. Series are created on first use
// and live for the registry's lifetime. A metric name must be used with
// a single kind (counter, gauge, or histogram); reusing a name across
// kinds renders two conflicting families and is a caller bug.
type Registry struct {
	mu       sync.RWMutex
	counters map[metricKey]*Counter
	gauges   map[metricKey]*Gauge
	hists    map[metricKey]*Histogram
	help     map[string]string
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: make(map[metricKey]*Counter),
		gauges:   make(map[metricKey]*Gauge),
		hists:    make(map[metricKey]*Histogram),
		help:     make(map[string]string),
	}
}

// Help sets the HELP text rendered for a metric name.
func (r *Registry) Help(name, help string) {
	r.mu.Lock()
	r.help[name] = help
	r.mu.Unlock()
}

// Counter returns the counter series for (name, labels), creating it on
// first use. labels is a rendered Prometheus label list without braces,
// e.g. `outcome="ok"`, or "" for none.
func (r *Registry) Counter(name, labels string) *Counter {
	k := metricKey{name, labels}
	r.mu.RLock()
	c, ok := r.counters[k]
	r.mu.RUnlock()
	if ok {
		return c
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if c, ok = r.counters[k]; !ok {
		c = &Counter{}
		r.counters[k] = c
	}
	return c
}

// Gauge returns the gauge series for (name, labels), creating it on
// first use.
func (r *Registry) Gauge(name, labels string) *Gauge {
	k := metricKey{name, labels}
	r.mu.RLock()
	g, ok := r.gauges[k]
	r.mu.RUnlock()
	if ok {
		return g
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if g, ok = r.gauges[k]; !ok {
		g = &Gauge{}
		r.gauges[k] = g
	}
	return g
}

// Histogram returns the histogram series for (name, labels), creating
// it with the given bucket bounds on first use (nil bounds selects
// DefaultLatencyBuckets). Later calls ignore bounds: the first
// registration wins.
func (r *Registry) Histogram(name, labels string, bounds []float64) *Histogram {
	k := metricKey{name, labels}
	r.mu.RLock()
	h, ok := r.hists[k]
	r.mu.RUnlock()
	if ok {
		return h
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if h, ok = r.hists[k]; !ok {
		h = newHistogram(bounds)
		r.hists[k] = h
	}
	return h
}

// Add increments the counter series by delta (rounded to the nearest
// integer). Together with Observe it makes *Registry satisfy the
// MetricSink interface internal/core defines.
func (r *Registry) Add(name, labels string, delta float64) {
	r.Counter(name, labels).Add(uint64(delta + 0.5))
}

// Observe records value into the histogram series (default latency
// buckets on first use).
func (r *Registry) Observe(name, labels string, value float64) {
	r.Histogram(name, labels, nil).Observe(value)
}

// formatFloat renders a float the way Prometheus clients do.
func formatFloat(v float64) string {
	switch {
	case math.IsInf(v, 1):
		return "+Inf"
	case math.IsInf(v, -1):
		return "-Inf"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// seriesRef renders `name{labels}` (or bare name), with extra appended
// to the label list when non-empty (used for the le bucket label).
func seriesRef(name, labels, extra string) string {
	all := labels
	if extra != "" {
		if all != "" {
			all += ","
		}
		all += extra
	}
	if all == "" {
		return name
	}
	return name + "{" + all + "}"
}

// escapeHelp escapes a HELP text per the exposition format.
func escapeHelp(s string) string {
	return strings.NewReplacer(`\`, `\\`, "\n", `\n`).Replace(s)
}

// WritePrometheus renders every metric in the Prometheus text
// exposition format (version 0.0.4): families sorted by name, series
// sorted by label string, histograms as cumulative _bucket/_sum/_count
// series. The output is deterministic for a fixed registry state.
func (r *Registry) WritePrometheus(w io.Writer) error {
	return WritePrometheusMerged(w, Labeled{R: r})
}

// Labeled pairs a registry with base labels prepended to every series it
// contributes to a merged rendering (e.g. `tenant="acme",collection="docs"`
// for one shard's registry; "" contributes the series unchanged).
type Labeled struct {
	Labels string
	R      *Registry
}

// joinLabels renders base labels before series labels, either possibly
// empty.
func joinLabels(base, labels string) string {
	if base == "" {
		return labels
	}
	if labels == "" {
		return base
	}
	return base + "," + labels
}

// WritePrometheusMerged renders several registries as one Prometheus
// exposition, each part's series carrying its base labels: the
// multi-tenant scrape shape, where every shard owns a registry and the
// catalog renders them side by side under tenant/collection labels.
// Families appearing in several parts render once (first help text
// wins); a single unlabeled part renders byte-identically to that
// registry's own WritePrometheus. Metric names must keep a single kind
// across all parts, as within one registry.
func WritePrometheusMerged(w io.Writer, parts ...Labeled) error {
	type series struct {
		labels string
		c      *Counter
		g      *Gauge
		h      *Histogram
	}
	families := make(map[string][]series)
	kind := make(map[string]string)
	help := make(map[string]string)
	for _, part := range parts {
		r := part.R
		if r == nil {
			continue
		}
		r.mu.RLock()
		for k, c := range r.counters {
			families[k.name] = append(families[k.name], series{labels: joinLabels(part.Labels, k.labels), c: c})
			kind[k.name] = "counter"
		}
		for k, g := range r.gauges {
			families[k.name] = append(families[k.name], series{labels: joinLabels(part.Labels, k.labels), g: g})
			kind[k.name] = "gauge"
		}
		for k, h := range r.hists {
			families[k.name] = append(families[k.name], series{labels: joinLabels(part.Labels, k.labels), h: h})
			kind[k.name] = "histogram"
		}
		for name, text := range r.help {
			if _, ok := help[name]; !ok {
				help[name] = text
			}
		}
		r.mu.RUnlock()
	}

	names := make([]string, 0, len(families))
	for name := range families {
		names = append(names, name)
	}
	sort.Strings(names)

	var sb strings.Builder
	for _, name := range names {
		ss := families[name]
		sort.Slice(ss, func(i, j int) bool { return ss[i].labels < ss[j].labels })
		if text, ok := help[name]; ok {
			fmt.Fprintf(&sb, "# HELP %s %s\n", name, escapeHelp(text))
		}
		fmt.Fprintf(&sb, "# TYPE %s %s\n", name, kind[name])
		for _, s := range ss {
			switch {
			case s.c != nil:
				fmt.Fprintf(&sb, "%s %d\n", seriesRef(name, s.labels, ""), s.c.Value())
			case s.g != nil:
				fmt.Fprintf(&sb, "%s %s\n", seriesRef(name, s.labels, ""), formatFloat(s.g.Value()))
			case s.h != nil:
				cum := uint64(0)
				for i, bound := range s.h.bounds {
					cum += s.h.counts[i].Load()
					fmt.Fprintf(&sb, "%s %d\n",
						seriesRef(name+"_bucket", s.labels, `le="`+formatFloat(bound)+`"`), cum)
				}
				fmt.Fprintf(&sb, "%s %d\n",
					seriesRef(name+"_bucket", s.labels, `le="+Inf"`), s.h.Count())
				fmt.Fprintf(&sb, "%s %s\n", seriesRef(name+"_sum", s.labels, ""), formatFloat(s.h.Sum()))
				fmt.Fprintf(&sb, "%s %d\n", seriesRef(name+"_count", s.labels, ""), s.h.Count())
			}
		}
	}
	_, err := io.WriteString(w, sb.String())
	return err
}
