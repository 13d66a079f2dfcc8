package obs

import (
	"fmt"
	"math"
	"runtime/metrics"
	"sync"
)

// This file samples the Go runtime's own telemetry (runtime/metrics)
// into a Registry as xcluster_go_* series at scrape time: heap and
// total memory, GC activity, goroutine/scheduler state, and the GC
// pause and scheduling-latency distributions as quantile gauges. The
// ROADMAP's zero-alloc serving work needs exactly these as a pinned
// baseline; sampling at scrape time keeps the cost off the hot path.

// runtimeQuantiles are the points reported from runtime histograms
// (GC pauses, scheduler latencies).
var runtimeQuantiles = []float64{0.5, 0.9, 0.99}

// runtimeGauges maps runtime/metrics names sampled as instantaneous
// gauges to their exported series.
var runtimeGauges = []struct{ src, name, help string }{
	{"/sched/goroutines:goroutines", "xcluster_go_goroutines", "Live goroutines."},
	{"/sched/gomaxprocs:threads", "xcluster_go_gomaxprocs", "GOMAXPROCS."},
	{"/memory/classes/heap/objects:bytes", "xcluster_go_heap_objects_bytes", "Bytes occupied by live and dead heap objects."},
	{"/memory/classes/total:bytes", "xcluster_go_memory_total_bytes", "Total memory mapped by the Go runtime."},
	{"/gc/heap/goal:bytes", "xcluster_go_gc_heap_goal_bytes", "Heap size target of the next GC cycle."},
}

// runtimeCounters maps monotonic runtime/metrics values to exported
// counter series; the sampler mirrors the absolute value via deltas.
var runtimeCounters = []struct{ src, name, help string }{
	{"/gc/heap/allocs:objects", "xcluster_go_heap_allocs_total", "Heap objects allocated since process start."},
	{"/gc/heap/allocs:bytes", "xcluster_go_heap_alloc_bytes_total", "Heap bytes allocated since process start."},
	{"/gc/cycles/total:gc-cycles", "xcluster_go_gc_cycles_total", "Completed GC cycles."},
}

// runtimeHists maps runtime histogram distributions to exported
// quantile-gauge families.
var runtimeHists = []struct{ src, name, help string }{
	{"/gc/pauses:seconds", "xcluster_go_gc_pause_seconds", "Distribution of stop-the-world GC pause latencies (quantile gauges sampled at scrape time)."},
	{"/sched/latencies:seconds", "xcluster_go_sched_latency_seconds", "Distribution of goroutine scheduling latencies (quantile gauges sampled at scrape time)."},
}

// RuntimeSampler reads a fixed runtime/metrics sample set into a
// Registry. It keeps the previous monotonic readings so counter series
// advance by deltas (Prometheus counters must never be Set), and reuses
// its sample buffer across scrapes. Methods are serialized internally;
// one sampler serves one registry owner (a service or a catalog).
type RuntimeSampler struct {
	mu      sync.Mutex
	samples []metrics.Sample
	last    map[string]uint64 // previous reading per monotonic source
	helped  bool
}

// NewRuntimeSampler returns a sampler over the fixed xcluster_go_*
// sample set.
func NewRuntimeSampler() *RuntimeSampler {
	n := len(runtimeGauges) + len(runtimeCounters) + len(runtimeHists)
	rs := &RuntimeSampler{
		samples: make([]metrics.Sample, 0, n),
		last:    make(map[string]uint64, len(runtimeCounters)),
	}
	for _, g := range runtimeGauges {
		rs.samples = append(rs.samples, metrics.Sample{Name: g.src})
	}
	for _, c := range runtimeCounters {
		rs.samples = append(rs.samples, metrics.Sample{Name: c.src})
	}
	for _, h := range runtimeHists {
		rs.samples = append(rs.samples, metrics.Sample{Name: h.src})
	}
	return rs
}

// Sample reads the runtime metric set and updates r's xcluster_go_*
// series. Metrics this Go version does not export are skipped.
func (rs *RuntimeSampler) Sample(r *Registry) {
	rs.mu.Lock()
	defer rs.mu.Unlock()
	if !rs.helped {
		for _, g := range runtimeGauges {
			r.Help(g.name, g.help)
		}
		for _, c := range runtimeCounters {
			r.Help(c.name, c.help)
		}
		for _, h := range runtimeHists {
			r.Help(h.name, h.help)
		}
		rs.helped = true
	}
	metrics.Read(rs.samples)
	byName := make(map[string]*metrics.Sample, len(rs.samples))
	for i := range rs.samples {
		byName[rs.samples[i].Name] = &rs.samples[i]
	}
	for _, g := range runtimeGauges {
		if v, ok := sampleFloat(byName[g.src]); ok {
			r.Gauge(g.name, "").Set(v)
		}
	}
	for _, c := range runtimeCounters {
		s := byName[c.src]
		if s == nil || s.Value.Kind() != metrics.KindUint64 {
			continue
		}
		cur := s.Value.Uint64()
		if prev, ok := rs.last[c.src]; ok && cur >= prev {
			r.Counter(c.name, "").Add(cur - prev)
		} else {
			r.Counter(c.name, "").Add(cur)
		}
		rs.last[c.src] = cur
	}
	for _, h := range runtimeHists {
		s := byName[h.src]
		if s == nil || s.Value.Kind() != metrics.KindFloat64Histogram {
			continue
		}
		hist := s.Value.Float64Histogram()
		for _, q := range runtimeQuantiles {
			label := fmt.Sprintf("quantile=%q", formatFloat(q))
			r.Gauge(h.name, label).Set(histQuantile(hist, q))
		}
	}
}

// sampleFloat converts a gauge-style sample to float64.
func sampleFloat(s *metrics.Sample) (float64, bool) {
	if s == nil {
		return 0, false
	}
	switch s.Value.Kind() {
	case metrics.KindUint64:
		return float64(s.Value.Uint64()), true
	case metrics.KindFloat64:
		return s.Value.Float64(), true
	}
	return 0, false
}

// histQuantile reads the q-quantile out of a runtime cumulative-count
// histogram, reporting the upper bound of the bucket where the
// cumulative count crosses q (the last finite bound for the +Inf
// bucket). Returns 0 for an empty histogram.
func histQuantile(h *metrics.Float64Histogram, q float64) float64 {
	var total uint64
	for _, c := range h.Counts {
		total += c
	}
	if total == 0 {
		return 0
	}
	want := uint64(math.Ceil(q * float64(total)))
	if want == 0 {
		want = 1
	}
	var cum uint64
	for i, c := range h.Counts {
		cum += c
		if cum >= want {
			// Bucket i spans Buckets[i] .. Buckets[i+1].
			hi := h.Buckets[i+1]
			if math.IsInf(hi, 1) {
				return h.Buckets[i]
			}
			return hi
		}
	}
	return h.Buckets[len(h.Buckets)-1]
}

// HeapAllocObjects reads the process's cumulative heap allocation count
// directly. Benchmarks diff it around a measured loop to report
// allocs/op without the testing package.
func HeapAllocObjects() uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:objects"}}
	metrics.Read(s)
	if s[0].Value.Kind() != metrics.KindUint64 {
		return 0
	}
	return s[0].Value.Uint64()
}

// SampleAllocsPerOp sets the xcluster_go_estimate_allocs_per_op gauge
// from the change in process-wide heap allocations divided by the
// change in served operations since the previous scrape. It is an
// approximation — background work (shadow sampling, rebuilds) allocates
// into the same numerator — but tracks the hot path closely on a busy
// server; internal/service BenchmarkEstimateTelemetry reports the exact
// per-op number in isolation.
func (rs *RuntimeSampler) SampleAllocsPerOp(r *Registry, ops uint64) {
	rs.mu.Lock()
	defer rs.mu.Unlock()
	const (
		srcKey = "allocs_per_op:allocs"
		opsKey = "allocs_per_op:ops"
	)
	cur := HeapAllocObjects()
	prevAllocs, ok1 := rs.last[srcKey]
	prevOps, ok2 := rs.last[opsKey]
	rs.last[srcKey] = cur
	rs.last[opsKey] = ops
	r.Help("xcluster_go_estimate_allocs_per_op",
		"Approximate process heap allocations per served estimate between the last two scrapes.")
	g := r.Gauge("xcluster_go_estimate_allocs_per_op", "")
	if !ok1 || !ok2 || ops <= prevOps || cur < prevAllocs {
		g.Set(0)
		return
	}
	g.Set(float64(cur-prevAllocs) / float64(ops-prevOps))
}
