package obs

import (
	"sort"
	"sync/atomic"
	"time"
)

// WindowBucket is the width of one Window bucket.
const WindowBucket = 10 * time.Second

// Window is the serving path's one scheme for forgetting old traffic: a
// fixed ring of epoch-tagged WindowBucket-wide buckets, each holding the
// same fixed vector of atomic counters. A bucket's epoch is the
// absolute bucket index (unix seconds / 10) it currently holds; a writer
// that finds an older epoch in its slot claims and clears it, and a
// reader skips slots holding any epoch but the one it asks for. Writes
// and reads take no lock, so a Window sits on the estimate hot path.
//
// The lock-free reset trades exactness at bucket boundaries for that:
// an Add racing a slot's reset can be lost, and a reader racing it can
// briefly see the previous pass's counts. Both touch only the bucket
// being claimed.
type Window struct {
	counters int
	epochs   []atomic.Int64
	counts   []atomic.Uint64 // len(epochs) × counters, bucket-major
}

// NewWindow returns an empty window of buckets buckets (covering
// buckets × WindowBucket) with counters counters each.
func NewWindow(buckets, counters int) *Window {
	return &Window{
		counters: counters,
		epochs:   make([]atomic.Int64, buckets),
		counts:   make([]atomic.Uint64, buckets*counters),
	}
}

// epochOf returns the absolute bucket index holding time t.
func epochOf(t time.Time) int64 { return t.Unix() / int64(WindowBucket/time.Second) }

// slot returns the ring slot of an absolute bucket index. The unsigned
// modulus keeps the index in range for any epoch; epochs before 1970
// never claim a slot (see claim), so their odd placement is harmless.
func (w *Window) slot(epoch int64) int { return int(uint64(epoch) % uint64(len(w.epochs))) }

// claim returns the offset of the counters holding epoch, clearing the
// slot first if it still holds an older ring pass, or -1 when the slot
// already holds a newer epoch: an observation a full ring older than
// traffic already recorded lies outside every window a reader can ask
// for, so it is dropped. The CAS keeps concurrent claimers from clearing
// a slot twice.
func (w *Window) claim(epoch int64) int {
	s := w.slot(epoch)
	for {
		cur := w.epochs[s].Load()
		if cur == epoch {
			return s * w.counters
		}
		if cur > epoch {
			return -1
		}
		if w.epochs[s].CompareAndSwap(cur, epoch) {
			base := s * w.counters
			for i := base; i < base+w.counters; i++ {
				w.counts[i].Store(0)
			}
			return base
		}
	}
}

// Add adds n to counter i of the bucket holding time at.
func (w *Window) Add(at time.Time, i int, n uint64) {
	if base := w.claim(epochOf(at)); base >= 0 {
		w.counts[base+i].Add(n)
	}
}

// Sum adds the trailing k buckets ending with the one holding now
// (k at most the ring length) into dst, counter by counter: dst[i] gains
// counter i's total, for the first len(dst) counters.
func (w *Window) Sum(now time.Time, k int, dst []uint64) {
	epoch := epochOf(now)
	for j := 0; j < k; j++ {
		e := epoch - int64(j)
		if e < 0 {
			break
		}
		s := w.slot(e)
		if w.epochs[s].Load() != e {
			continue // another ring pass, or never written
		}
		base := s * w.counters
		for i := range dst {
			dst[i] += w.counts[base+i].Load()
		}
	}
}

// Absorb adds src's buckets into w, epoch by epoch: a bucket of src
// lands in w's bucket of the same epoch, claiming the slot when w holds
// an older pass there and skipped when w holds a newer one — the same
// rule Add follows. src must have w's geometry, and no writer may touch
// src meanwhile.
func (w *Window) Absorb(src *Window) {
	for s := range src.epochs {
		e := src.epochs[s].Load()
		if e == 0 {
			continue // never written
		}
		base := w.claim(e)
		if base < 0 {
			continue
		}
		for i := 0; i < w.counters; i++ {
			w.counts[base+i].Add(src.counts[s*src.counters+i].Load())
		}
	}
}

// Trailing spans the request-window views read: /stats percentiles and
// the SLOs' short window cover ShortWindow, the SLOs' long window
// LongWindow, which is also the request window's whole ring.
const (
	ShortWindow = 5 * time.Minute
	LongWindow  = time.Hour
)

// Request-window counter layout: three outcome counters, then one
// counter per DefaultLatencyBuckets bucket plus the +Inf bucket.
const (
	reqTotal = iota
	reqErrors
	reqSlow
	reqLatency
)

// RequestWindow is a shard's window over its estimates: LongWindow of
// buckets, each counting estimates, failed estimates, estimates slower
// than the latency objective, and answered estimates by the
// DefaultLatencyBuckets bucket their latency falls in. The service
// writes it once per estimate; /stats percentiles, GET /debug/slo and
// the xcluster_slo_* gauges are views of it.
type RequestWindow struct {
	w        *Window
	slowOver time.Duration
}

// NewRequestWindow returns an empty request window counting estimates
// slower than slowOver as slow (none when slowOver is 0).
func NewRequestWindow(slowOver time.Duration) *RequestWindow {
	return &RequestWindow{
		w:        NewWindow(int(LongWindow/WindowBucket), reqLatency+len(DefaultLatencyBuckets)+1),
		slowOver: slowOver,
	}
}

// Observe records one estimate that started at at and took d.
func (r *RequestWindow) Observe(at time.Time, d time.Duration, failed bool) {
	r.w.Add(at, reqTotal, 1)
	if failed {
		r.w.Add(at, reqErrors, 1)
	} else {
		r.w.Add(at, reqLatency+sort.SearchFloat64s(DefaultLatencyBuckets, d.Seconds()), 1)
	}
	if r.slowOver > 0 && d > r.slowOver {
		r.w.Add(at, reqSlow, 1)
	}
}

// RequestCounts is a request window's readout over a trailing span.
type RequestCounts struct {
	Total, Errors, Slow uint64
	// latency counts answered estimates per DefaultLatencyBuckets
	// bucket, the +Inf bucket last.
	latency []uint64
}

// Trailing sums the buckets of the trailing span ending at now.
func (r *RequestWindow) Trailing(now time.Time, span time.Duration) RequestCounts {
	sum := make([]uint64, r.w.counters)
	r.w.Sum(now, int(span/WindowBucket), sum)
	return RequestCounts{
		Total:   sum[reqTotal],
		Errors:  sum[reqErrors],
		Slow:    sum[reqSlow],
		latency: sum[reqLatency:],
	}
}

// Answered returns the number of answered estimates, the samples
// behind Quantile.
func (c RequestCounts) Answered() uint64 {
	var n uint64
	for _, v := range c.latency {
		n += v
	}
	return n
}

// Quantile returns the p-quantile (0 < p < 1) of answered latencies in
// seconds, interpolated within DefaultLatencyBuckets, or 0 with none.
func (c RequestCounts) Quantile(p float64) float64 {
	return bucketQuantile(DefaultLatencyBuckets, c.latency, p)
}

// bucketQuantile interpolates the p-quantile of a fixed-bucket
// histogram the way Prometheus's histogram_quantile does: find the
// bucket where the cumulative count reaches rank p × total and
// interpolate linearly between its bounds (the first bucket's lower
// bound is 0; a quantile in the +Inf bucket reads the last finite
// bound). counts has one entry per bound plus the +Inf bucket.
func bucketQuantile(bounds []float64, counts []uint64, p float64) float64 {
	var total uint64
	for _, c := range counts {
		total += c
	}
	if total == 0 {
		return 0
	}
	rank := p * float64(total)
	var below uint64
	for i, c := range counts {
		if c > 0 && float64(below+c) >= rank {
			if i == len(bounds) {
				return bounds[i-1]
			}
			lo := 0.0
			if i > 0 {
				lo = bounds[i-1]
			}
			return lo + (bounds[i]-lo)*(rank-float64(below))/float64(c)
		}
		below += c
	}
	return bounds[len(bounds)-1]
}
