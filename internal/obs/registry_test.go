package obs

import (
	"fmt"
	"io"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestCounter(t *testing.T) {
	var c Counter
	c.Inc()
	c.Add(4)
	if got := c.Value(); got != 5 {
		t.Fatalf("Value() = %d, want 5", got)
	}
	c.Store(2)
	if got := c.Value(); got != 2 {
		t.Fatalf("after Store(2): Value() = %d, want 2", got)
	}
}

func TestGauge(t *testing.T) {
	var g Gauge
	g.Set(2.5)
	g.Add(1.25)
	g.Add(-0.75)
	if got := g.Value(); got != 3 {
		t.Fatalf("Value() = %g, want 3", got)
	}
}

// TestHistogramQuantiles pins the percentile readout: interpolated
// within the bucket where the cumulative count reaches p × total, with
// bounds and ranks chosen so every expected value is an exact binary
// float.
func TestHistogramQuantiles(t *testing.T) {
	bounds := []float64{1, 2, 4, 8}
	counts := []uint64{2, 2, 4, 0, 0} // 8 observations, none above 4
	for _, c := range []struct{ p, want float64 }{
		{0.125, 0.5}, // rank 1 of the first bucket's 2: halfway from 0 to 1
		{0.25, 1},    // rank 2 closes the first bucket
		{0.5, 2},     // rank 4 closes the second
		{0.75, 3},    // rank 6: halfway through (2, 4]
		{0.875, 3.5}, // rank 7: three quarters through (2, 4]
	} {
		if got := bucketQuantile(bounds, counts, c.p); got != c.want {
			t.Errorf("quantile(%v) = %v, want %v", c.p, got, c.want)
		}
	}
	// A quantile in the +Inf bucket reads the last finite bound.
	if got := bucketQuantile(bounds, []uint64{1, 0, 0, 0, 3}, 0.5); got != 8 {
		t.Errorf("+Inf-bucket quantile = %v, want 8", got)
	}
	// Empty buckets below the rank are skipped, not interpolated into.
	if got := bucketQuantile(bounds, []uint64{0, 0, 0, 2, 0}, 0.5); got != 6 {
		t.Errorf("quantile over a lone (4, 8] bucket = %v, want 6", got)
	}
}

// TestHistogramRingWindow: request-window percentiles cover only the
// trailing span, so observations a full ring (LongWindow) older than
// the latest are forgotten entirely rather than mixed in.
func TestHistogramRingWindow(t *testing.T) {
	t0 := time.Unix(3_600_000, 0)
	r := NewRequestWindow(0)
	for i := 0; i < 64; i++ {
		r.Observe(t0, 0, false) // 0 s: the first (≤ 5µs) bucket
	}
	later := t0.Add(LongWindow)
	for i := 0; i < 64; i++ {
		r.Observe(later, 2*time.Second, false) // the (1, 2.5] bucket
	}
	c := r.Trailing(later, LongWindow)
	if c.Total != 64 || c.Answered() != 64 {
		t.Fatalf("total/answered = %d/%d, want 64/64 (the old pass expired)", c.Total, c.Answered())
	}
	// Rank 32 of 64 in (1, 2.5]: 1 + 1.5 × 1/2.
	if got := c.Quantile(0.5); got != 1.75 {
		t.Fatalf("p50 = %v, want 1.75", got)
	}
}

func TestHistogramEmptyQuantile(t *testing.T) {
	if got := bucketQuantile([]float64{1, 2}, []uint64{0, 0, 0}, 0.99); got != 0 {
		t.Fatalf("quantile of empty buckets = %g, want 0", got)
	}
	c := NewRequestWindow(0).Trailing(time.Unix(3_600_000, 0), ShortWindow)
	if got := c.Quantile(0.99); got != 0 || c.Answered() != 0 {
		t.Fatalf("empty window p99 = %g over %d samples, want 0 over 0", got, c.Answered())
	}
}

// TestRegistryConcurrent hammers one registry from 32 goroutines that
// race series creation, increments, observations, and renders. Run
// under -race this is the registry's thread-safety proof.
func TestRegistryConcurrent(t *testing.T) {
	r := NewRegistry()
	const goroutines = 32
	const perG = 500
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			labels := fmt.Sprintf(`worker="%d"`, g%4)
			for i := 0; i < perG; i++ {
				r.Counter("reqs_total", labels).Inc()
				r.Add("adds_total", "", 1)
				r.Observe("lat_seconds", labels, float64(i)/perG)
				r.Gauge("inflight", "").Add(1)
				r.Gauge("inflight", "").Add(-1)
				if i%100 == 0 {
					var sb strings.Builder
					if err := r.WritePrometheus(&sb); err != nil {
						t.Errorf("WritePrometheus: %v", err)
					}
				}
			}
		}(g)
	}
	wg.Wait()

	var total uint64
	for g := 0; g < 4; g++ {
		total += r.Counter("reqs_total", fmt.Sprintf(`worker="%d"`, g)).Value()
	}
	if total != goroutines*perG {
		t.Fatalf("reqs_total sum = %d, want %d", total, goroutines*perG)
	}
	if got := r.Counter("adds_total", "").Value(); got != goroutines*perG {
		t.Fatalf("adds_total = %d, want %d", got, goroutines*perG)
	}
	if got := r.Gauge("inflight", "").Value(); got != 0 {
		t.Fatalf("inflight = %g, want 0", got)
	}
	var count uint64
	for g := 0; g < 4; g++ {
		count += r.Histogram("lat_seconds", fmt.Sprintf(`worker="%d"`, g), nil).Count()
	}
	if count != goroutines*perG {
		t.Fatalf("lat_seconds count = %d, want %d", count, goroutines*perG)
	}
}

// TestWritePrometheusGolden pins the exact text exposition output:
// families sorted by name, series by label string, cumulative buckets,
// HELP escaping — a scrape of this registry must parse as version 0.0.4.
func TestWritePrometheusGolden(t *testing.T) {
	r := NewRegistry()
	r.Help("test_requests_total", "Total requests.")
	r.Counter("test_requests_total", `outcome="ok"`).Add(3)
	r.Counter("test_requests_total", `outcome="error"`).Inc()
	r.Gauge("test_inflight", "").Set(2.5)
	h := r.Histogram("test_seconds", "", []float64{0.1, 1})
	h.Observe(0.0625)
	h.Observe(0.5)
	h.Observe(5)

	want := `# TYPE test_inflight gauge
test_inflight 2.5
# HELP test_requests_total Total requests.
# TYPE test_requests_total counter
test_requests_total{outcome="error"} 1
test_requests_total{outcome="ok"} 3
# TYPE test_seconds histogram
test_seconds_bucket{le="0.1"} 1
test_seconds_bucket{le="1"} 2
test_seconds_bucket{le="+Inf"} 3
test_seconds_sum 5.5625
test_seconds_count 3
`
	var sb strings.Builder
	if err := r.WritePrometheus(&sb); err != nil {
		t.Fatalf("WritePrometheus: %v", err)
	}
	if sb.String() != want {
		t.Errorf("WritePrometheus output mismatch:\ngot:\n%s\nwant:\n%s", sb.String(), want)
	}

	// Rendering twice must produce identical output (determinism).
	var sb2 strings.Builder
	r.WritePrometheus(&sb2)
	if sb.String() != sb2.String() {
		t.Errorf("WritePrometheus is not deterministic")
	}
}

// TestWritePrometheusMerged pins the multi-registry rendering: two
// "shard" registries under tenant/collection base labels plus one
// unlabeled catalog registry merge into a single exposition with each
// family rendered once and every labeled series carrying its base
// labels first.
func TestWritePrometheusMerged(t *testing.T) {
	catalog := NewRegistry()
	catalog.Help("test_shards", "Attached shards.")
	catalog.Gauge("test_shards", "").Set(2)

	a := NewRegistry()
	a.Help("test_requests_total", "Total requests.")
	a.Counter("test_requests_total", `outcome="ok"`).Add(3)
	ha := a.Histogram("test_seconds", "", []float64{1})
	ha.Observe(0.5)

	b := NewRegistry()
	b.Help("test_requests_total", "Total requests (duplicate help, first wins).")
	b.Counter("test_requests_total", `outcome="ok"`).Add(5)
	b.Counter("test_requests_total", "").Inc()

	want := `# HELP test_requests_total Total requests.
# TYPE test_requests_total counter
test_requests_total{tenant="acme",collection="docs",outcome="ok"} 3
test_requests_total{tenant="beta",collection="logs"} 1
test_requests_total{tenant="beta",collection="logs",outcome="ok"} 5
# TYPE test_seconds histogram
test_seconds_bucket{tenant="acme",collection="docs",le="1"} 1
test_seconds_bucket{tenant="acme",collection="docs",le="+Inf"} 1
test_seconds_sum{tenant="acme",collection="docs"} 0.5
test_seconds_count{tenant="acme",collection="docs"} 1
# HELP test_shards Attached shards.
# TYPE test_shards gauge
test_shards 2
`
	var sb strings.Builder
	if err := WritePrometheusMerged(&sb,
		Labeled{R: catalog},
		Labeled{Labels: `tenant="acme",collection="docs"`, R: a},
		Labeled{Labels: `tenant="beta",collection="logs"`, R: b},
	); err != nil {
		t.Fatalf("WritePrometheusMerged: %v", err)
	}
	if sb.String() != want {
		t.Errorf("merged output mismatch:\ngot:\n%s\nwant:\n%s", sb.String(), want)
	}

	// A single unlabeled part is byte-identical to the registry's own
	// rendering: the single-tenant scrape is unchanged by the merge path.
	var direct, merged strings.Builder
	if err := a.WritePrometheus(&direct); err != nil {
		t.Fatal(err)
	}
	if err := WritePrometheusMerged(&merged, Labeled{R: a}); err != nil {
		t.Fatal(err)
	}
	if direct.String() != merged.String() {
		t.Errorf("unlabeled merge diverges from WritePrometheus:\n%s\nvs\n%s",
			merged.String(), direct.String())
	}

	// A nil registry part contributes nothing rather than panicking.
	if err := WritePrometheusMerged(io.Discard, Labeled{Labels: `x="y"`}); err != nil {
		t.Fatalf("nil part: %v", err)
	}
}

func TestHelpEscaping(t *testing.T) {
	r := NewRegistry()
	r.Help("m_total", "line one\nline \\ two")
	r.Counter("m_total", "").Inc()
	var sb strings.Builder
	r.WritePrometheus(&sb)
	want := "# HELP m_total line one\\nline \\\\ two\n"
	if !strings.Contains(sb.String(), want) {
		t.Errorf("escaped HELP %q not found in:\n%s", want, sb.String())
	}
}

func TestHistogramFirstRegistrationWins(t *testing.T) {
	r := NewRegistry()
	h1 := r.Histogram("h", "", []float64{1, 2})
	h2 := r.Histogram("h", "", []float64{10, 20, 30})
	if h1 != h2 {
		t.Fatalf("same (name, labels) returned distinct histograms")
	}
	if len(h1.bounds) != 2 {
		t.Fatalf("bounds = %v, want the first registration's [1 2]", h1.bounds)
	}
}
