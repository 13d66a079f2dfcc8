package service

import (
	"context"
	"math"
	"testing"
	"time"

	"xcluster/internal/core"
	"xcluster/internal/obs"
	"xcluster/internal/query"
)

// telemetryConfig is one telemetry setting of the estimate path. All
// of them run with the result cache off, so every estimate executes a
// plan.
type telemetryConfig struct {
	name string
	svc  *Service
	// traces, when non-nil, receives a root span per estimate: the
	// request is sampled in and fully traced.
	traces *obs.TraceStore
}

// telemetryConfigs returns the four settings, from no telemetry at all
// to a fully traced request:
//
//   - bare: profiler off, no SLO;
//   - default: the default telemetry (workload profiler on);
//   - slo_sampled_out: SLO tracking on, no span in the context;
//   - traced: as slo_sampled_out, with a root span recorded per estimate.
func telemetryConfigs(tb testing.TB, syn *core.Synopsis) []telemetryConfig {
	slo := obs.SLOConfig{Availability: 0.999, LatencyObjective: 50 * time.Millisecond}
	bare := New(syn, WithCacheCapacity(-1), WithWorkloadProfile(-1))
	def := New(syn, WithCacheCapacity(-1))
	withSLO := New(syn, WithCacheCapacity(-1), WithSLO(slo))
	for _, s := range []*Service{bare, def, withSLO} {
		tb.Cleanup(s.Close)
	}
	return []telemetryConfig{
		{name: "bare", svc: bare},
		{name: "default", svc: def},
		{name: "slo_sampled_out", svc: withSLO},
		{name: "traced", svc: withSLO, traces: obs.NewTraceStore()},
	}
}

// estimate answers q under the configuration.
func (c telemetryConfig) estimate(ctx context.Context, q *query.Query) (float64, error) {
	if c.traces == nil {
		return c.svc.Estimate(ctx, q)
	}
	sp := obs.NewSpan("estimate", "bench")
	v, err := c.svc.Estimate(obs.WithSpan(ctx, sp), q)
	sp.FinishErr(err)
	c.traces.Record(sp)
	return v, err
}

// TestTelemetryNeverChangesAnswers runs the test workload through every
// telemetry configuration, cold and with the plan cache warm, and
// requires each answer to be bit-identical to a bare core.Estimator's.
func TestTelemetryNeverChangesAnswers(t *testing.T) {
	syn := newTestSynopsis(t)
	qs := parseWorkload(t)
	want := sequentialAnswers(syn, qs)
	ctx := context.Background()
	for _, c := range telemetryConfigs(t, syn) {
		for round := 0; round < 2; round++ {
			for i, q := range qs {
				got, err := c.estimate(ctx, q)
				if err != nil {
					t.Fatalf("%s: %s: %v", c.name, q, err)
				}
				if math.Float64bits(got) != math.Float64bits(want[i]) {
					t.Fatalf("%s round %d: %s = %v, bare estimator %v", c.name, round, q, got, want[i])
				}
			}
		}
		if c.traces != nil && len(c.traces.Snapshot()) == 0 {
			t.Fatalf("%s: no trace recorded", c.name)
		}
	}
}

// BenchmarkEstimateTelemetry times one estimate under each telemetry
// configuration, with the result cache off and the plan cache warm, so
// every iteration executes a compiled plan and the differences between
// sub-benchmarks are the telemetry's cost. Compare traced with default
// over several -count runs to price sampled-in tracing.
func BenchmarkEstimateTelemetry(b *testing.B) {
	syn := newTestSynopsis(b)
	qs := parseWorkload(b)
	ctx := context.Background()
	for _, c := range telemetryConfigs(b, syn) {
		b.Run(c.name, func(b *testing.B) {
			for _, q := range qs { // warm the plan cache
				if _, err := c.estimate(ctx, q); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportAllocs()
			i := 0
			for b.Loop() {
				c.estimate(ctx, qs[i%len(qs)])
				i++
			}
		})
	}
}
