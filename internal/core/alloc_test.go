package core

import (
	"context"
	"testing"

	"xcluster/internal/query"
)

// raceEnabled is set under the race detector, whose instrumentation
// makes allocation counts meaningless (race_test.go).
var raceEnabled bool

// TestEstimateCacheHitAllocs pins the allocation cost of an estimate
// that a cache answers: the canonical string is the one allocation of
// an untraced hit, and a trace adds exactly one more (the trace and its
// spans are one object). The served path's pin, with the service
// recording metrics from the trace, is internal/service
// TestServiceEstimateCacheHitAllocs.
func TestEstimateCacheHitAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	ref := planEstimators(t)["reference"].Synopsis()
	ctx := context.Background()
	resultHit := NewEstimator(ref)
	planHit := NewEstimator(ref)
	planHit.SetCacheCapacity(0)
	traced := NewEstimator(ref)
	for _, s := range planQueries {
		q := query.MustParse(s)
		cases := []struct {
			name string
			max  float64
			run  func()
		}{
			{"Selectivity, result-cache hit", 1, func() { resultHit.Selectivity(q) }},
			{"Selectivity, plan-cache hit", 1, func() { planHit.Selectivity(q) }},
			{"SelectivityTraced, result-cache hit", 2, func() { traced.SelectivityTraced(ctx, q) }},
		}
		for _, c := range cases {
			c.run() // warm the caches
			if n := testing.AllocsPerRun(100, c.run); n > c.max {
				t.Errorf("%s: %q: %v allocs, want ≤%v", c.name, s, n, c.max)
			}
		}
	}
}
