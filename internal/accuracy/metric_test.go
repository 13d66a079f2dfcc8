package accuracy

import (
	"math"
	"testing"
)

// TestRelErrorDefinition pins RelError to the definition every
// EXPERIMENTS.md number is scored with: the absolute relative error
// |true − est| / max(true, s) with the paper's sanity bound s = 10
// (Section 6 of the paper).
func TestRelErrorDefinition(t *testing.T) {
	cases := []struct {
		truth, est, sanity, want float64
	}{
		{100, 50, 10, 0.5},  // truth dominates the denominator
		{100, 150, 10, 0.5}, // symmetric in over/under-estimation
		{100, 100, 10, 0},   // exact
		{2, 4, 10, 0.2},     // sanity bound caps tiny-truth inflation
		{0, 5, 10, 0.5},     // empty result, bounded by s
		{0, 0, 10, 0},       // empty result, exact
		{0, 5, 0, 0},        // degenerate: no denominator at all
		{10, 0, 10, 1},      // truth == sanity
		{1e6, 999900, 10, 1e-4},
		{100, 90, 10, 0.1}, // 10% under
		{1, 11, 10, 1},     // sanity bound caps a tiny count's error
		{0, 0, 0, 0},       // empty and exact, no sanity bound
	}
	for _, c := range cases {
		if got := RelError(c.truth, c.est, c.sanity); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("RelError(%g, %g, %g) = %g, want %g", c.truth, c.est, c.sanity, got, c.want)
		}
	}
	// The sanity bound is the paper's s = 10.
	if DefaultSanityBound != 10 {
		t.Errorf("DefaultSanityBound = %v, want the paper's 10", DefaultSanityBound)
	}
}

func TestAvg(t *testing.T) {
	truths := []float64{100, 2, 0, 50}
	ests := []float64{50, 4, 5, 50}
	// Per-pair errors with s = 10: 0.5, 0.2, 0.5, 0.
	want := (0.5 + 0.2 + 0.5 + 0) / 4
	if got := Avg(truths, ests, 10); math.Abs(got-want) > 1e-12 {
		t.Errorf("Avg = %g, want %g", got, want)
	}
	if got := Avg(nil, nil, 10); got != 0 {
		t.Errorf("Avg(empty) = %g, want 0", got)
	}
	// Avg must equal the mean of RelError over the pairs, whatever the
	// sanity bound.
	for _, s := range []float64{1, 10, 100} {
		sum := 0.0
		for i := range truths {
			sum += RelError(truths[i], ests[i], s)
		}
		if got, want := Avg(truths, ests, s), sum/float64(len(truths)); math.Abs(got-want) > 1e-12 {
			t.Errorf("Avg(s=%g) = %g, want mean of RelError %g", s, got, want)
		}
	}
}
