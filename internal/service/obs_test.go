package service

import (
	"context"
	"testing"
	"time"

	"xcluster/internal/query"
)

// TestDrain: Drain returns immediately with nothing in flight, honors
// its context while work is in flight, and completes once the work does.
func TestDrain(t *testing.T) {
	svc := New(newTestSynopsis(t))

	if err := svc.Drain(context.Background()); err != nil {
		t.Fatalf("idle Drain = %v", err)
	}

	svc.inflightWG.Add(1) // simulate an in-flight estimate
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	if err := svc.Drain(ctx); err == nil {
		t.Fatal("Drain with in-flight work and an expired context returned nil")
	}

	done := make(chan error, 1)
	go func() { done <- svc.Drain(context.Background()) }()
	time.Sleep(10 * time.Millisecond)
	svc.inflightWG.Done()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("Drain after work finished = %v", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("Drain did not return after the in-flight work finished")
	}
}

// TestStatsMatchesRegistry: the one-histogram design means /stats
// percentiles and /metrics are read from the same series.
func TestStatsMatchesRegistry(t *testing.T) {
	svc := New(newTestSynopsis(t))
	for _, qs := range testWorkload {
		if _, err := svc.Estimate(context.Background(), query.MustParse(qs)); err != nil {
			t.Fatal(err)
		}
	}
	st := svc.Stats()
	snap := svc.reqHist.Snapshot()
	if st.LatencySamples != snap.Samples {
		t.Errorf("LatencySamples = %d, histogram says %d", st.LatencySamples, snap.Samples)
	}
	if st.P50 != secondsDuration(snap.P50) || st.P99 != secondsDuration(snap.P99) {
		t.Errorf("stats percentiles %v/%v diverge from histogram %g/%g",
			st.P50, st.P99, snap.P50, snap.P99)
	}
	if got := svc.served.Value(); got != st.Served {
		t.Errorf("served counter = %d, stats = %d", got, st.Served)
	}
}
