package service

import (
	"context"
	"testing"
	"time"

	"xcluster/internal/obs"
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

// TestStatsMatchesRegistry: /stats percentiles are read from the
// request window, interpolated within the latency buckets /metrics
// exports, and the answered count from the histogram /metrics renders.
func TestStatsMatchesRegistry(t *testing.T) {
	svc := New(newTestSynopsis(t))
	for _, qs := range testWorkload {
		if _, err := svc.Estimate(context.Background(), query.MustParse(qs)); err != nil {
			t.Fatal(err)
		}
	}
	st := svc.Stats()
	recent := svc.reqs.Trailing(time.Now(), obs.ShortWindow)
	if st.LatencySamples != int(recent.Answered()) || st.LatencySamples != len(testWorkload) {
		t.Errorf("LatencySamples = %d, window says %d, want %d", st.LatencySamples, recent.Answered(), len(testWorkload))
	}
	if st.P50 != secondsDuration(recent.Quantile(0.5)) || st.P99 != secondsDuration(recent.Quantile(0.99)) {
		t.Errorf("stats percentiles %v/%v diverge from the window's %g/%g",
			st.P50, st.P99, recent.Quantile(0.5), recent.Quantile(0.99))
	}
	// The answered count lives in the histogram; /metrics' counter
	// mirrors it once the render path syncs.
	svc.SyncMetrics()
	if got := svc.served.Value(); got != st.Served || got != svc.reqHist.Count() {
		t.Errorf("served counter = %d, stats = %d, histogram count = %d", got, st.Served, svc.reqHist.Count())
	}
}

// TestWindowViewsAgree: /stats and /debug/slo read one request window,
// so after a mix of answered estimates and estimates failed on their
// deadline the SLO's 5m total is Served + Failed, its errors are
// Failed, and the percentiles' samples are Served.
func TestWindowViewsAgree(t *testing.T) {
	svc := New(newTestSynopsis(t), WithSLO(obs.SLOConfig{Availability: 0.5}))
	t.Cleanup(svc.Close)
	ctx := context.Background()
	dead, cancel := context.WithDeadline(ctx, time.Now().Add(-time.Second))
	defer cancel()
	for i, qs := range testWorkload {
		c := ctx
		if i%3 == 0 {
			c = dead
		}
		_, err := svc.Estimate(c, query.MustParse(qs))
		if (err != nil) != (i%3 == 0) {
			t.Fatalf("estimate %d: err = %v", i, err)
		}
	}
	st := svc.Stats()
	if st.Failed == 0 || st.Served == 0 {
		t.Fatalf("served/failed = %d/%d, want both nonzero", st.Served, st.Failed)
	}
	w := svc.SLO().Report().Windows[0]
	if w.Window != "5m" || w.Total != st.Served+st.Failed || w.Errors != st.Failed {
		t.Fatalf("5m window = %+v, want total %d errors %d", w, st.Served+st.Failed, st.Failed)
	}
	if uint64(st.LatencySamples) != st.Served {
		t.Fatalf("LatencySamples = %d, want Served = %d", st.LatencySamples, st.Served)
	}
}
