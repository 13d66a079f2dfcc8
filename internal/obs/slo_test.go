package obs

import (
	"strings"
	"sync"
	"testing"
	"time"
)

func TestSLOConfigValidate(t *testing.T) {
	cases := []struct {
		name string
		cfg  SLOConfig
		ok   bool
	}{
		{"zero (disabled)", SLOConfig{}, true},
		{"availability only", SLOConfig{Availability: 0.999}, true},
		{"latency only", SLOConfig{LatencyObjective: 50 * time.Millisecond}, true},
		{"both with target", SLOConfig{Availability: 0.99, LatencyObjective: time.Second, LatencyTarget: 0.95}, true},
		{"availability 1.0", SLOConfig{Availability: 1}, false},
		{"availability negative", SLOConfig{Availability: -0.1}, false},
		{"latency negative", SLOConfig{LatencyObjective: -time.Second}, false},
		{"target without objective", SLOConfig{LatencyTarget: 0.9}, false},
		{"target 1.0", SLOConfig{LatencyObjective: time.Second, LatencyTarget: 1}, false},
	}
	for _, c := range cases {
		if err := c.cfg.Validate(); (err == nil) != c.ok {
			t.Errorf("%s: Validate() = %v, want ok=%v", c.name, err, c.ok)
		}
	}
}

func TestSLOTrackerDisabled(t *testing.T) {
	if tr := NewSLOTracker(SLOConfig{}, NewRequestWindow(0)); tr != nil {
		t.Fatal("zero config must return a nil (disabled) tracker")
	}
	var tr *SLOTracker
	if rep := tr.Report(); rep.Enabled {
		t.Fatal("nil tracker reports enabled")
	}
	tr.Sync(NewRegistry()) // no panic
}

func TestSLOLatencyTargetDefault(t *testing.T) {
	tr := NewSLOTracker(SLOConfig{LatencyObjective: time.Second}, NewRequestWindow(time.Second))
	if got := tr.Config().LatencyTarget; got != 0.99 {
		t.Fatalf("defaulted latency target = %v, want 0.99", got)
	}
}

// The window tests share one deterministic fixture shape: every derived
// rate is an exact binary float (objectives of 0.5, counts that are
// powers of two), so equality checks and the golden rendering are
// stable.
func TestSLOTrackerWindows(t *testing.T) {
	t0 := time.Unix(3_600_000, 0)
	cfg := SLOConfig{
		Availability:     0.5,
		LatencyObjective: 100 * time.Millisecond,
		LatencyTarget:    0.5,
	}
	reqs := NewRequestWindow(cfg.LatencyObjective)
	tr := NewSLOTracker(cfg, reqs)
	tr.now = func() time.Time { return t0 }
	// 350s ago: inside the 1h window, outside the 5m window.
	old := t0.Add(-350 * time.Second)
	for i := 0; i < 8; i++ {
		reqs.Observe(old, time.Millisecond, false)
	}
	// Now: 8 requests — 4 failed, 2 slow, 2 fast successes.
	for i := 0; i < 4; i++ {
		reqs.Observe(t0, time.Millisecond, true)
	}
	for i := 0; i < 2; i++ {
		reqs.Observe(t0, 500*time.Millisecond, false)
	}
	for i := 0; i < 2; i++ {
		reqs.Observe(t0, time.Millisecond, false)
	}

	rep := tr.Report()
	if !rep.Enabled || len(rep.Windows) != 2 {
		t.Fatalf("report = %+v", rep)
	}
	w5, w1h := rep.Windows[0], rep.Windows[1]
	if w5.Window != "5m" || w1h.Window != "1h" {
		t.Fatalf("window order = %q, %q", w5.Window, w1h.Window)
	}
	if w5.Total != 8 || w5.Errors != 4 || w5.Slow != 2 {
		t.Fatalf("5m = %+v, want 8 total / 4 errors / 2 slow", w5)
	}
	if w1h.Total != 16 || w1h.Errors != 4 || w1h.Slow != 2 {
		t.Fatalf("1h = %+v, want 16 total / 4 errors / 2 slow", w1h)
	}
	// Burn = badRate / (1 - objective); all values exact binary floats.
	if w5.AvailabilityBurnRate != 1 || w5.LatencyBurnRate != 0.5 {
		t.Fatalf("5m burns = %v / %v, want 1 / 0.5", w5.AvailabilityBurnRate, w5.LatencyBurnRate)
	}
	if w1h.AvailabilityBurnRate != 0.5 || w1h.LatencyBurnRate != 0.25 {
		t.Fatalf("1h burns = %v / %v, want 0.5 / 0.25", w1h.AvailabilityBurnRate, w1h.LatencyBurnRate)
	}
}

func TestSLOTrackerWindowRotation(t *testing.T) {
	now := time.Unix(3_600_000, 0)
	reqs := NewRequestWindow(0)
	tr := NewSLOTracker(SLOConfig{Availability: 0.5}, reqs)
	tr.now = func() time.Time { return now }
	reqs.Observe(now, time.Millisecond, true)
	if got := tr.Report().Windows[0].Total; got != 1 {
		t.Fatalf("5m total = %d, want 1", got)
	}
	// 6 minutes later the 5m window is empty, the 1h window is not.
	now = now.Add(6 * time.Minute)
	rep := tr.Report()
	if got := rep.Windows[0].Total; got != 0 {
		t.Fatalf("5m total after 6min = %d, want 0", got)
	}
	if got := rep.Windows[1].Total; got != 1 {
		t.Fatalf("1h total after 6min = %d, want 1", got)
	}
	// A full ring pass later (> 1h) the old bucket's epoch is stale and
	// the slot is reused, not double-counted.
	now = now.Add(2 * time.Hour)
	reqs.Observe(now, time.Millisecond, false)
	rep = tr.Report()
	if got := rep.Windows[1].Total; got != 1 {
		t.Fatalf("1h total after ring reuse = %d, want 1 (old pass expired)", got)
	}
}

// TestSLOSyncGolden pins the exact Prometheus rendering of the
// xcluster_slo_* series: family order, label order, and values (the
// fixture's rates are exact binary floats, so rendering is stable).
func TestSLOSyncGolden(t *testing.T) {
	t0 := time.Unix(3_600_000, 0)
	cfg := SLOConfig{
		Availability:     0.5,
		LatencyObjective: 100 * time.Millisecond,
		LatencyTarget:    0.5,
	}
	reqs := NewRequestWindow(cfg.LatencyObjective)
	tr := NewSLOTracker(cfg, reqs)
	tr.now = func() time.Time { return t0 }
	old := t0.Add(-350 * time.Second)
	for i := 0; i < 8; i++ {
		reqs.Observe(old, time.Millisecond, false)
	}
	for i := 0; i < 4; i++ {
		reqs.Observe(t0, time.Millisecond, true)
	}
	for i := 0; i < 2; i++ {
		reqs.Observe(t0, 500*time.Millisecond, false)
	}
	for i := 0; i < 2; i++ {
		reqs.Observe(t0, time.Millisecond, false)
	}

	reg := NewRegistry()
	tr.Sync(reg)
	var sb strings.Builder
	if err := reg.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	want := `# HELP xcluster_slo_availability_objective Configured availability objective (0 when disabled).
# TYPE xcluster_slo_availability_objective gauge
xcluster_slo_availability_objective 0.5
# HELP xcluster_slo_burn_rate Error-budget burn rate per SLO and trailing window (1.0 = budget spent exactly at the sustainable rate).
# TYPE xcluster_slo_burn_rate gauge
xcluster_slo_burn_rate{slo="availability",window="1h"} 0.5
xcluster_slo_burn_rate{slo="availability",window="5m"} 1
xcluster_slo_burn_rate{slo="latency",window="1h"} 0.25
xcluster_slo_burn_rate{slo="latency",window="5m"} 0.5
# HELP xcluster_slo_latency_objective_seconds Configured latency objective in seconds (0 when disabled).
# TYPE xcluster_slo_latency_objective_seconds gauge
xcluster_slo_latency_objective_seconds 0.1
# HELP xcluster_slo_latency_target Configured fraction of requests required under the latency objective.
# TYPE xcluster_slo_latency_target gauge
xcluster_slo_latency_target 0.5
# HELP xcluster_slo_window_errors Failed requests in the trailing window.
# TYPE xcluster_slo_window_errors gauge
xcluster_slo_window_errors{window="1h"} 4
xcluster_slo_window_errors{window="5m"} 4
# HELP xcluster_slo_window_requests Requests observed in the trailing window.
# TYPE xcluster_slo_window_requests gauge
xcluster_slo_window_requests{window="1h"} 16
xcluster_slo_window_requests{window="5m"} 8
# HELP xcluster_slo_window_slow Requests over the latency objective in the trailing window.
# TYPE xcluster_slo_window_slow gauge
xcluster_slo_window_slow{window="1h"} 2
xcluster_slo_window_slow{window="5m"} 2
`
	if got := sb.String(); got != want {
		t.Fatalf("golden mismatch\n--- got ---\n%s\n--- want ---\n%s", got, want)
	}
}

// TestSLOTrackerConcurrent exercises the lock-free bucket ring from
// many goroutines with a moving clock — meaningful under -race.
func TestSLOTrackerConcurrent(t *testing.T) {
	reqs := NewRequestWindow(time.Millisecond)
	tr := NewSLOTracker(SLOConfig{Availability: 0.999, LatencyObjective: time.Millisecond}, reqs)
	base := time.Unix(3_600_000, 0)
	var wg sync.WaitGroup
	for g := 0; g < 16; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				at := base.Add(time.Duration(i%40) * 7 * time.Second)
				reqs.Observe(at, time.Duration(i)*time.Microsecond, i%5 == 0)
				if i%100 == 0 {
					tr.Report()
				}
			}
		}(g)
	}
	wg.Wait()
	if rep := tr.Report(); !rep.Enabled {
		t.Fatal("tracker disabled after concurrent use")
	}
}
