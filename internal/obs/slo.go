package obs

import (
	"fmt"
	"time"
)

// This file tracks per-shard SLOs: an availability objective (fraction
// of requests that must succeed) and a latency objective (fraction of
// requests that must finish under a threshold), each evaluated over
// short and long trailing windows as error-budget burn rates — the
// standard multi-window multi-burn-rate alerting setup. Burn rate is
// badRate / (1 - objective): 1.0 means the error budget is being spent
// exactly as fast as it accrues; a 5m burn of 14 with a 1h burn above 1
// is a page. Exposed at GET /debug/slo and as xcluster_slo_* gauges.

// SLOConfig is a shard's objectives. The zero value disables tracking.
type SLOConfig struct {
	// Availability is the target fraction of requests that succeed,
	// e.g. 0.999. Zero disables the availability SLO.
	Availability float64
	// LatencyObjective is the threshold under which a request counts as
	// fast. Zero disables the latency SLO.
	LatencyObjective time.Duration
	// LatencyTarget is the target fraction of requests under
	// LatencyObjective (default 0.99 when a latency objective is set).
	LatencyTarget float64
}

// Enabled reports whether any objective is configured.
func (c SLOConfig) Enabled() bool { return c.Availability > 0 || c.LatencyObjective > 0 }

// withDefaults fills derived defaults.
func (c SLOConfig) withDefaults() SLOConfig {
	if c.LatencyObjective > 0 && c.LatencyTarget == 0 {
		c.LatencyTarget = 0.99
	}
	return c
}

// Validate rejects objectives outside their meaningful ranges. Both
// objectives are optional, but a configured one must leave a non-zero
// error budget (a 1.0 target divides burn rates by zero).
func (c SLOConfig) Validate() error {
	if c.Availability < 0 || c.Availability >= 1 {
		if c.Availability != 0 {
			return fmt.Errorf("obs: availability objective %v outside (0, 1)", c.Availability)
		}
	}
	if c.LatencyObjective < 0 {
		return fmt.Errorf("obs: negative latency objective %v", c.LatencyObjective)
	}
	if c.LatencyTarget != 0 {
		if c.LatencyTarget < 0 || c.LatencyTarget >= 1 {
			return fmt.Errorf("obs: latency target %v outside (0, 1)", c.LatencyTarget)
		}
		if c.LatencyObjective == 0 {
			return fmt.Errorf("obs: latency target %v without a latency objective", c.LatencyTarget)
		}
	}
	return nil
}

// SLOTracker is a shard's objectives plus burn-rate views over the
// shard's request window (5m = ShortWindow, 1h = LongWindow). A nil
// *SLOTracker is a valid disabled tracker: Report returns a disabled
// report, Sync emits nothing.
type SLOTracker struct {
	cfg  SLOConfig
	reqs *RequestWindow
	now  func() time.Time // injectable for deterministic tests
}

// NewSLOTracker returns a tracker for cfg reading reqs, which must
// count estimates slower than cfg.LatencyObjective as slow, or nil when
// cfg disables tracking.
func NewSLOTracker(cfg SLOConfig, reqs *RequestWindow) *SLOTracker {
	if !cfg.Enabled() {
		return nil
	}
	return &SLOTracker{cfg: cfg.withDefaults(), reqs: reqs, now: time.Now}
}

// Config returns the tracked objectives (zero when disabled).
func (t *SLOTracker) Config() SLOConfig {
	if t == nil {
		return SLOConfig{}
	}
	return t.cfg
}

// SLOWindowReport is one trailing window's readout.
type SLOWindowReport struct {
	Window    string  `json:"window"`
	Total     uint64  `json:"total"`
	Errors    uint64  `json:"errors"`
	Slow      uint64  `json:"slow"`
	ErrorRate float64 `json:"error_rate"`
	SlowRate  float64 `json:"slow_rate"`
	// AvailabilityBurnRate is ErrorRate / (1 - availability objective);
	// LatencyBurnRate is SlowRate / (1 - latency target). 1.0 means the
	// error budget is consumed exactly as fast as it accrues. Zero when
	// the corresponding objective is not configured.
	AvailabilityBurnRate float64 `json:"availability_burn_rate"`
	LatencyBurnRate      float64 `json:"latency_burn_rate"`
}

// SLOReport is the GET /debug/slo payload for one shard.
type SLOReport struct {
	Enabled               bool              `json:"enabled"`
	AvailabilityObjective float64           `json:"availability_objective,omitempty"`
	LatencyObjective      string            `json:"latency_objective,omitempty"`
	LatencyObjectiveNanos int64             `json:"latency_objective_nanos,omitempty"`
	LatencyTarget         float64           `json:"latency_target,omitempty"`
	Windows               []SLOWindowReport `json:"windows,omitempty"`
}

// window reads one trailing span of the request window.
func (t *SLOTracker) window(name string, span time.Duration) SLOWindowReport {
	c := t.reqs.Trailing(t.now(), span)
	w := SLOWindowReport{Window: name, Total: c.Total, Errors: c.Errors, Slow: c.Slow}
	if w.Total > 0 {
		w.ErrorRate = float64(w.Errors) / float64(w.Total)
		w.SlowRate = float64(w.Slow) / float64(w.Total)
		if t.cfg.Availability > 0 {
			w.AvailabilityBurnRate = w.ErrorRate / (1 - t.cfg.Availability)
		}
		if t.cfg.LatencyObjective > 0 {
			w.LatencyBurnRate = w.SlowRate / (1 - t.cfg.LatencyTarget)
		}
	}
	return w
}

// sloWindows are the reported trailing windows.
var sloWindows = []struct {
	name string
	span time.Duration
}{
	{"5m", ShortWindow},
	{"1h", LongWindow},
}

// Report renders the tracker's current state.
func (t *SLOTracker) Report() SLOReport {
	if t == nil {
		return SLOReport{}
	}
	rep := SLOReport{
		Enabled:               true,
		AvailabilityObjective: t.cfg.Availability,
		LatencyTarget:         t.cfg.LatencyTarget,
	}
	if t.cfg.LatencyObjective > 0 {
		rep.LatencyObjective = t.cfg.LatencyObjective.String()
		rep.LatencyObjectiveNanos = int64(t.cfg.LatencyObjective)
	}
	for _, w := range sloWindows {
		rep.Windows = append(rep.Windows, t.window(w.name, w.span))
	}
	return rep
}

// Sync mirrors the tracker into r's xcluster_slo_* gauges: the
// configured objectives plus, per window, the windowed request counts
// and both burn rates. Series names and label sets are fixed, so the
// scrape shape is deterministic (golden-tested); values move with
// traffic. Called at scrape time alongside the registry's other
// mirrored series.
func (t *SLOTracker) Sync(r *Registry) {
	if t == nil {
		return
	}
	r.Help("xcluster_slo_availability_objective", "Configured availability objective (0 when disabled).")
	r.Help("xcluster_slo_latency_objective_seconds", "Configured latency objective in seconds (0 when disabled).")
	r.Help("xcluster_slo_latency_target", "Configured fraction of requests required under the latency objective.")
	r.Help("xcluster_slo_burn_rate", "Error-budget burn rate per SLO and trailing window (1.0 = budget spent exactly at the sustainable rate).")
	r.Help("xcluster_slo_window_requests", "Requests observed in the trailing window.")
	r.Help("xcluster_slo_window_errors", "Failed requests in the trailing window.")
	r.Help("xcluster_slo_window_slow", "Requests over the latency objective in the trailing window.")
	r.Gauge("xcluster_slo_availability_objective", "").Set(t.cfg.Availability)
	r.Gauge("xcluster_slo_latency_objective_seconds", "").Set(t.cfg.LatencyObjective.Seconds())
	r.Gauge("xcluster_slo_latency_target", "").Set(t.cfg.LatencyTarget)
	for _, w := range sloWindows {
		rep := t.window(w.name, w.span)
		wl := fmt.Sprintf("window=%q", w.name)
		r.Gauge("xcluster_slo_window_requests", wl).Set(float64(rep.Total))
		r.Gauge("xcluster_slo_window_errors", wl).Set(float64(rep.Errors))
		r.Gauge("xcluster_slo_window_slow", wl).Set(float64(rep.Slow))
		r.Gauge("xcluster_slo_burn_rate", fmt.Sprintf("slo=%q,%s", "availability", wl)).Set(rep.AvailabilityBurnRate)
		r.Gauge("xcluster_slo_burn_rate", fmt.Sprintf("slo=%q,%s", "latency", wl)).Set(rep.LatencyBurnRate)
	}
}
