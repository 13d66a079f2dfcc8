package profile

import (
	"math"
	"sort"
	"sync/atomic"
	"time"

	"xcluster/internal/accuracy"
	"xcluster/internal/obs"
)

// ShapeStat is one tracked shape's statistics in a Snapshot.
type ShapeStat struct {
	// ID is the shape's 16-hex identifier; slow-query-log entries carry
	// the same ID, so /debug/slowlog rows join against these.
	ID    string `json:"id"`
	Shape string `json:"shape"`
	Class string `json:"class"`
	// Count is the space-saving frequency estimate; CountError bounds
	// its overestimate (the true count lies in [Count-CountError, Count]).
	Count      uint64 `json:"count"`
	CountError uint64 `json:"count_error,omitempty"`
	Failed     uint64 `json:"failed,omitempty"`
	// RatePerSec is the shape's observed rate over the trailing
	// RateWindow.
	RatePerSec float64 `json:"rate_per_sec"`
	// AvgLatencyNanos and AvgSelectivity average over the occurrences
	// actually observed (Count - CountError).
	AvgLatencyNanos int64   `json:"avg_latency_nanos"`
	AvgSelectivity  float64 `json:"avg_selectivity"`
}

// ClassStat is one accuracy class's aggregate in a Snapshot. Unlike
// shape rows, class totals are exact: they count every request, even
// ones whose shape the bounded table evicted.
type ClassStat struct {
	Class      string  `json:"class"`
	Count      uint64  `json:"count"`
	Failed     uint64  `json:"failed"`
	RatePerSec float64 `json:"rate_per_sec"`
	// TrafficShare is the class's fraction of the trailing RateWindow's
	// traffic (lifetime traffic when the window is empty).
	TrafficShare    float64 `json:"traffic_share"`
	AvgLatencyNanos int64   `json:"avg_latency_nanos"`
	AvgSelectivity  float64 `json:"avg_selectivity"`
	// RelError is the accuracy monitor's error for the class, filled by
	// Join: the rolling-window mean when the monitor has recent
	// samples, the lifetime mean otherwise (ErrorSource says which).
	RelError    float64 `json:"rel_error"`
	ErrorSource string  `json:"error_source,omitempty"`
	// Pain is TrafficShare × RelError: how much this class's error
	// hurts the live workload. A rarely-queried class with terrible
	// error scores low; a hot class with modest error scores high.
	Pain float64 `json:"pain"`
}

// Snapshot is a point-in-time view of the profiler, shared by
// GET /debug/workload and the exported WorkloadProfile artifact.
type Snapshot struct {
	WindowSeconds float64 `json:"window_seconds"`
	Capacity      int     `json:"capacity"`
	// TotalRequests and TotalErrors are lifetime (exact) totals.
	TotalRequests uint64 `json:"total_requests"`
	TotalErrors   uint64 `json:"total_errors"`
	TrackedShapes int    `json:"tracked_shapes"`
	// Evictions counts shapes displaced from the full table; nonzero
	// means the shape list is a sketch of a wider shape population.
	Evictions uint64 `json:"evictions"`
	// Classes always lists every accuracy class in report order, zero
	// rows included, so class mixes compare across snapshots.
	Classes []ClassStat `json:"classes"`
	// Shapes sorts by Count descending, shape ascending (deterministic
	// under ties).
	Shapes []ShapeStat `json:"shapes"`
}

// Snapshot renders the profiler's state at time now. Each row's rate is
// its count over the trailing RateWindow divided by RateWindow.
// Returns the zero Snapshot on a nil profiler.
func (p *Profiler) Snapshot(now time.Time) Snapshot {
	if p == nil {
		return Snapshot{}
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	snap := Snapshot{
		WindowSeconds: RateWindow.Seconds(),
		Capacity:      p.capacity,
		TrackedShapes: len(p.shapes),
		Evictions:     p.evictions.Load(),
	}
	windowed := func(w *obs.Window) uint64 {
		var n [1]uint64
		w.Sum(now, windowBuckets, n[:])
		return n[0]
	}

	// Entries in deterministic (count descending, shape ascending)
	// order: both the shape rows and the class aggregation below walk
	// this list, so two snapshots of unchanged state are bit-identical
	// — float sums are order-sensitive in their last ulp.
	entries := make([]*shapeEntry, 0, len(p.shapes))
	for _, e := range p.shapes {
		entries = append(entries, e)
	}
	sort.Slice(entries, func(i, j int) bool {
		ci, cj := entries[i].count.Load(), entries[j].count.Load()
		if ci != cj {
			return ci > cj
		}
		return entries[i].shape < entries[j].shape
	})

	// Class aggregates: the eviction residue plus the live entries'
	// observed statistics. Every Record bumps exactly one live entry and
	// eviction folds the victim's observed traffic into the residue, so
	// these totals are exact even though shape counts are sketched.
	type classAgg struct {
		count, failed, win uint64
		latNs              int64
		sel                float64
	}
	agg := make([]classAgg, accuracy.NumClasses)
	for i := range p.residue {
		c := &p.residue[i]
		agg[i] = classAgg{
			count:  c.count.Load(),
			failed: c.failed.Load(),
			win:    windowed(c.win),
			latNs:  c.latNs.Load(),
			sel:    loadFloat(&c.selBits),
		}
	}
	for _, e := range entries {
		a := &agg[e.class]
		a.count += e.count.Load() - e.errBound
		a.failed += e.failed.Load()
		a.win += windowed(e.win)
		a.latNs += e.latNs.Load()
		a.sel += loadFloat(&e.selBits)
	}

	var winTotal, lifeTotal uint64
	for i := range agg {
		winTotal += agg[i].win
		lifeTotal += agg[i].count
	}
	for _, cl := range accuracy.Classes() {
		a := &agg[cl]
		st := ClassStat{
			Class:      cl.String(),
			Count:      a.count,
			Failed:     a.failed,
			RatePerSec: float64(a.win) / RateWindow.Seconds(),
		}
		if winTotal > 0 {
			st.TrafficShare = float64(a.win) / float64(winTotal)
		} else if lifeTotal > 0 {
			st.TrafficShare = float64(a.count) / float64(lifeTotal)
		}
		if a.count > 0 {
			st.AvgLatencyNanos = a.latNs / int64(a.count)
			st.AvgSelectivity = a.sel / float64(a.count)
		}
		snap.Classes = append(snap.Classes, st)
		snap.TotalRequests += a.count
		snap.TotalErrors += a.failed
	}

	snap.Shapes = make([]ShapeStat, 0, len(entries))
	for _, e := range entries {
		count := e.count.Load()
		observed := count - e.errBound
		st := ShapeStat{
			ID:         e.id,
			Shape:      e.shape,
			Class:      e.class.String(),
			Count:      count,
			CountError: e.errBound,
			Failed:     e.failed.Load(),
			RatePerSec: float64(windowed(e.win)) / RateWindow.Seconds(),
		}
		if observed > 0 {
			st.AvgLatencyNanos = e.latNs.Load() / int64(observed)
			st.AvgSelectivity = loadFloat(&e.selBits) / float64(observed)
		}
		snap.Shapes = append(snap.Shapes, st)
	}
	return snap
}

// loadFloat reads a float64 accumulated as atomic bits (see addFloat).
func loadFloat(b *atomic.Uint64) float64 {
	return math.Float64frombits(b.Load())
}

// Join fills each class row's RelError and Pain from the accuracy
// monitor's report: the class's rolling-window mean error when the
// monitor has recent samples, its lifetime mean otherwise. Classes the
// monitor has never scored keep RelError 0 — no error signal, no pain.
func (s *Snapshot) Join(rep accuracy.Report) {
	byClass := make(map[string]accuracy.ClassReport, len(rep.Classes))
	for _, c := range rep.Classes {
		byClass[c.Class] = c
	}
	for i := range s.Classes {
		cr, ok := byClass[s.Classes[i].Class]
		if !ok {
			continue
		}
		if cr.RecentSamples > 0 {
			s.Classes[i].RelError = cr.RecentAvg
			s.Classes[i].ErrorSource = "recent"
		} else if cr.Samples > 0 {
			s.Classes[i].RelError = cr.AvgRelError
			s.Classes[i].ErrorSource = "lifetime"
		}
		s.Classes[i].Pain = s.Classes[i].TrafficShare * s.Classes[i].RelError
	}
}

// Sync mirrors the profiler into xcluster_workload_* registry series;
// the service calls it at scrape time, never on the hot path. rep is
// the accuracy monitor's report backing the pain gauges.
func (p *Profiler) Sync(r *obs.Registry, rep accuracy.Report, now time.Time) {
	if p == nil {
		return
	}
	snap := p.Snapshot(now)
	snap.Join(rep)
	for _, c := range snap.Classes {
		label := `class="` + c.Class + `"`
		r.Counter("xcluster_workload_requests_total", label).Store(c.Count)
		r.Counter("xcluster_workload_errors_total", label).Store(c.Failed)
		r.Gauge("xcluster_workload_class_share", label).Set(c.TrafficShare)
		r.Gauge("xcluster_workload_pain_score", label).Set(c.Pain)
	}
	r.Gauge("xcluster_workload_shapes_tracked", "").Set(float64(snap.TrackedShapes))
	r.Counter("xcluster_workload_shape_evictions_total", "").Store(snap.Evictions)
}

// Coverage thresholds: a class is flagged as starved when it carries
// at least MinCoverageShare of the traffic but its synopsis component
// holds less than 1/CoverageSlack of a proportional budget share.
const (
	MinCoverageShare = 0.05
	CoverageSlack    = 2.0
)

// BudgetSplit is the served synopsis's byte split by component, the
// same numbers GET /debug/synopsis reports.
type BudgetSplit struct {
	NodeBytes      int `json:"node_bytes"`
	EdgeBytes      int `json:"edge_bytes"`
	HistogramBytes int `json:"histogram_bytes"`
	PSTBytes       int `json:"pst_bytes"`
	TermHistBytes  int `json:"termhist_bytes"`
}

// CoverageRow compares one class's observed traffic against the
// synopsis bytes funding the summaries that answer it.
type CoverageRow struct {
	Class string `json:"class"`
	// Component names the synopsis component that serves the class:
	// struct (nodes+edges), histogram, pst, or termhist. ftcontains and
	// ftsim share the termhist component.
	Component    string  `json:"component"`
	TrafficShare float64 `json:"traffic_share"`
	Pain         float64 `json:"pain"`
	BudgetBytes  int     `json:"budget_bytes"`
	BudgetShare  float64 `json:"budget_share"`
	// Pressure is TrafficShare / BudgetShare (0 when the component has
	// no budget — see Starved).
	Pressure float64 `json:"pressure"`
	// Starved flags misallocation: the class carries a material traffic
	// share but its component's budget share lags by more than
	// CoverageSlack (or is zero).
	Starved bool `json:"starved,omitempty"`
}

// CoverageReport is the synopsis coverage section of
// GET /debug/workload: observed class mix versus budget byte split.
type CoverageReport struct {
	TotalBudgetBytes int           `json:"total_budget_bytes"`
	Rows             []CoverageRow `json:"rows"`
	// Starved lists the flagged classes (report order).
	Starved []string `json:"starved,omitempty"`
}

// classComponent maps an accuracy class to the budget component that
// answers its predicates.
func classComponent(class string, b BudgetSplit) (string, int) {
	switch class {
	case accuracy.Range.String():
		return "histogram", b.HistogramBytes
	case accuracy.Substring.String():
		return "pst", b.PSTBytes
	case accuracy.FTContains.String(), accuracy.FTSim.String():
		return "termhist", b.TermHistBytes
	default:
		return "struct", b.NodeBytes + b.EdgeBytes
	}
}

// Coverage joins the snapshot's class mix (after Join, so pain scores
// are populated) against the synopsis budget split, flagging classes
// whose traffic outruns their component's funding.
func Coverage(classes []ClassStat, b BudgetSplit) CoverageReport {
	total := b.NodeBytes + b.EdgeBytes + b.HistogramBytes + b.PSTBytes + b.TermHistBytes
	rep := CoverageReport{TotalBudgetBytes: total, Rows: make([]CoverageRow, 0, len(classes))}
	for _, c := range classes {
		component, bytes := classComponent(c.Class, b)
		row := CoverageRow{
			Class:        c.Class,
			Component:    component,
			TrafficShare: c.TrafficShare,
			Pain:         c.Pain,
			BudgetBytes:  bytes,
		}
		if total > 0 {
			row.BudgetShare = float64(bytes) / float64(total)
		}
		if row.BudgetShare > 0 {
			row.Pressure = row.TrafficShare / row.BudgetShare
		}
		if c.TrafficShare >= MinCoverageShare &&
			row.BudgetShare*CoverageSlack < c.TrafficShare {
			row.Starved = true
			rep.Starved = append(rep.Starved, c.Class)
		}
		rep.Rows = append(rep.Rows, row)
	}
	return rep
}
