package accuracy

import (
	"sync"

	"xcluster/internal/obs"
	"xcluster/internal/query"
)

// Registry metric names the monitor emits. The serving layer registers
// help text for them so one registry aggregates serving latency and
// estimation accuracy side by side.
const (
	// MetricErrorHistogram is a histogram of per-estimate relative
	// errors, labeled class="struct|range|substring|ftcontains|ftsim".
	MetricErrorHistogram = "xcluster_accuracy_error"
	// MetricRecentError is a gauge of the rolling-window mean error per
	// class.
	MetricRecentError = "xcluster_accuracy_recent_error"
	// MetricDriftRatio is a gauge of recent/baseline mean error per
	// class (0 until the baseline exists).
	MetricDriftRatio = "xcluster_accuracy_drift_ratio"
	// MetricDrifted is a 0/1 gauge per class: 1 while the class's
	// rolling error exceeds the drift threshold.
	MetricDrifted = "xcluster_accuracy_drifted"
	// MetricSamplesTotal counts observed estimate/truth pairs per class.
	MetricSamplesTotal = "xcluster_accuracy_samples_total"
)

// DefaultErrorBuckets are the histogram bounds of MetricErrorHistogram:
// relative-error ratios from 1% to 10x.
var DefaultErrorBuckets = []float64{
	0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10,
}

// Monitor defaults.
const (
	// DefaultWindow is the rolling-window size per class.
	DefaultWindow = 128
	// DefaultDriftFactor flags a class when its rolling mean error
	// exceeds this multiple of the pre-window baseline mean.
	DefaultDriftFactor = 2.0
	// DefaultMinDelta additionally requires the rolling mean to exceed
	// the baseline by this absolute margin, so near-zero errors cannot
	// trip the gauge on noise.
	DefaultMinDelta = 0.05
)

// DriftEvent describes one drift-flag transition of a class.
type DriftEvent struct {
	Class    Class
	Recent   float64 // rolling-window mean error
	Baseline float64 // mean error of all samples before the window
	Ratio    float64 // Recent / Baseline
}

// MonitorOption configures NewMonitor.
type MonitorOption func(*Monitor)

// WithWindow sets the rolling-window size per class (default
// DefaultWindow).
func WithWindow(n int) MonitorOption {
	return func(m *Monitor) {
		if n > 0 {
			m.window = n
		}
	}
}

// WithDriftFactor sets the multiple of the baseline mean at which the
// rolling mean flags drift (default DefaultDriftFactor).
func WithDriftFactor(f float64) MonitorOption {
	return func(m *Monitor) {
		if f > 0 {
			m.factor = f
		}
	}
}

// WithMinDelta sets the absolute margin the rolling mean must exceed
// the baseline by before drift is flagged (default DefaultMinDelta).
func WithMinDelta(d float64) MonitorOption {
	return func(m *Monitor) {
		if d >= 0 {
			m.minDelta = d
		}
	}
}

// WithMonitorRegistry routes the monitor's per-class error histograms
// and drift gauges into a metrics registry.
func WithMonitorRegistry(r *obs.Registry) MonitorOption {
	return func(m *Monitor) { m.reg = r }
}

// WithOnDrift installs a callback fired once per false→true drift-flag
// transition of a class (e.g. to log a warning). It runs on the
// observing goroutine with no monitor lock held. Repeated options
// chain: every installed callback fires, in installation order, so a
// logging hook and a rebuild trigger compose.
func WithOnDrift(fn func(DriftEvent)) MonitorOption {
	return func(m *Monitor) {
		if prev := m.onDrift; prev != nil {
			m.onDrift = func(ev DriftEvent) {
				prev(ev)
				fn(ev)
			}
			return
		}
		m.onDrift = fn
	}
}

// classState aggregates one class's errors: lifetime sum/count plus a
// rolling window for drift detection.
type classState struct {
	count   uint64
	sum     float64
	ring    []float64
	ringSum float64
	next    int
	filled  int
	drifted bool
}

// Monitor aggregates estimate/ground-truth pairs into per-class error
// statistics with the paper's relative-error metric. All methods are
// safe for concurrent use.
type Monitor struct {
	window   int
	factor   float64
	minDelta float64
	onDrift  func(DriftEvent)
	reg      *obs.Registry

	// Pre-resolved registry series per class (nil without a registry).
	hists   [NumClasses]*obs.Histogram
	recent  [NumClasses]*obs.Gauge
	ratio   [NumClasses]*obs.Gauge
	flagged [NumClasses]*obs.Gauge
	samples [NumClasses]*obs.Counter

	mu      sync.Mutex
	classes [NumClasses]classState
}

// NewMonitor returns a monitor with the paper's default sanity bound
// and the default drift policy.
func NewMonitor(opts ...MonitorOption) *Monitor {
	m := &Monitor{
		window:   DefaultWindow,
		factor:   DefaultDriftFactor,
		minDelta: DefaultMinDelta,
	}
	for _, opt := range opts {
		opt(m)
	}
	for i := range m.classes {
		m.classes[i].ring = make([]float64, m.window)
	}
	if m.reg != nil {
		m.reg.Help(MetricErrorHistogram, "Relative error of shadow-checked estimates, by predicate class.")
		m.reg.Help(MetricRecentError, "Rolling-window mean relative error, by predicate class.")
		m.reg.Help(MetricDriftRatio, "Rolling mean error over pre-window baseline, by predicate class.")
		m.reg.Help(MetricDrifted, "1 while the class's rolling error exceeds the drift threshold.")
		m.reg.Help(MetricSamplesTotal, "Estimate/ground-truth pairs observed, by predicate class.")
		for _, c := range Classes() {
			labels := `class="` + c.String() + `"`
			m.hists[c] = m.reg.Histogram(MetricErrorHistogram, labels, DefaultErrorBuckets)
			m.recent[c] = m.reg.Gauge(MetricRecentError, labels)
			m.ratio[c] = m.reg.Gauge(MetricDriftRatio, labels)
			m.flagged[c] = m.reg.Gauge(MetricDrifted, labels)
			m.samples[c] = m.reg.Counter(MetricSamplesTotal, labels)
		}
	}
	return m
}

// SanityBound returns the monitor's sanity bound: the paper's
// DefaultSanityBound.
func (m *Monitor) SanityBound() float64 { return DefaultSanityBound }

// Observe records one estimate/ground-truth pair: it classifies the
// query, scores the estimate with the relative-error metric, and
// updates the class's lifetime and rolling statistics. It reports the
// class and error so callers can log or return them.
func (m *Monitor) Observe(q *query.Query, est, truth float64) (Class, float64) {
	c := Classify(q)
	err := RelError(truth, est, DefaultSanityBound)

	m.mu.Lock()
	st := &m.classes[c]
	st.count++
	st.sum += err
	if st.filled == len(st.ring) {
		st.ringSum -= st.ring[st.next]
	} else {
		st.filled++
	}
	st.ring[st.next] = err
	st.ringSum += err
	st.next = (st.next + 1) % len(st.ring)

	recent, baseline, ratio, drifted := m.driftLocked(st)
	tripped := drifted && !st.drifted
	st.drifted = drifted
	m.mu.Unlock()

	if m.reg != nil {
		m.hists[c].Observe(err)
		m.samples[c].Inc()
		m.recent[c].Set(recent)
		m.ratio[c].Set(ratio)
		flag := 0.0
		if drifted {
			flag = 1
		}
		m.flagged[c].Set(flag)
	}
	if tripped && m.onDrift != nil {
		m.onDrift(DriftEvent{Class: c, Recent: recent, Baseline: baseline, Ratio: ratio})
	}
	return c, err
}

// driftLocked computes the class's rolling mean, pre-window baseline,
// their ratio, and whether the drift threshold is exceeded. The
// baseline is the mean of every sample that has scrolled out of the
// window — comparing the live window against established history, so a
// synopsis that was always bad does not self-normalize.
func (m *Monitor) driftLocked(st *classState) (recent, baseline, ratio float64, drifted bool) {
	if st.filled > 0 {
		recent = st.ringSum / float64(st.filled)
	}
	before := st.count - uint64(st.filled)
	if before == 0 {
		return recent, 0, 0, false
	}
	baseline = (st.sum - st.ringSum) / float64(before)
	if baseline > 0 {
		ratio = recent / baseline
	}
	drifted = st.filled == len(st.ring) &&
		recent >= m.factor*baseline &&
		recent-baseline >= m.minDelta
	return recent, baseline, ratio, drifted
}

// ClassReport is the point-in-time accuracy state of one class.
type ClassReport struct {
	Class string `json:"class"`
	// Samples counts observed estimate/truth pairs.
	Samples uint64 `json:"samples"`
	// AvgRelError is the lifetime mean relative error.
	AvgRelError float64 `json:"avg_rel_error"`
	// RecentAvg is the rolling-window mean; RecentSamples how many
	// samples it covers (at most the window).
	RecentAvg     float64 `json:"recent_avg"`
	RecentSamples int     `json:"recent_samples"`
	// Baseline is the mean error of samples before the window (0 until
	// the window has scrolled).
	Baseline float64 `json:"baseline"`
	// DriftRatio is RecentAvg / Baseline (0 without a baseline).
	DriftRatio float64 `json:"drift_ratio"`
	// Drifted reports whether the class currently exceeds the drift
	// threshold.
	Drifted bool `json:"drifted"`
}

// Report is a point-in-time snapshot of the monitor.
type Report struct {
	SanityBound float64 `json:"sanity_bound"`
	Window      int     `json:"window"`
	DriftFactor float64 `json:"drift_factor"`
	// Samples and AvgRelError aggregate every class.
	Samples     uint64  `json:"samples"`
	AvgRelError float64 `json:"avg_rel_error"`
	// Classes lists per-class state in report order, omitting classes
	// with no samples.
	Classes []ClassReport `json:"classes"`
}

// Report snapshots the monitor.
func (m *Monitor) Report() Report {
	rep := Report{SanityBound: DefaultSanityBound, Window: m.window, DriftFactor: m.factor}
	m.mu.Lock()
	defer m.mu.Unlock()
	var totalN uint64
	var totalSum float64
	for _, c := range Classes() {
		st := &m.classes[c]
		if st.count == 0 {
			continue
		}
		totalN += st.count
		totalSum += st.sum
		recent, baseline, ratio, _ := m.driftLocked(st)
		rep.Classes = append(rep.Classes, ClassReport{
			Class:         c.String(),
			Samples:       st.count,
			AvgRelError:   st.sum / float64(st.count),
			RecentAvg:     recent,
			RecentSamples: st.filled,
			Baseline:      baseline,
			DriftRatio:    ratio,
			Drifted:       st.drifted,
		})
	}
	rep.Samples = totalN
	if totalN > 0 {
		rep.AvgRelError = totalSum / float64(totalN)
	}
	return rep
}

// Drifted returns the classes currently flagged as drifted.
func (m *Monitor) Drifted() []Class {
	m.mu.Lock()
	defer m.mu.Unlock()
	var out []Class
	for _, c := range Classes() {
		if m.classes[c].drifted {
			out = append(out, c)
		}
	}
	return out
}
