package accuracy

import (
	"math"
	"strings"
	"testing"

	"xcluster/internal/obs"
	"xcluster/internal/query"
)

// withWindow shortens the monitor's rolling window so a test can fill
// and scroll it in a few samples.
func withWindow(n int) MonitorOption {
	return func(m *Monitor) { m.window = n }
}

// driftedClasses lists the classes the monitor's report flags as
// drifted.
func driftedClasses(m *Monitor) []string {
	var out []string
	for _, c := range m.Report().Classes {
		if c.Drifted {
			out = append(out, c.Class)
		}
	}
	return out
}

// obsPair feeds one estimate/truth pair with a known relative error:
// truth 100 and sanity 10 make the error exactly |100−est|/100.
func obsPair(m *Monitor, q *query.Query, relErr float64) {
	m.Observe(q, 100*(1-relErr), 100)
}

func TestMonitorReport(t *testing.T) {
	m := NewMonitor()
	qStruct := query.MustParse("//book/title")
	qRange := query.MustParse("//book[year>1990]")

	obsPair(m, qStruct, 0.1)
	obsPair(m, qStruct, 0.3)
	obsPair(m, qRange, 0.5)

	rep := m.Report()
	if rep.SanityBound != DefaultSanityBound || rep.Window != DefaultWindow {
		t.Fatalf("report config = %+v", rep)
	}
	if rep.Samples != 3 {
		t.Fatalf("samples = %d, want 3", rep.Samples)
	}
	if want := (0.1 + 0.3 + 0.5) / 3; math.Abs(rep.AvgRelError-want) > 1e-12 {
		t.Fatalf("avg = %g, want %g", rep.AvgRelError, want)
	}
	// Zero-sample classes are omitted; observed ones appear in report
	// order with their own averages.
	if len(rep.Classes) != 2 {
		t.Fatalf("classes = %+v, want struct and range only", rep.Classes)
	}
	st := rep.Classes[0]
	if st.Class != "struct" || st.Samples != 2 || math.Abs(st.AvgRelError-0.2) > 1e-12 {
		t.Fatalf("struct report = %+v", st)
	}
	if st.RecentSamples != 2 || math.Abs(st.RecentAvg-0.2) > 1e-12 {
		t.Fatalf("struct rolling state = %+v", st)
	}
	rg := rep.Classes[1]
	if rg.Class != "range" || rg.Samples != 1 || math.Abs(rg.AvgRelError-0.5) > 1e-12 {
		t.Fatalf("range report = %+v", rg)
	}
	if got := driftedClasses(m); len(got) != 0 {
		t.Fatalf("drifted classes = %v on a fresh monitor", got)
	}
}

// TestMonitorDriftTrip simulates a degraded synopsis: a class whose
// error has been small for long enough to establish a baseline suddenly
// answers much worse. The rolling window must trip the drift gauge and
// fire the callback exactly once.
func TestMonitorDriftTrip(t *testing.T) {
	reg := obs.NewRegistry()
	var events []DriftEvent
	m := NewMonitor(
		withWindow(8),
		WithMonitorRegistry(reg),
		WithOnDrift(func(ev DriftEvent) { events = append(events, ev) }),
	)
	q := query.MustParse("//book[year>1990]")

	// Healthy phase: enough samples at 1% error to fill the window and
	// scroll a baseline out of it.
	for i := 0; i < 16; i++ {
		obsPair(m, q, 0.01)
	}
	if len(events) != 0 || len(driftedClasses(m)) != 0 {
		t.Fatalf("healthy phase tripped drift: %v", events)
	}

	// Degraded phase: the synopsis now answers at 50% error.
	for i := 0; i < 8; i++ {
		obsPair(m, q, 0.5)
	}
	if len(events) != 1 {
		t.Fatalf("drift events = %d, want exactly 1 (fire on transition only)", len(events))
	}
	ev := events[0]
	if ev.Class != Range {
		t.Fatalf("drift class = %v, want Range", ev.Class)
	}
	if ev.Recent <= ev.Baseline || ev.Ratio < DefaultDriftFactor {
		t.Fatalf("drift event = %+v, want recent >> baseline", ev)
	}
	if got := driftedClasses(m); len(got) != 1 || got[0] != "range" {
		t.Fatalf("drifted classes = %v, want [range]", got)
	}

	// The gauge mirrors the flag.
	if got := reg.Gauge(MetricDrifted, `class="range"`).Value(); got != 1 {
		t.Fatalf("drifted gauge = %g, want 1", got)
	}
	if got := reg.Counter(MetricSamplesTotal, `class="range"`).Value(); got != 24 {
		t.Fatalf("samples counter = %d, want 24", got)
	}
}

// TestMonitorPrometheusGolden pins the exact Prometheus rendering of
// the accuracy series: all five classes pre-registered, labeled
// histograms with cumulative buckets, and the drift gauges.
func TestMonitorPrometheusGolden(t *testing.T) {
	reg := obs.NewRegistry()
	m := NewMonitor(WithMonitorRegistry(reg))
	// struct: error 0.1; range: error 1.
	m.Observe(query.MustParse("//book/title"), 90, 100)
	m.Observe(query.MustParse("//book[year>1990]"), 100, 50)

	want := `# HELP xcluster_accuracy_drift_ratio Rolling mean error over pre-window baseline, by predicate class.
# TYPE xcluster_accuracy_drift_ratio gauge
xcluster_accuracy_drift_ratio{class="ftcontains"} 0
xcluster_accuracy_drift_ratio{class="ftsim"} 0
xcluster_accuracy_drift_ratio{class="range"} 0
xcluster_accuracy_drift_ratio{class="struct"} 0
xcluster_accuracy_drift_ratio{class="substring"} 0
# HELP xcluster_accuracy_drifted 1 while the class's rolling error exceeds the drift threshold.
# TYPE xcluster_accuracy_drifted gauge
xcluster_accuracy_drifted{class="ftcontains"} 0
xcluster_accuracy_drifted{class="ftsim"} 0
xcluster_accuracy_drifted{class="range"} 0
xcluster_accuracy_drifted{class="struct"} 0
xcluster_accuracy_drifted{class="substring"} 0
# HELP xcluster_accuracy_error Relative error of shadow-checked estimates, by predicate class.
# TYPE xcluster_accuracy_error histogram
xcluster_accuracy_error_bucket{class="ftcontains",le="0.01"} 0
xcluster_accuracy_error_bucket{class="ftcontains",le="0.025"} 0
xcluster_accuracy_error_bucket{class="ftcontains",le="0.05"} 0
xcluster_accuracy_error_bucket{class="ftcontains",le="0.1"} 0
xcluster_accuracy_error_bucket{class="ftcontains",le="0.25"} 0
xcluster_accuracy_error_bucket{class="ftcontains",le="0.5"} 0
xcluster_accuracy_error_bucket{class="ftcontains",le="1"} 0
xcluster_accuracy_error_bucket{class="ftcontains",le="2.5"} 0
xcluster_accuracy_error_bucket{class="ftcontains",le="5"} 0
xcluster_accuracy_error_bucket{class="ftcontains",le="10"} 0
xcluster_accuracy_error_bucket{class="ftcontains",le="+Inf"} 0
xcluster_accuracy_error_sum{class="ftcontains"} 0
xcluster_accuracy_error_count{class="ftcontains"} 0
xcluster_accuracy_error_bucket{class="ftsim",le="0.01"} 0
xcluster_accuracy_error_bucket{class="ftsim",le="0.025"} 0
xcluster_accuracy_error_bucket{class="ftsim",le="0.05"} 0
xcluster_accuracy_error_bucket{class="ftsim",le="0.1"} 0
xcluster_accuracy_error_bucket{class="ftsim",le="0.25"} 0
xcluster_accuracy_error_bucket{class="ftsim",le="0.5"} 0
xcluster_accuracy_error_bucket{class="ftsim",le="1"} 0
xcluster_accuracy_error_bucket{class="ftsim",le="2.5"} 0
xcluster_accuracy_error_bucket{class="ftsim",le="5"} 0
xcluster_accuracy_error_bucket{class="ftsim",le="10"} 0
xcluster_accuracy_error_bucket{class="ftsim",le="+Inf"} 0
xcluster_accuracy_error_sum{class="ftsim"} 0
xcluster_accuracy_error_count{class="ftsim"} 0
xcluster_accuracy_error_bucket{class="range",le="0.01"} 0
xcluster_accuracy_error_bucket{class="range",le="0.025"} 0
xcluster_accuracy_error_bucket{class="range",le="0.05"} 0
xcluster_accuracy_error_bucket{class="range",le="0.1"} 0
xcluster_accuracy_error_bucket{class="range",le="0.25"} 0
xcluster_accuracy_error_bucket{class="range",le="0.5"} 0
xcluster_accuracy_error_bucket{class="range",le="1"} 1
xcluster_accuracy_error_bucket{class="range",le="2.5"} 1
xcluster_accuracy_error_bucket{class="range",le="5"} 1
xcluster_accuracy_error_bucket{class="range",le="10"} 1
xcluster_accuracy_error_bucket{class="range",le="+Inf"} 1
xcluster_accuracy_error_sum{class="range"} 1
xcluster_accuracy_error_count{class="range"} 1
xcluster_accuracy_error_bucket{class="struct",le="0.01"} 0
xcluster_accuracy_error_bucket{class="struct",le="0.025"} 0
xcluster_accuracy_error_bucket{class="struct",le="0.05"} 0
xcluster_accuracy_error_bucket{class="struct",le="0.1"} 1
xcluster_accuracy_error_bucket{class="struct",le="0.25"} 1
xcluster_accuracy_error_bucket{class="struct",le="0.5"} 1
xcluster_accuracy_error_bucket{class="struct",le="1"} 1
xcluster_accuracy_error_bucket{class="struct",le="2.5"} 1
xcluster_accuracy_error_bucket{class="struct",le="5"} 1
xcluster_accuracy_error_bucket{class="struct",le="10"} 1
xcluster_accuracy_error_bucket{class="struct",le="+Inf"} 1
xcluster_accuracy_error_sum{class="struct"} 0.1
xcluster_accuracy_error_count{class="struct"} 1
xcluster_accuracy_error_bucket{class="substring",le="0.01"} 0
xcluster_accuracy_error_bucket{class="substring",le="0.025"} 0
xcluster_accuracy_error_bucket{class="substring",le="0.05"} 0
xcluster_accuracy_error_bucket{class="substring",le="0.1"} 0
xcluster_accuracy_error_bucket{class="substring",le="0.25"} 0
xcluster_accuracy_error_bucket{class="substring",le="0.5"} 0
xcluster_accuracy_error_bucket{class="substring",le="1"} 0
xcluster_accuracy_error_bucket{class="substring",le="2.5"} 0
xcluster_accuracy_error_bucket{class="substring",le="5"} 0
xcluster_accuracy_error_bucket{class="substring",le="10"} 0
xcluster_accuracy_error_bucket{class="substring",le="+Inf"} 0
xcluster_accuracy_error_sum{class="substring"} 0
xcluster_accuracy_error_count{class="substring"} 0
# HELP xcluster_accuracy_recent_error Rolling-window mean relative error, by predicate class.
# TYPE xcluster_accuracy_recent_error gauge
xcluster_accuracy_recent_error{class="ftcontains"} 0
xcluster_accuracy_recent_error{class="ftsim"} 0
xcluster_accuracy_recent_error{class="range"} 1
xcluster_accuracy_recent_error{class="struct"} 0.1
xcluster_accuracy_recent_error{class="substring"} 0
# HELP xcluster_accuracy_samples_total Estimate/ground-truth pairs observed, by predicate class.
# TYPE xcluster_accuracy_samples_total counter
xcluster_accuracy_samples_total{class="ftcontains"} 0
xcluster_accuracy_samples_total{class="ftsim"} 0
xcluster_accuracy_samples_total{class="range"} 1
xcluster_accuracy_samples_total{class="struct"} 1
xcluster_accuracy_samples_total{class="substring"} 0
`
	var sb strings.Builder
	if err := reg.WritePrometheus(&sb); err != nil {
		t.Fatalf("WritePrometheus: %v", err)
	}
	if sb.String() != want {
		t.Errorf("accuracy series mismatch:\ngot:\n%s\nwant:\n%s", sb.String(), want)
	}
}
