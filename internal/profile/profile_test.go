package profile

import (
	"strings"
	"sync"
	"testing"
	"time"

	"xcluster/internal/accuracy"
	"xcluster/internal/core"
	"xcluster/internal/obs"
	"xcluster/internal/query"
)

// mustParse parses a query or fails the test.
func mustParse(t *testing.T, s string) *query.Query {
	t.Helper()
	q, err := query.Parse(s)
	if err != nil {
		t.Fatalf("parse %q: %v", s, err)
	}
	return q
}

// record sketches one query with fixed latency/selectivity, hashing the
// canonical itself (hash 0) the way an untraced caller would.
func record(p *Profiler, now time.Time, q *query.Query) string {
	return p.Record(now, q, q.String(), 0, time.Millisecond, 0.5, false)
}

func TestShapeOfElidesConstants(t *testing.T) {
	cases := []struct {
		a, b string // queries that must share one shape
		want string
	}{
		{"//book[year>1990]", "//book[year>2005]", "//book[/year[range(?)]]"},
		{"//book[year range(1960,1975)]", "//book[year range(1,2)]", "//book[/year[range(?)]]"},
		{"//book[title contains(Title 1)]", "//book[title contains(zzz)]", "//book[/title[contains(?)]]"},
		{"//book[summary ftcontains(concurrency)]", "//book[summary ftcontains(x)]", "//book[/summary[ftcontains(?)]]"},
		{"//book", "//book", "//book"},
	}
	for _, c := range cases {
		sa, sb := ShapeOf(mustParse(t, c.a)), ShapeOf(mustParse(t, c.b))
		if sa != c.want || sb != c.want {
			t.Errorf("ShapeOf(%q)=%q ShapeOf(%q)=%q, want both %q", c.a, sa, c.b, sb, c.want)
		}
	}
	// Different predicate paths and branch structures stay distinct.
	distinct := []string{
		"//book",
		"//book/title",
		"//book[year>1990]",
		"//book[pages>=300]",
		"//book[year>1980][pages<250]",
		"//book[year>1990]/title",
	}
	seen := make(map[string]string)
	for _, s := range distinct {
		sh := ShapeOf(mustParse(t, s))
		if prev, dup := seen[sh]; dup {
			t.Errorf("shape %q collides: %q and %q", sh, prev, s)
		}
		seen[sh] = s
	}
}

func TestRecordCountsAndShapeIDJoin(t *testing.T) {
	p := New(8)
	now := time.Now()
	q1 := mustParse(t, "//book[year>1990]")
	q2 := mustParse(t, "//book[year>2005]") // same shape, different constant
	id1 := record(p, now, q1)
	id2 := record(p, now, q2)
	if id1 == "" || id1 != id2 {
		t.Fatalf("same-shape queries got IDs %q and %q, want equal and nonempty", id1, id2)
	}
	p.Record(now, q1, q1.String(), 0, 3*time.Millisecond, 0.25, true)

	snap := p.Snapshot(now)
	if snap.TotalRequests != 3 || snap.TotalErrors != 1 {
		t.Fatalf("totals = %d/%d, want 3/1", snap.TotalRequests, snap.TotalErrors)
	}
	if snap.TrackedShapes != 1 || len(snap.Shapes) != 1 {
		t.Fatalf("tracked %d shapes (%d rows), want 1", snap.TrackedShapes, len(snap.Shapes))
	}
	sh := snap.Shapes[0]
	if sh.ID != id1 || sh.Shape != "//book[/year[range(?)]]" || sh.Class != "range" {
		t.Fatalf("shape row = %+v", sh)
	}
	if sh.Count != 3 || sh.CountError != 0 || sh.Failed != 1 {
		t.Fatalf("shape counters = %d/%d/%d, want 3/0/1", sh.Count, sh.CountError, sh.Failed)
	}
	// Class totals: all three records are range-class.
	for _, c := range snap.Classes {
		want := uint64(0)
		if c.Class == "range" {
			want = 3
		}
		if c.Count != want {
			t.Errorf("class %s count = %d, want %d", c.Class, c.Count, want)
		}
	}
}

func TestSnapshotListsEveryClassInOrder(t *testing.T) {
	p := New(4)
	snap := p.Snapshot(time.Now())
	if len(snap.Classes) != int(accuracy.NumClasses) {
		t.Fatalf("classes = %d, want %d", len(snap.Classes), accuracy.NumClasses)
	}
	for i, cl := range accuracy.Classes() {
		if snap.Classes[i].Class != cl.String() {
			t.Fatalf("class[%d] = %q, want %q", i, snap.Classes[i].Class, cl)
		}
	}
}

func TestSpaceSavingEvictionBounds(t *testing.T) {
	p := New(2)
	now := time.Now()
	qa := mustParse(t, "//book")       // shape //book
	qb := mustParse(t, "//book/title") // shape //book/title
	qc := mustParse(t, "//book[year>1990]")
	for i := 0; i < 5; i++ {
		record(p, now, qa)
	}
	for i := 0; i < 2; i++ {
		record(p, now, qb)
	}
	// Table full (a:5, b:2). A third shape evicts the minimum (b) and
	// inherits its count as the overestimate bound.
	record(p, now, qc)
	snap := p.Snapshot(now)
	if snap.Evictions != 1 {
		t.Fatalf("evictions = %d, want 1", snap.Evictions)
	}
	byShape := make(map[string]ShapeStat)
	for _, s := range snap.Shapes {
		byShape[s.Shape] = s
	}
	if _, still := byShape["//book/title"]; still {
		t.Fatal("minimum-count shape //book/title survived eviction")
	}
	c := byShape["//book[/year[range(?)]]"]
	if c.Count != 3 || c.CountError != 2 {
		t.Fatalf("newcomer count/error = %d/%d, want 3/2 (inherited bound)", c.Count, c.CountError)
	}
	// True count (1) lies within [Count-CountError, Count] = [1, 3].
	if lo := c.Count - c.CountError; lo > 1 || c.Count < 1 {
		t.Fatalf("true count 1 outside [%d, %d]", lo, c.Count)
	}
	// The exact class totals are unaffected by the sketch: 5 struct
	// (//book) + 2 struct (//book/title) + 1 range.
	for _, cl := range snap.Classes {
		switch cl.Class {
		case "struct":
			if cl.Count != 7 {
				t.Errorf("struct count = %d, want 7 (exact despite eviction)", cl.Count)
			}
		case "range":
			if cl.Count != 1 {
				t.Errorf("range count = %d, want 1", cl.Count)
			}
		}
	}
}

func TestEvictionTieBreakIsDeterministic(t *testing.T) {
	// Two entries at equal count: the lexicographically largest shape is
	// evicted, regardless of map iteration order. Run repeatedly to
	// shake out order dependence.
	for trial := 0; trial < 20; trial++ {
		p := New(2)
		now := time.Now()
		record(p, now, mustParse(t, "//book"))       // shape //book
		record(p, now, mustParse(t, "//book/title")) // shape //book/title (larger)
		record(p, now, mustParse(t, "//library/book"))
		for _, s := range p.Snapshot(now).Shapes {
			if s.Shape == "//book/title" {
				t.Fatalf("trial %d: tie evicted //book, want //book/title (lexicographically largest)", trial)
			}
		}
	}
}

// TestRollingWindowRates: a rate is the trailing RateWindow's count
// over RateWindow, read from 10 s buckets that age out one by one.
func TestRollingWindowRates(t *testing.T) {
	p := New(8)
	t0 := time.Unix(3_600_000, 0) // the start of a bucket
	q := mustParse(t, "//book")
	rate := func(now time.Time) float64 { return p.Snapshot(now).Shapes[0].RatePerSec }
	for i := 0; i < 60; i++ {
		record(p, t0, q)
	}
	if got := rate(t0); got != 1 {
		t.Fatalf("rate = %v, want 1 (60 hits over 60 s)", got)
	}
	record(p, t0.Add(30*time.Second), q)
	// 50 s on, t0's bucket is still the window's oldest.
	if got, want := rate(t0.Add(50*time.Second)), 61.0/60; got != want {
		t.Fatalf("rate at +50s = %v, want %v", got, want)
	}
	// At +60 s it has aged out; only the +30 s hit remains.
	if got, want := rate(t0.Add(60*time.Second)), 1.0/60; got != want {
		t.Fatalf("rate at +60s = %v, want %v", got, want)
	}
	// After two idle minutes nothing is left, and a new hit counts alone.
	if got := rate(t0.Add(3 * time.Minute)); got != 0 {
		t.Fatalf("rate after idling = %v, want 0", got)
	}
	record(p, t0.Add(3*time.Minute), q)
	if got, want := rate(t0.Add(3*time.Minute)), 1.0/60; got != want {
		t.Fatalf("post-idle rate = %v, want %v", got, want)
	}
}

// TestRepresentatives: one representative per tracked shape — the
// query that admitted it — weighted by the shape's count, in snapshot
// order; an evicted shape's representative leaves with it.
func TestRepresentatives(t *testing.T) {
	p := New(2)
	now := time.Now()
	first := mustParse(t, "//book[year>1990]")
	record(p, now, first)
	record(p, now, mustParse(t, "//book[year>2005]")) // same shape
	record(p, now, mustParse(t, "//book/title"))
	record(p, now, mustParse(t, "//book/title"))
	record(p, now, mustParse(t, "//book/title"))
	reps := p.Representatives()
	if len(reps) != 2 {
		t.Fatalf("representatives = %+v, want 2", reps)
	}
	if reps[0].Shape != "//book/title" || reps[0].Count != 3 {
		t.Fatalf("first representative = %+v", reps[0])
	}
	if reps[1].Query != first || reps[1].Count != 2 {
		t.Fatalf("range shape's representative = %+v, want the admitting query with count 2", reps[1])
	}
	snap := p.Snapshot(now)
	for i, r := range reps {
		if r.Shape != snap.Shapes[i].Shape || r.Count != snap.Shapes[i].Count {
			t.Fatalf("representative %d = %+v, snapshot row %+v", i, r, snap.Shapes[i])
		}
	}
	// A third shape evicts the minimum; its representative goes too.
	record(p, now, mustParse(t, "//library/book"))
	for _, r := range p.Representatives() {
		if r.Query == first {
			t.Fatalf("evicted shape still represented: %+v", r)
		}
	}
}

func TestNilProfilerIsDisabled(t *testing.T) {
	var p *Profiler
	if id := record(p, time.Now(), mustParse(t, "//book")); id != "" {
		t.Fatalf("nil profiler returned shape ID %q", id)
	}
	if got := p.Snapshot(time.Now()); got.Capacity != 0 || len(got.Classes) != 0 {
		t.Fatalf("nil snapshot = %+v", got)
	}
	if p.Capacity() != 0 || p.Fingerprint(time.Now()) != "" {
		t.Fatal("nil profiler accessors not zero")
	}
	if p.Representatives() != nil {
		t.Fatal("nil profiler has representatives")
	}
	p.Sync(obs.NewRegistry(), accuracy.Report{}, time.Now())
}

// TestConcurrentRecordSnapshot is the -race hammer: 32 goroutines
// mixing hot-path records (cache hits and admissions), snapshots,
// syncs, and representative reads against one small profiler, so
// evictions and lookup-cache clears interleave with reads.
func TestConcurrentRecordSnapshot(t *testing.T) {
	p := New(4)
	base := time.Unix(3_600_000, 0)
	queries := []*query.Query{
		mustParse(t, "//book"),
		mustParse(t, "//book/title"),
		mustParse(t, "//book[year>1990]"),
		mustParse(t, "//book[pages>=300]"),
		mustParse(t, "//book[title contains(x)]"),
		mustParse(t, "//book[summary ftcontains(y)]"),
		mustParse(t, "//library/book"),
	}
	reg := obs.NewRegistry()
	const goroutines = 32
	var wg sync.WaitGroup
	wg.Add(goroutines)
	for g := 0; g < goroutines; g++ {
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 400; i++ {
				switch g % 8 {
				case 6:
					p.Snapshot(time.Now())
				case 7:
					if i%100 == 0 {
						p.Representatives()
					} else {
						p.Sync(reg, accuracy.Report{}, time.Now())
					}
				default:
					q := queries[(g+i)%len(queries)]
					// A clock stepping 3 s per record crosses bucket
					// boundaries and wraps the ring.
					at := base.Add(time.Duration(i) * 3 * time.Second)
					p.Record(at, q, q.String(), 0, time.Microsecond, 0.5, i%17 == 0)
				}
			}
		}(g)
	}
	wg.Wait()
	snap := p.Snapshot(time.Now())
	if snap.TrackedShapes > 4 {
		t.Fatalf("tracked %d shapes, capacity 4", snap.TrackedShapes)
	}
	for _, s := range snap.Shapes {
		if s.Count < s.CountError {
			t.Fatalf("shape %q count %d < error bound %d", s.Shape, s.Count, s.CountError)
		}
	}
}

func TestJoinFillsErrorAndPain(t *testing.T) {
	snap := Snapshot{Classes: []ClassStat{
		{Class: "struct", TrafficShare: 0.5},
		{Class: "range", TrafficShare: 0.4},
		{Class: "substring", TrafficShare: 0.1},
	}}
	snap.Join(accuracy.Report{Classes: []accuracy.ClassReport{
		{Class: "struct", Samples: 10, AvgRelError: 0.3, RecentSamples: 4, RecentAvg: 0.2},
		{Class: "range", Samples: 10, AvgRelError: 0.8},
	}})
	if c := snap.Classes[0]; c.RelError != 0.2 || c.ErrorSource != "recent" || c.Pain != 0.5*0.2 {
		t.Fatalf("struct join = %+v (want recent 0.2, pain 0.1)", c)
	}
	if c := snap.Classes[1]; c.RelError != 0.8 || c.ErrorSource != "lifetime" || c.Pain != float64(0.4)*float64(0.8) {
		t.Fatalf("range join = %+v (want lifetime 0.8, pain 0.32)", c)
	}
	if c := snap.Classes[2]; c.RelError != 0 || c.ErrorSource != "" || c.Pain != 0 {
		t.Fatalf("unscored class join = %+v (want zeros)", c)
	}
}

func TestCoverageFlagsStarvedClasses(t *testing.T) {
	classes := []ClassStat{
		{Class: "struct", TrafficShare: 0.30},
		{Class: "range", TrafficShare: 0.40, Pain: 0.2}, // histogram-funded
		{Class: "substring", TrafficShare: 0.25},        // pst has zero budget
		{Class: "ftcontains", TrafficShare: 0.04},       // below MinCoverageShare
		{Class: "ftsim", TrafficShare: 0.01},
	}
	b := core.ByteSplit{NodeBytes: 600, EdgeBytes: 200, HistogramBytes: 150, PSTBytes: 0, TermHistBytes: 50}
	rep := Coverage(classes, b)
	if rep.TotalBudgetBytes != 1000 {
		t.Fatalf("total budget = %d, want 1000", rep.TotalBudgetBytes)
	}
	rows := make(map[string]CoverageRow)
	for _, r := range rep.Rows {
		rows[r.Class] = r
	}
	// struct: 80% of budget vs 30% traffic — healthy.
	if r := rows["struct"]; r.Component != "struct" || r.BudgetBytes != 800 || r.Starved {
		t.Fatalf("struct row = %+v", r)
	}
	// range: 15% budget vs 40% traffic → 0.15×2 < 0.40: starved, and
	// pressure = 0.40/0.15.
	r := rows["range"]
	if r.Component != "histogram" || !r.Starved {
		t.Fatalf("range row = %+v, want starved histogram", r)
	}
	if want := 0.40 / 0.15; r.Pressure < want-1e-9 || r.Pressure > want+1e-9 {
		t.Fatalf("range pressure = %v, want %v", r.Pressure, want)
	}
	// substring: material traffic, zero budget → starved, pressure 0.
	if r := rows["substring"]; !r.Starved || r.Pressure != 0 || r.Component != "pst" {
		t.Fatalf("substring row = %+v", r)
	}
	// ftcontains/ftsim: below the share floor → never flagged.
	if rows["ftcontains"].Starved || rows["ftsim"].Starved {
		t.Fatal("sub-threshold classes flagged as starved")
	}
	if len(rep.Starved) != 2 || rep.Starved[0] != "range" || rep.Starved[1] != "substring" {
		t.Fatalf("starved list = %v, want [range substring]", rep.Starved)
	}
}

// TestSyncGoldenPrometheus pins the xcluster_workload_* series shape:
// the exact counter lines for a deterministic single-class load, and
// the presence of every gauge series.
func TestSyncGoldenPrometheus(t *testing.T) {
	p := New(8)
	now := time.Now()
	q := mustParse(t, "//book[year>1990]")
	for i := 0; i < 4; i++ {
		p.Record(now, q, q.String(), 0, time.Millisecond, 0.5, i == 0)
	}
	reg := obs.NewRegistry()
	p.Sync(reg, accuracy.Report{}, now)
	var sb strings.Builder
	if err := reg.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	text := sb.String()
	for _, line := range []string{
		`xcluster_workload_requests_total{class="struct"} 0`,
		`xcluster_workload_requests_total{class="range"} 4`,
		`xcluster_workload_requests_total{class="substring"} 0`,
		`xcluster_workload_requests_total{class="ftcontains"} 0`,
		`xcluster_workload_requests_total{class="ftsim"} 0`,
		`xcluster_workload_errors_total{class="range"} 1`,
		`xcluster_workload_class_share{class="range"} 1`,
		`xcluster_workload_shapes_tracked 1`,
		`xcluster_workload_shape_evictions_total 0`,
	} {
		if !strings.Contains(text, line+"\n") {
			t.Errorf("missing series line %q in:\n%s", line, text)
		}
	}
	for _, series := range []string{
		`xcluster_workload_pain_score{class="struct"}`,
		`xcluster_workload_pain_score{class="range"}`,
	} {
		if !strings.Contains(text, series) {
			t.Errorf("missing series %q", series)
		}
	}
}
