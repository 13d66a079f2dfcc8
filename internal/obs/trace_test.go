package obs

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"regexp"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestSanitizeRequestID(t *testing.T) {
	long := make([]byte, MaxRequestIDLen+1)
	for i := range long {
		long[i] = 'a'
	}
	cases := []struct {
		in, want string
	}{
		{"abc", "abc"},
		{"req-123_456.7", "req-123_456.7"},
		{"", ""},
		{string(long), ""},
		{"has space", ""},
		{"has\ttab", ""},
		{`has"quote`, ""},
		{`has\backslash`, ""},
		{"ctrl\x01", ""},
		{"non-ascii\xc3\xa9", ""},
	}
	for _, c := range cases {
		if got := SanitizeRequestID(c.in); got != c.want {
			t.Errorf("SanitizeRequestID(%q) = %q, want %q", c.in, got, c.want)
		}
	}
}

func TestNewRequestID(t *testing.T) {
	id := NewRequestID()
	if !regexp.MustCompile(`^[0-9a-f]{16}$`).MatchString(id) {
		t.Fatalf("NewRequestID() = %q, want 16 hex digits", id)
	}
	if id2 := NewRequestID(); id2 == id {
		t.Fatalf("two generated IDs collided: %q", id)
	}
	if SanitizeRequestID(id) != id {
		t.Fatalf("generated ID %q does not survive its own sanitizer", id)
	}
}

func TestSpanTree(t *testing.T) {
	root, _ := NewRootSpan(context.Background(), "root", "req-1")
	child, _ := root.StartChild(context.Background(), "child")
	if got := child.RequestID(); got != "req-1" {
		t.Fatalf("child request ID = %q, want inherited %q", got, "req-1")
	}
	child.SetShard("acme", "docs")
	child.SetDetail("//a/b")
	child.AddRun(&fakeRun{name: "estimate", d: 5 * time.Millisecond}, nil)
	child.FinishErr(errors.New("boom"))
	root.Finish()
	root.Finish() // idempotent

	if d := root.Duration(); d <= 0 {
		t.Fatalf("finished root duration = %v, want > 0", d)
	}
	snap := root.Snapshot()
	if snap.Name != "root" || snap.RequestID != "req-1" {
		t.Fatalf("root snapshot = %+v", snap)
	}
	if len(snap.Spans) != 1 {
		t.Fatalf("root has %d children, want 1", len(snap.Spans))
	}
	cs := snap.Spans[0]
	if cs.Tenant != "acme" || cs.Collection != "docs" || cs.Detail != "//a/b" || cs.Err != "boom" {
		t.Fatalf("child snapshot = %+v", cs)
	}
	if len(cs.Spans) != 1 || cs.Spans[0].Name != "estimate" || cs.Spans[0].Nanos != int64(5*time.Millisecond) {
		t.Fatalf("grandchild snapshot = %+v", cs.Spans)
	}
}

// fakeRun is a Run with fixed timings.
type fakeRun struct {
	name   string
	detail string
	start  time.Time
	d      time.Duration
	stages []fakeStage
}

type fakeStage struct {
	name      string
	offset, d time.Duration
}

func (r *fakeRun) RunSummary() (string, string, time.Time, time.Duration) {
	return r.name, r.detail, r.start, r.d
}

func (r *fakeRun) RunStages(fn func(stage string, offset, d time.Duration)) {
	for _, st := range r.stages {
		fn(st.name, st.offset, st.d)
	}
}

// TestSpanSnapshotRendersRuns pins the exact rendering of runs attached
// by reference: each becomes a node with the run's name, detail,
// start and duration, its stages become children at start plus
// offset, an error renders on the run's node only, and runs keep their
// insertion order among live child spans.
func TestSpanSnapshotRendersRuns(t *testing.T) {
	t0 := time.Date(2024, 1, 2, 3, 4, 5, 0, time.UTC)
	us := time.Microsecond
	root := &Span{name: "POST /estimate", requestID: "req-9", start: t0, d: 900 * us}
	root.AddRun(&fakeRun{
		name:   "estimate",
		detail: "//a/b",
		start:  t0.Add(10 * us),
		d:      40 * us,
		stages: []fakeStage{{"canonicalize", 0, 2 * us}, {"result_cache", 3 * us, 1 * us}},
	}, nil)
	shard, _ := root.StartChild(context.Background(), "shard")
	shard.start, shard.d = t0.Add(60*us), 500*us
	shard.SetShard("acme", "docs")
	shard.AddRun(&fakeRun{
		name:   "estimate",
		detail: "//a[b>1]",
		start:  t0.Add(70 * us),
		d:      300 * us,
		stages: []fakeStage{{"canonicalize", 0, 3 * us}, {"compile", 5 * us, 100 * us}, {"execute", 110 * us, 150 * us}},
	}, errors.New("context deadline exceeded"))
	root.AddRun(&fakeRun{name: "estimate", detail: "//c", start: t0.Add(600 * us), d: 9 * us}, nil)

	want := SpanSnapshot{
		Name: "POST /estimate", RequestID: "req-9", Start: t0, Nanos: int64(900 * us),
		Spans: []SpanSnapshot{
			{Name: "estimate", Detail: "//a/b", Start: t0.Add(10 * us), Nanos: int64(40 * us), Spans: []SpanSnapshot{
				{Name: "canonicalize", Start: t0.Add(10 * us), Nanos: int64(2 * us)},
				{Name: "result_cache", Start: t0.Add(13 * us), Nanos: int64(1 * us)},
			}},
			{Name: "shard", RequestID: "req-9", Tenant: "acme", Collection: "docs", Start: t0.Add(60 * us), Nanos: int64(500 * us), Spans: []SpanSnapshot{
				{Name: "estimate", Detail: "//a[b>1]", Start: t0.Add(70 * us), Nanos: int64(300 * us), Err: "context deadline exceeded", Spans: []SpanSnapshot{
					{Name: "canonicalize", Start: t0.Add(70 * us), Nanos: int64(3 * us)},
					{Name: "compile", Start: t0.Add(75 * us), Nanos: int64(100 * us)},
					{Name: "execute", Start: t0.Add(180 * us), Nanos: int64(150 * us)},
				}},
			}},
			{Name: "estimate", Detail: "//c", Start: t0.Add(600 * us), Nanos: int64(9 * us)},
		},
	}
	if got := root.Snapshot(); !reflect.DeepEqual(got, want) {
		t.Fatalf("snapshot =\n%+v\nwant\n%+v", got, want)
	}
}

func TestSpanFinishClampsToPositive(t *testing.T) {
	sp, _ := NewRootSpan(context.Background(), "fast", "")
	sp.Finish()
	if d := sp.Duration(); d < 1 {
		t.Fatalf("finished duration = %v, want >= 1ns (clamped)", d)
	}
}

// recordedSpan builds a finished root with a given family name and
// duration for store tests.
func recordedSpan(family string, d time.Duration) *Span {
	return &Span{name: family, start: time.Now(), d: d}
}

func TestTraceStoreRingAndSlowest(t *testing.T) {
	ts := NewTraceStore()
	const n = traceRecent + traceSlowest + 2
	for i := 1; i <= n; i++ {
		ts.Record(recordedSpan("POST /estimate", time.Duration(i)*time.Millisecond))
	}
	fams := ts.Snapshot()
	if len(fams) != 1 {
		t.Fatalf("families = %d, want 1", len(fams))
	}
	f := fams[0]
	if f.Family != "POST /estimate" || f.Total != n {
		t.Fatalf("family = %q total = %d, want POST /estimate / %d", f.Family, f.Total, n)
	}
	// Recent: the last traceRecent, most recent first.
	if len(f.Recent) != traceRecent {
		t.Fatalf("recent = %d entries, want %d", len(f.Recent), traceRecent)
	}
	for i, r := range f.Recent {
		if want := int64(n-i) * int64(time.Millisecond); r.Nanos != want {
			t.Errorf("recent[%d] = %dns, want %dns", i, r.Nanos, want)
		}
	}
	// Slowest: the top traceSlowest, slowest first.
	if len(f.Slowest) != traceSlowest {
		t.Fatalf("slowest = %d entries, want %d", len(f.Slowest), traceSlowest)
	}
	for i, r := range f.Slowest {
		if want := int64(n-i) * int64(time.Millisecond); r.Nanos != want {
			t.Errorf("slowest[%d] = %dns, want %dns", i, r.Nanos, want)
		}
	}
}

func TestTraceStoreSlowestSurvivesRing(t *testing.T) {
	ts := NewTraceStore()
	ts.Record(recordedSpan("f", 100*time.Millisecond))
	for i := 0; i < 2*traceRecent; i++ {
		ts.Record(recordedSpan("f", time.Millisecond))
	}
	f := ts.Snapshot()[0]
	if len(f.Slowest) == 0 || f.Slowest[0].Nanos != int64(100*time.Millisecond) {
		t.Fatalf("slowest = %+v, want the 100ms outlier retained first", f.Slowest)
	}
	for _, r := range f.Recent {
		if r.Nanos == int64(100*time.Millisecond) {
			t.Fatalf("the outlier should have been evicted from the recent ring")
		}
	}
}

func TestTraceStoreFamilyCap(t *testing.T) {
	ts := NewTraceStore()
	for i := 0; i < maxTraceFamilies+5; i++ {
		ts.Record(recordedSpan(fmt.Sprintf("GET /junk/%d", i), time.Millisecond))
	}
	fams := ts.Snapshot()
	if len(fams) != maxTraceFamilies+1 {
		t.Fatalf("families = %d, want %d (cap) + 1 (_other)", len(fams), maxTraceFamilies)
	}
	var other *FamilySnapshot
	for i := range fams {
		if fams[i].Family == otherTraceFamily {
			other = &fams[i]
		}
	}
	if other == nil || other.Total != 5 {
		t.Fatalf("overflow family = %+v, want %q with total 5", other, otherTraceFamily)
	}
}

// TestTraceStoreConcurrent hammers one store (and one shared root span)
// from 32 goroutines while snapshots run — meaningful under -race.
func TestTraceStoreConcurrent(t *testing.T) {
	ts := NewTraceStore()
	shared, _ := NewRootSpan(context.Background(), "shared", "req-shared")
	const goroutines = 32
	var wg sync.WaitGroup
	wg.Add(goroutines)
	for g := 0; g < goroutines; g++ {
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				switch g % 4 {
				case 0: // record fresh roots
					sp, _ := NewRootSpan(context.Background(), fmt.Sprintf("fam-%d", g%8), "")
					sp.Finish()
					ts.Record(sp)
				case 1: // straggler children on a shared, already-recorded root
					c, _ := shared.StartChild(context.Background(), "late")
					c.SetShard("t", "c")
					c.FinishErr(nil)
				case 2: // snapshot the store
					ts.Snapshot()
				case 3: // snapshot the contended span tree
					shared.Snapshot()
				}
			}
		}(g)
	}
	shared.Finish()
	ts.Record(shared)
	wg.Wait()
	if got := ts.Snapshot(); len(got) == 0 {
		t.Fatal("no families recorded")
	}
}

// TestStragglerAfterEviction has a scatter straggler attach a run to its
// shard span after the store evicted the span's root, while snapshots
// of the store and of the evicted tree run concurrently. Meaningful
// under -race; the straggler's reference keeps the tree intact.
func TestStragglerAfterEviction(t *testing.T) {
	ts := NewTraceStore()
	root, _ := NewRootSpan(context.Background(), "POST /estimate", "req-late")
	shard, _ := root.StartChild(context.Background(), "shard")
	root.Finish()
	ts.Record(root)

	var wg sync.WaitGroup
	wg.Add(3)
	go func() { // evict the root from the ring and the slowest list
		defer wg.Done()
		for i := 0; i < 50; i++ {
			ts.Record(recordedSpan("POST /estimate", time.Hour))
		}
	}()
	go func() {
		defer wg.Done()
		for i := 0; i < 50; i++ {
			ts.Snapshot()
			root.Snapshot()
		}
	}()
	go func() { // the straggler
		defer wg.Done()
		for i := 0; i < 50; i++ {
			shard.AddRun(&fakeRun{name: "estimate", detail: "//late", d: time.Microsecond}, nil)
		}
		shard.FinishErr(errors.New("gather gave up"))
	}()
	wg.Wait()

	for _, f := range ts.Snapshot() {
		for _, sp := range append(f.Recent, f.Slowest...) {
			if sp.RequestID == "req-late" {
				t.Fatalf("evicted root still retained: %+v", sp)
			}
		}
	}
	got := root.Snapshot().Spans[0]
	if got.Err != "gather gave up" || len(got.Spans) != 50 || got.Spans[49].Detail != "//late" {
		t.Fatalf("straggler's shard span = %s error %q with %d runs", got.Name, got.Err, len(got.Spans))
	}
}

func TestTraceHandlerHonorsClientID(t *testing.T) {
	ts := NewTraceStore()
	var seenID string
	h := TraceHandler(ts, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		seenID = RequestIDFrom(r.Context())
		if sp := SpanFrom(r.Context()); sp == nil {
			t.Error("no span in handler context")
		} else if sp.RequestID() != "abc" {
			t.Errorf("span request ID = %q, want abc", sp.RequestID())
		}
	}))
	req := httptest.NewRequest("GET", "/x", nil)
	req.Header.Set("X-Request-ID", "abc")
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if got := rec.Header().Get("X-Request-ID"); got != "abc" {
		t.Fatalf("echoed X-Request-ID = %q, want abc", got)
	}
	if seenID != "abc" {
		t.Fatalf("context request ID = %q, want abc", seenID)
	}
	fams := ts.Snapshot()
	if len(fams) != 1 || fams[0].Family != "GET /x" {
		t.Fatalf("families = %+v, want one GET /x", fams)
	}
	if got := fams[0].Recent[0].RequestID; got != "abc" {
		t.Fatalf("recorded root request ID = %q, want abc", got)
	}
}

func TestTraceHandlerGeneratesID(t *testing.T) {
	h := TraceHandler(NewTraceStore(), http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {}))
	for _, bad := range []string{"", "has space", "x\x00y"} {
		req := httptest.NewRequest("GET", "/x", nil)
		if bad != "" {
			req.Header.Set("X-Request-ID", bad)
		}
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		got := rec.Header().Get("X-Request-ID")
		if !regexp.MustCompile(`^[0-9a-f]{16}$`).MatchString(got) {
			t.Fatalf("X-Request-ID for client id %q = %q, want generated 16 hex digits", bad, got)
		}
	}
}

// TestTraceHandlerFamilyName: a request's root span keeps its method
// and path apart, yet files under and renders as "METHOD /path", the
// same family as a root span named that way directly, also for a path
// longer than Record's stack buffer.
func TestTraceHandlerFamilyName(t *testing.T) {
	ts := NewTraceStore()
	h := TraceHandler(ts, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {}))
	long := "/" + strings.Repeat("x", 100)
	for _, path := range []string{"/estimate", "/estimate", long} {
		h.ServeHTTP(httptest.NewRecorder(), httptest.NewRequest("POST", path, nil))
	}
	direct, _ := NewRootSpan(context.Background(), "POST /estimate", "req-direct")
	direct.Finish()
	ts.Record(direct)

	fams := ts.Snapshot()
	if len(fams) != 2 || fams[0].Family != "POST /estimate" || fams[1].Family != "POST "+long {
		t.Fatalf("families = %+v, want POST /estimate and POST %s", fams, long)
	}
	if fams[0].Total != 3 {
		t.Fatalf("POST /estimate holds %d traces, want 3", fams[0].Total)
	}
	for _, sp := range append(fams[0].Recent, fams[0].Slowest...) {
		if sp.Name != "POST /estimate" {
			t.Fatalf("root rendered as %q, want POST /estimate", sp.Name)
		}
	}
	if got := fams[1].Recent[0].Name; got != "POST "+long {
		t.Fatalf("long-path root rendered as %q", got)
	}
}

// TestRootSpanContext: a root span's context carries the span and
// passes its deadline, done channel, error and every other key through
// to the request's context; a context.WithCancel under it is cancelled
// with the request, synchronously: context found the request's
// cancellation through it, where a goroutine watching the request
// would cancel it only later.
func TestRootSpanContext(t *testing.T) {
	type otherKey struct{}
	deadline := time.Now().Add(time.Hour)
	base, cancelBase := context.WithDeadline(context.WithValue(context.Background(), otherKey{}, "v"), deadline)
	defer cancelBase()
	req, cancelReq := context.WithCancel(base)
	root, ctx := NewRootSpan(req, "POST", "req-1")
	if SpanFrom(ctx) != root || RequestIDFrom(ctx) != "req-1" {
		t.Fatalf("root context carries span %p (ID %q), want %p (req-1)", SpanFrom(ctx), RequestIDFrom(ctx), root)
	}
	if got, ok := ctx.Deadline(); !ok || !got.Equal(deadline) {
		t.Fatalf("Deadline() = %v, %v; want the request's %v", got, ok, deadline)
	}
	if ctx.Done() != req.Done() || ctx.Err() != nil {
		t.Fatalf("Done/Err not the request's: err %v", ctx.Err())
	}
	if got := ctx.Value(otherKey{}); got != "v" {
		t.Fatalf("foreign key = %v, want the request's value", got)
	}

	child, cancelChild := context.WithCancel(ctx)
	defer cancelChild()
	cancelReq()
	select {
	case <-child.Done():
	default:
		t.Fatal("cancelling the request did not cancel the derived context at once")
	}
	if !errors.Is(ctx.Err(), context.Canceled) || !errors.Is(child.Err(), context.Canceled) {
		t.Fatalf("after cancel: root %v, derived %v", ctx.Err(), child.Err())
	}
}
