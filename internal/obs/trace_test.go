package obs

import (
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"regexp"
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
	root := NewSpan("root", "req-1")
	child := root.StartChild("child")
	if got := child.RequestID(); got != "req-1" {
		t.Fatalf("child request ID = %q, want inherited %q", got, "req-1")
	}
	child.SetShard("acme", "docs")
	child.SetDetail("//a/b")
	grand := CompletedSpan("stage", time.Now(), 5*time.Millisecond)
	child.AddChild(grand)
	child.AddChild(nil) // no-op
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
	if len(cs.Spans) != 1 || cs.Spans[0].Name != "stage" || cs.Spans[0].Nanos != int64(5*time.Millisecond) {
		t.Fatalf("grandchild snapshot = %+v", cs.Spans)
	}
}

func TestSpanFinishClampsToPositive(t *testing.T) {
	sp := NewSpan("fast", "")
	sp.Finish()
	if d := sp.Duration(); d < 1 {
		t.Fatalf("finished duration = %v, want >= 1ns (clamped)", d)
	}
}

// recordedSpan builds a finished root with a given family name and
// duration for store tests.
func recordedSpan(family string, d time.Duration) *Span {
	return CompletedSpan(family, time.Now(), d)
}

func TestTraceStoreRingAndSlowest(t *testing.T) {
	ts := NewTraceStore(4, 2)
	for i := 1; i <= 10; i++ {
		ts.Record(recordedSpan("POST /estimate", time.Duration(i)*time.Millisecond))
	}
	fams := ts.Snapshot()
	if len(fams) != 1 {
		t.Fatalf("families = %d, want 1", len(fams))
	}
	f := fams[0]
	if f.Family != "POST /estimate" || f.Total != 10 {
		t.Fatalf("family = %q total = %d, want POST /estimate / 10", f.Family, f.Total)
	}
	// Recent: last 4, most recent first.
	wantRecent := []int64{10, 9, 8, 7}
	if len(f.Recent) != len(wantRecent) {
		t.Fatalf("recent = %d entries, want %d", len(f.Recent), len(wantRecent))
	}
	for i, w := range wantRecent {
		if got := f.Recent[i].Nanos; got != w*int64(time.Millisecond) {
			t.Errorf("recent[%d] = %dns, want %dms", i, got, w)
		}
	}
	// Slowest: top 2, slowest first, surviving ring turnover.
	wantSlow := []int64{10, 9}
	if len(f.Slowest) != len(wantSlow) {
		t.Fatalf("slowest = %d entries, want %d", len(f.Slowest), len(wantSlow))
	}
	for i, w := range wantSlow {
		if got := f.Slowest[i].Nanos; got != w*int64(time.Millisecond) {
			t.Errorf("slowest[%d] = %dns, want %dms", i, got, w)
		}
	}
}

func TestTraceStoreSlowestSurvivesRing(t *testing.T) {
	ts := NewTraceStore(2, 1)
	ts.Record(recordedSpan("f", 100*time.Millisecond))
	for i := 0; i < 10; i++ {
		ts.Record(recordedSpan("f", time.Millisecond))
	}
	f := ts.Snapshot()[0]
	if len(f.Slowest) != 1 || f.Slowest[0].Nanos != int64(100*time.Millisecond) {
		t.Fatalf("slowest = %+v, want the 100ms outlier retained", f.Slowest)
	}
	for _, r := range f.Recent {
		if r.Nanos == int64(100*time.Millisecond) {
			t.Fatalf("the outlier should have been evicted from the recent ring")
		}
	}
}

func TestTraceStoreFamilyCap(t *testing.T) {
	ts := NewTraceStore(2, 1)
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

func TestNilTraceStore(t *testing.T) {
	var ts *TraceStore
	ts.Record(recordedSpan("f", time.Millisecond)) // no panic
	if snap := ts.Snapshot(); snap != nil {
		t.Fatalf("nil store snapshot = %v, want nil", snap)
	}
}

// TestTraceStoreConcurrent hammers one store (and one shared root span)
// from 32 goroutines while snapshots run — meaningful under -race.
func TestTraceStoreConcurrent(t *testing.T) {
	ts := NewTraceStore(8, 4)
	shared := NewSpan("shared", "req-shared")
	const goroutines = 32
	var wg sync.WaitGroup
	wg.Add(goroutines)
	for g := 0; g < goroutines; g++ {
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				switch g % 4 {
				case 0: // record fresh roots
					sp := NewSpan(fmt.Sprintf("fam-%d", g%8), "")
					sp.Finish()
					ts.Record(sp)
				case 1: // straggler children on a shared, already-recorded root
					c := shared.StartChild("late")
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

func TestTraceHandlerHonorsClientID(t *testing.T) {
	ts := NewTraceStore(4, 2)
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
	h := TraceHandler(nil, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {}))
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

// TestTraceHandlerNested checks composition: an outer TraceHandler
// already opened a root span, so an inner one must not open a second
// root or re-record.
func TestTraceHandlerNested(t *testing.T) {
	outer := NewTraceStore(4, 2)
	inner := NewTraceStore(4, 2)
	innerH := TraceHandler(inner, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if sp := SpanFrom(r.Context()); sp == nil || sp.RequestID() != "abc" {
			t.Error("inner handler does not see the outer root span")
		}
	}))
	outerH := TraceHandler(outer, innerH)
	req := httptest.NewRequest("GET", "/stats", nil)
	req.Header.Set("X-Request-ID", "abc")
	outerH.ServeHTTP(httptest.NewRecorder(), req)
	if got := len(inner.Snapshot()); got != 0 {
		t.Fatalf("inner store recorded %d families, want 0 (outer owns the root)", got)
	}
	if got := len(outer.Snapshot()); got != 1 {
		t.Fatalf("outer store recorded %d families, want 1", got)
	}
}
