package obs

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"net/http"
	"slices"
	"sort"
	"sync"
	"time"
)

// This file is the request-correlation layer: request IDs threaded
// through context, trees of timed spans built as a request crosses the
// service → catalog scatter → per-shard pipeline, and a bounded
// TraceStore of completed trees in the spirit of x/net/trace — a ring
// of recent traces per request family that additionally always retains
// the slowest N, exposed at GET /debug/traces. Everything is stdlib.

// spanKey is the context key for the active span. A distinct
// unexported struct type cannot collide with other packages' keys.
type spanKey struct{}

// RequestIDHeader is the header that carries a request's ID, in its
// canonical MIME form. net/http canonicalizes any other spelling of a
// key on every Get and Set, which allocates; the bytes on the wire are
// the canonical form either way.
const RequestIDHeader = "X-Request-Id"

// MaxRequestIDLen bounds accepted X-Request-ID header values; longer
// (or non-printable) client IDs are replaced by a generated one so an
// abusive client cannot bloat traces, logs, and response headers.
const MaxRequestIDLen = 64

// NewRequestID returns a fresh 16-hex-digit request ID. The digits are
// encoded into a fixed array and converted once: one allocation.
func NewRequestID() string {
	var b [8]byte
	if _, err := rand.Read(b[:]); err != nil {
		// crypto/rand never fails on supported platforms; a zero ID is
		// still a usable correlation key if it somehow does.
		return "0000000000000000"
	}
	var h [16]byte
	hex.Encode(h[:], b[:])
	return string(h[:])
}

// SanitizeRequestID validates a client-supplied request ID: at most
// MaxRequestIDLen bytes of printable ASCII (no spaces, quotes, or
// control bytes). It returns "" when the value is unusable.
func SanitizeRequestID(id string) string {
	if id == "" || len(id) > MaxRequestIDLen {
		return ""
	}
	for i := 0; i < len(id); i++ {
		c := id[i]
		if c <= ' ' || c > '~' || c == '"' || c == '\\' {
			return ""
		}
	}
	return id
}

// RequestIDFrom returns the request ID of the active span carried by
// ctx, or "" when ctx carries none: a request carries its ID only on
// its spans.
func RequestIDFrom(ctx context.Context) string {
	if sp := SpanFrom(ctx); sp != nil {
		return sp.requestID
	}
	return ""
}

// NewRootSpan starts a request's root span now and returns it with a
// context derived from ctx that carries it as the active span, in one
// allocation: the span and its context are one record. The context
// answers the span for the span key and delegates every other value,
// and its deadline, done channel and error, to ctx, so a context derived
// from it (context.WithCancel) is cancelled with ctx's cancellation
// without a goroutine of its own.
func NewRootSpan(ctx context.Context, name, requestID string) (*Span, context.Context) {
	r := &spanRecord{span: Span{name: name, requestID: requestID, start: time.Now()}}
	r.span.children = r.span.first[:0]
	r.ctx = spanContext{Context: ctx, span: &r.span}
	return &r.span, &r.ctx
}

// spanRecord is the one record of a span and the context that carries
// it (NewRootSpan, StartChild).
type spanRecord struct {
	span Span
	ctx  spanContext
}

// spanContext is the context of a span record: the parent context plus
// the span as its one value.
type spanContext struct {
	context.Context
	span *Span
}

// Value returns the record's span for the span key and defers every
// other key to the parent context; context.WithCancel finds the
// request's cancellation through it.
func (c *spanContext) Value(key any) any {
	if key == (spanKey{}) {
		return c.span
	}
	return c.Context.Value(key)
}

// SpanFrom returns the active span carried by ctx, or nil. A nil result
// means the call did not come through TraceHandler (a direct Go API
// caller), and callers skip span construction entirely — that single
// context lookup is the whole untraced cost on the estimate hot path.
func SpanFrom(ctx context.Context) *Span {
	sp, _ := ctx.Value(spanKey{}).(*Span)
	return sp
}

// Span is one timed node of a request's trace tree. Fields are mutated
// under the span's own mutex so a scatter worker finishing a child
// after the root was recorded (a straggler past the gather deadline)
// races neither the recorder nor a concurrent /debug/traces snapshot.
// The name, path and request ID are set at creation and never change.
type Span struct {
	mu   sync.Mutex
	name string
	// path is the request path of a root span TraceHandler opened, whose
	// name is then the request method. The two are joined into the
	// span's rendered name ("POST /estimate") only where that name is
	// needed, when a trace store first sees the family and when the span
	// is snapshotted, never per request.
	path      string
	requestID string
	// idHeader backs the X-Request-Id response header value of a root
	// span TraceHandler opened, so the header costs no slice per request.
	idHeader   [1]string
	tenant     string
	collection string
	detail     string
	err        string
	start      time.Time
	d          time.Duration // 0 until Finish
	children   []child
	// first backs children until a second child arrives, so a span
	// holding one child (a point request's root and its one estimate)
	// gets it with no allocation.
	first [1]child
}

// child is one entry of a span's child list: either a live span started
// under it (StartChild), or a finished Run attached by reference
// (AddRun) and rendered only at snapshot time. Entries are stored by
// value, so attaching a run allocates nothing beyond the list's growth.
type child struct {
	span *Span
	run  Run
	err  error
}

// Run is a finished unit of work that timed itself. A span tree holds
// it by reference (Span.AddRun) and renders it only when the tree is
// snapshotted: one node carrying the run's name, detail, start and
// duration, with one child per stage. One estimate's pipeline trace
// (core.EstimateTrace) is a Run, so obs needs no dependency on core. A
// Run must not change once attached.
type Run interface {
	// RunSummary returns the run's node: its name, detail (e.g. a
	// canonical query), start and duration.
	RunSummary() (name, detail string, start time.Time, d time.Duration)
	// RunStages calls fn for each stage in order, with its start offset
	// from the run's start and its duration.
	RunStages(fn func(stage string, offset, d time.Duration))
}

// RequestID returns the span's request ID.
func (s *Span) RequestID() string { return s.requestID }

// appendName appends the span's rendered name to b: its name, then for
// a request's root span a space and the path.
func (s *Span) appendName(b []byte) []byte {
	b = append(b, s.name...)
	if s.path != "" {
		b = append(append(b, ' '), s.path...)
	}
	return b
}

// SetShard labels the span with the tenant/collection that served it.
func (s *Span) SetShard(tenant, collection string) {
	s.mu.Lock()
	s.tenant, s.collection = tenant, collection
	s.mu.Unlock()
}

// SetDetail attaches a free-form detail string (e.g. a canonical query).
func (s *Span) SetDetail(detail string) {
	s.mu.Lock()
	s.detail = detail
	s.mu.Unlock()
}

// StartChild starts and attaches a child span, inheriting the request
// ID, and returns it with a context derived from ctx that carries it as
// the active span: one record, as NewRootSpan's.
func (s *Span) StartChild(ctx context.Context, name string) (*Span, context.Context) {
	c, cctx := NewRootSpan(ctx, name, s.requestID)
	s.mu.Lock()
	s.children = append(s.children, child{span: c})
	s.mu.Unlock()
	return c, cctx
}

// Grow makes room for n more children, so a caller about to attach n
// runs (a batch of estimates) grows the child list once.
func (s *Span) Grow(n int) {
	s.mu.Lock()
	s.children = slices.Grow(s.children, n)
	s.mu.Unlock()
}

// AddRun attaches a finished run as a child, failed with err when
// non-nil. The span keeps r itself, not a copy: the run and its stages
// become span nodes only when the tree is snapshotted.
func (s *Span) AddRun(r Run, err error) {
	s.mu.Lock()
	s.children = append(s.children, child{run: r, err: err})
	s.mu.Unlock()
}

// Finish stamps the span's duration. Calling it again is a no-op, so a
// deferred Finish after an explicit FinishErr is harmless.
func (s *Span) Finish() {
	s.mu.Lock()
	if s.d == 0 {
		s.d = time.Since(s.start)
		if s.d <= 0 {
			s.d = 1 // clamp: a finished span is distinguishable from an open one
		}
	}
	s.mu.Unlock()
}

// FinishErr stamps the duration and records err (nil leaves the span
// successful).
func (s *Span) FinishErr(err error) {
	s.mu.Lock()
	if err != nil {
		s.err = err.Error()
	}
	if s.d == 0 {
		s.d = time.Since(s.start)
		if s.d <= 0 {
			s.d = 1
		}
	}
	s.mu.Unlock()
}

// Duration returns the stamped duration (0 while the span is open).
func (s *Span) Duration() time.Duration {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.d
}

// SpanSnapshot is the immutable JSON rendering of one span node.
type SpanSnapshot struct {
	Name       string         `json:"name"`
	RequestID  string         `json:"request_id,omitempty"`
	Tenant     string         `json:"tenant,omitempty"`
	Collection string         `json:"collection,omitempty"`
	Detail     string         `json:"detail,omitempty"`
	Start      time.Time      `json:"start"`
	Nanos      int64          `json:"nanos"`
	Err        string         `json:"error,omitempty"`
	Spans      []SpanSnapshot `json:"spans,omitempty"`
}

// Snapshot deep-copies the span tree under each node's lock, so it is
// safe against concurrent child attachment and straggler finishes.
// Attached runs are rendered here, from the runs themselves.
func (s *Span) Snapshot() SpanSnapshot {
	s.mu.Lock()
	out := SpanSnapshot{
		Name:       s.name,
		RequestID:  s.requestID,
		Tenant:     s.tenant,
		Collection: s.collection,
		Detail:     s.detail,
		Start:      s.start,
		Nanos:      int64(s.d),
		Err:        s.err,
	}
	if s.path != "" {
		out.Name += " " + s.path
	}
	children := make([]child, len(s.children))
	copy(children, s.children)
	s.mu.Unlock()
	if len(children) > 0 {
		out.Spans = make([]SpanSnapshot, len(children))
		for i, c := range children {
			out.Spans[i] = c.snapshot()
		}
	}
	return out
}

// snapshot renders one child entry: a live span's subtree, or a run as
// a node whose stage children sit at the run's start plus their offsets.
func (c child) snapshot() SpanSnapshot {
	if c.span != nil {
		return c.span.Snapshot()
	}
	name, detail, start, d := c.run.RunSummary()
	out := SpanSnapshot{Name: name, Detail: detail, Start: start, Nanos: int64(d)}
	if c.err != nil {
		out.Err = c.err.Error()
	}
	c.run.RunStages(func(stage string, offset, d time.Duration) {
		out.Spans = append(out.Spans, SpanSnapshot{Name: stage, Start: start.Add(offset), Nanos: int64(d)})
	})
	return out
}

// Trace-store sizes: per family, the ring of most recent completed
// traces and the set of slowest traces ever seen, plus a cap on the
// number of families so unknown-path 404s cannot grow the store without
// bound.
const (
	traceRecent      = 16
	traceSlowest     = 8
	maxTraceFamilies = 64
	otherTraceFamily = "_other"
)

// traceFamily holds one request family's retained traces.
type traceFamily struct {
	recent []*Span // ring, next % len is the write position
	next   uint64
	total  uint64
	slow   []*Span // ascending by duration, at most traceSlowest entries
}

// TraceStore retains completed span trees grouped by family (the root
// span's name, e.g. "POST /estimate"): a ring of the most recent per
// family plus the slowest N per family, which survive ring turnover —
// the traces an operator actually wants when debugging a latency SLO
// burn.
type TraceStore struct {
	mu       sync.Mutex
	families map[string]*traceFamily
}

// NewTraceStore returns a store retaining traceRecent recent and
// traceSlowest slowest traces per family.
func NewTraceStore() *TraceStore {
	return &TraceStore{families: make(map[string]*traceFamily)}
}

// Record retains a finished root span. Roots beyond the family cap are
// pooled under the "_other" family rather than dropped. The family is
// looked up by the root's rendered name, built in a stack buffer; the
// name becomes a string only when the family is new.
func (ts *TraceStore) Record(root *Span) {
	d := root.Duration()
	var buf [64]byte
	name := root.appendName(buf[:0])

	ts.mu.Lock()
	defer ts.mu.Unlock()
	f, ok := ts.families[string(name)]
	if !ok {
		family := otherTraceFamily
		if len(ts.families) < maxTraceFamilies {
			family = string(name)
		} else {
			f = ts.families[family]
		}
		if f == nil {
			f = &traceFamily{recent: make([]*Span, traceRecent)}
			ts.families[family] = f
		}
	}
	f.recent[f.next%uint64(len(f.recent))] = root
	f.next++
	f.total++

	// Keep the slowest traceSlowest traces, ascending by duration:
	// insert in order, drop the fastest when over capacity (shifting in
	// place so the backing array never migrates).
	i := sort.Search(len(f.slow), func(i int) bool { return f.slow[i].Duration() >= d })
	f.slow = append(f.slow, nil)
	copy(f.slow[i+1:], f.slow[i:])
	f.slow[i] = root
	if len(f.slow) > traceSlowest {
		copy(f.slow, f.slow[1:])
		f.slow[len(f.slow)-1] = nil
		f.slow = f.slow[:len(f.slow)-1]
	}
}

// FamilySnapshot is the JSON rendering of one family's retained traces.
type FamilySnapshot struct {
	Family string `json:"family"`
	// Total counts every trace ever recorded into the family, including
	// ones the ring has since overwritten.
	Total   uint64         `json:"total"`
	Recent  []SpanSnapshot `json:"recent,omitempty"`
	Slowest []SpanSnapshot `json:"slowest,omitempty"`
}

// Snapshot renders every family, sorted by name, most recent trace
// first and slowest trace first. Only the retained roots are gathered
// under the store's lock; each tree is copied after it is released,
// under its spans' own locks.
func (ts *TraceStore) Snapshot() []FamilySnapshot {
	type retained struct {
		name         string
		total        uint64
		recent, slow []*Span // in rendering order
	}
	ts.mu.Lock()
	fams := make([]retained, 0, len(ts.families))
	for name, f := range ts.families {
		r := retained{name: name, total: f.total}
		for i := uint64(0); i < min(f.next, uint64(len(f.recent))); i++ {
			r.recent = append(r.recent, f.recent[(f.next-1-i)%uint64(len(f.recent))])
		}
		for i := len(f.slow) - 1; i >= 0; i-- { // descending by duration
			r.slow = append(r.slow, f.slow[i])
		}
		fams = append(fams, r)
	}
	ts.mu.Unlock()

	sort.Slice(fams, func(i, j int) bool { return fams[i].name < fams[j].name })
	out := make([]FamilySnapshot, len(fams))
	for i, f := range fams {
		out[i] = FamilySnapshot{Family: f.name, Total: f.total}
		for _, sp := range f.recent {
			out[i].Recent = append(out[i].Recent, sp.Snapshot())
		}
		for _, sp := range f.slow {
			out[i].Slowest = append(out[i].Slowest, sp.Snapshot())
		}
	}
	return out
}

// TraceHandler wraps an HTTP handler with request correlation: it
// honors a well-formed client X-Request-ID (generating one otherwise),
// echoes it on the response before the handler runs (so error renderers
// can read it back from the response headers), opens a root span for
// the request carrying that ID, and records the finished tree into
// store. The root span is the one context value a request gets, and
// the span and its context are one allocation (NewRootSpan):
// RequestIDFrom reads the ID off it. The catalog's handler (the
// daemon's one HTTP surface) is its caller; handlers below it attach
// child spans to that root.
func TraceHandler(store *TraceStore, next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		id := SanitizeRequestID(r.Header.Get(RequestIDHeader))
		if id == "" {
			id = NewRequestID()
		}
		root, ctx := NewRootSpan(r.Context(), r.Method, id)
		root.path = r.URL.Path
		root.idHeader[0] = id
		w.Header()[RequestIDHeader] = root.idHeader[:]
		defer func() {
			root.Finish()
			store.Record(root)
		}()
		next.ServeHTTP(w, r.WithContext(ctx))
	})
}
