package obs

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"net/http"
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

// requestIDKey and spanKey are the context keys for the request ID and
// the active span. Distinct unexported struct types cannot collide with
// other packages' keys.
type (
	requestIDKey struct{}
	spanKey      struct{}
)

// MaxRequestIDLen bounds accepted X-Request-ID header values; longer
// (or non-printable) client IDs are replaced by a generated one so an
// abusive client cannot bloat traces, logs, and response headers.
const MaxRequestIDLen = 64

// NewRequestID returns a fresh 16-hex-digit request ID.
func NewRequestID() string {
	var b [8]byte
	if _, err := rand.Read(b[:]); err != nil {
		// crypto/rand never fails on supported platforms; a zero ID is
		// still a usable correlation key if it somehow does.
		return "0000000000000000"
	}
	return hex.EncodeToString(b[:])
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

// WithRequestID returns a context carrying the request ID.
func WithRequestID(ctx context.Context, id string) context.Context {
	return context.WithValue(ctx, requestIDKey{}, id)
}

// RequestIDFrom returns the request ID carried by ctx, or "".
func RequestIDFrom(ctx context.Context) string {
	id, _ := ctx.Value(requestIDKey{}).(string)
	return id
}

// WithSpan returns a context carrying sp as the active span.
func WithSpan(ctx context.Context, sp *Span) context.Context {
	return context.WithValue(ctx, spanKey{}, sp)
}

// SpanFrom returns the active span carried by ctx, or nil. A nil result
// means the request is not being traced (sampled out or no middleware),
// and callers skip span construction entirely — that single context
// lookup is the whole tracing-off cost on the estimate hot path.
func SpanFrom(ctx context.Context) *Span {
	sp, _ := ctx.Value(spanKey{}).(*Span)
	return sp
}

// Span is one timed node of a request's trace tree. Fields are mutated
// under the span's own mutex so a scatter worker finishing a child
// after the root was recorded (a straggler past the gather deadline)
// races neither the recorder nor a concurrent /debug/traces snapshot.
type Span struct {
	mu         sync.Mutex
	name       string
	requestID  string
	tenant     string
	collection string
	detail     string
	err        string
	start      time.Time
	d          time.Duration // 0 until Finish
	children   []*Span

	// poolable marks spans built by CompletedSpan, the only constructor
	// whose spans are recycled through spanPool when the trace store
	// evicts their tree. It is set at creation and never changes. Spans
	// from NewSpan and StartChild stay GC-managed on purpose: long-lived
	// references may outlive the store's retention (a scatter straggler
	// holds the root and its shard child through its context), and a
	// recycled span under a live reference would corrupt another
	// request's trace. CompletedSpan subtrees have no such references —
	// they are fully built before AddChild publishes them and never
	// touched by their creator again.
	poolable bool
	// storeRefs counts how many TraceStore retention slots (recent ring,
	// slowest list) hold this span as a root. Guarded by the owning
	// store's mu; the tree is released for reuse when it drops to zero.
	storeRefs int
}

// spanPool recycles CompletedSpan nodes — the per-estimate subtree that
// dominates sampled-in tracing allocations (one span per pipeline stage
// per estimate). Released spans keep their children backing array, so a
// reused estimate span appends its stage children without growing a
// fresh slice.
var spanPool = sync.Pool{New: func() any { return new(Span) }}

// NewSpan starts a span now. requestID may be "" for children; Snapshot
// omits empty fields.
func NewSpan(name, requestID string) *Span {
	return &Span{name: name, requestID: requestID, start: time.Now()}
}

// CompletedSpan builds an already-finished span from recorded timings,
// for attaching pipeline-stage measurements that were captured by other
// means (core.EstimateTrace) into a trace tree after the fact. The span
// comes from a pool fed by trace-store eviction; callers must finish
// building the subtree (SetDetail, AddChild) before attaching it to a
// live tree, and must not retain references past that attachment.
func CompletedSpan(name string, start time.Time, d time.Duration) *Span {
	sp := spanPool.Get().(*Span)
	sp.name, sp.start, sp.d = name, start, d
	sp.poolable = true
	return sp
}

// releaseTree detaches and recycles an evicted trace tree: children are
// released depth-first and cleared, and poolable spans return to
// spanPool with their fields zeroed (children keep their backing array).
// The walk holds each parent's lock while releasing its children, so it
// serializes with a straggler's AddChild on the same node: the straggler
// either attaches before the clear (and its subtree is recycled here) or
// attaches to an already-detached node, where the subtree leaks
// harmlessly to the garbage collector instead of the pool.
func releaseTree(s *Span) {
	s.mu.Lock()
	for i, c := range s.children {
		releaseTree(c)
		s.children[i] = nil
	}
	s.children = s.children[:0]
	if !s.poolable {
		s.mu.Unlock()
		return
	}
	s.name, s.requestID, s.tenant, s.collection, s.detail, s.err = "", "", "", "", "", ""
	s.start = time.Time{}
	s.d = 0
	s.mu.Unlock()
	spanPool.Put(s)
}

// RequestID returns the span's request ID.
func (s *Span) RequestID() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.requestID
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

// StartChild starts and attaches a child span, inheriting the request ID.
func (s *Span) StartChild(name string) *Span {
	s.mu.Lock()
	c := &Span{name: name, requestID: s.requestID, start: time.Now()}
	s.children = append(s.children, c)
	s.mu.Unlock()
	return c
}

// AddChild attaches a pre-built child span (typically CompletedSpan).
func (s *Span) AddChild(c *Span) {
	if c == nil {
		return
	}
	s.mu.Lock()
	s.children = append(s.children, c)
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
	children := make([]*Span, len(s.children))
	copy(children, s.children)
	s.mu.Unlock()
	if len(children) > 0 {
		out.Spans = make([]SpanSnapshot, len(children))
		for i, c := range children {
			out.Spans[i] = c.Snapshot()
		}
	}
	return out
}

// Trace-store defaults: per family, the ring of most recent completed
// traces and the set of slowest traces ever seen, plus a cap on the
// number of families so unknown-path 404s cannot grow the store without
// bound.
const (
	DefaultTraceRecent  = 16
	DefaultTraceSlowest = 8
	maxTraceFamilies    = 64
	otherTraceFamily    = "_other"
)

// traceFamily holds one request family's retained traces.
type traceFamily struct {
	recent []*Span // ring, next % len is the write position
	next   uint64
	total  uint64
	slow   []*Span // ascending by duration, at most slowCap entries
}

// TraceStore retains completed span trees grouped by family (the root
// span's name, e.g. "POST /estimate"): a ring of the most recent per
// family plus the slowest N per family, which survive ring turnover —
// the traces an operator actually wants when debugging a latency SLO
// burn. A nil *TraceStore is a valid disabled store: Record is a no-op
// and Snapshot returns nil.
type TraceStore struct {
	recentCap int
	slowCap   int

	mu       sync.Mutex
	families map[string]*traceFamily
}

// NewTraceStore returns a store retaining the given number of recent
// and slowest traces per family (defaults for non-positive values).
func NewTraceStore(recent, slowest int) *TraceStore {
	if recent <= 0 {
		recent = DefaultTraceRecent
	}
	if slowest <= 0 {
		slowest = DefaultTraceSlowest
	}
	return &TraceStore{
		recentCap: recent,
		slowCap:   slowest,
		families:  make(map[string]*traceFamily),
	}
}

// Record retains a finished root span. Roots beyond the family cap are
// pooled under the "_other" family rather than dropped. A root evicted
// from both retention structures (its ring slot was overwritten and it
// is not among the slowest) has its tree released back to the span pool.
func (ts *TraceStore) Record(root *Span) {
	if ts == nil || root == nil {
		return
	}
	d := root.Duration()
	root.mu.Lock()
	family := root.name
	root.mu.Unlock()

	ts.mu.Lock()
	defer ts.mu.Unlock()
	f, ok := ts.families[family]
	if !ok {
		if len(ts.families) >= maxTraceFamilies {
			family = otherTraceFamily
			f = ts.families[family]
		}
		if f == nil {
			f = &traceFamily{recent: make([]*Span, ts.recentCap)}
			ts.families[family] = f
		}
	}
	slot := f.next % uint64(len(f.recent))
	root.storeRefs++
	if old := f.recent[slot]; old != nil {
		ts.unref(old)
	}
	f.recent[slot] = root
	f.next++
	f.total++

	// Keep the slowest slowCap traces, ascending by duration: insert in
	// order, drop the fastest when over capacity (shifting in place so
	// the backing array never migrates).
	i := sort.Search(len(f.slow), func(i int) bool { return f.slow[i].Duration() >= d })
	f.slow = append(f.slow, nil)
	copy(f.slow[i+1:], f.slow[i:])
	f.slow[i] = root
	root.storeRefs++
	if len(f.slow) > ts.slowCap {
		dropped := f.slow[0]
		copy(f.slow, f.slow[1:])
		f.slow[len(f.slow)-1] = nil
		f.slow = f.slow[:len(f.slow)-1]
		ts.unref(dropped)
	}
}

// unref drops one retention reference from a root, releasing its tree
// to the span pool when no ring slot or slowest entry holds it anymore.
// Caller holds ts.mu.
func (ts *TraceStore) unref(root *Span) {
	root.storeRefs--
	if root.storeRefs == 0 {
		releaseTree(root)
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
// first and slowest trace first. The deep copy runs under the store's
// lock: a concurrent Record could otherwise evict a retained root and
// release its tree to the span pool mid-copy.
func (ts *TraceStore) Snapshot() []FamilySnapshot {
	if ts == nil {
		return nil
	}
	ts.mu.Lock()
	type fam struct {
		name string
		fs   FamilySnapshot
	}
	fams := make([]fam, 0, len(ts.families))
	for name, f := range ts.families {
		fs := FamilySnapshot{Family: name, Total: f.total}
		n := f.next
		if n > uint64(len(f.recent)) {
			n = uint64(len(f.recent))
		}
		for i := uint64(0); i < n; i++ {
			sp := f.recent[(f.next-1-i)%uint64(len(f.recent))]
			fs.Recent = append(fs.Recent, sp.Snapshot())
		}
		for i := len(f.slow) - 1; i >= 0; i-- { // descending by duration
			fs.Slowest = append(fs.Slowest, f.slow[i].Snapshot())
		}
		fams = append(fams, fam{name: name, fs: fs})
	}
	ts.mu.Unlock()

	sort.Slice(fams, func(i, j int) bool { return fams[i].name < fams[j].name })
	out := make([]FamilySnapshot, len(fams))
	for i, f := range fams {
		out[i] = f.fs
	}
	return out
}

// TraceHandler wraps an HTTP handler with request correlation: it
// honors a well-formed client X-Request-ID (generating one otherwise),
// echoes it on the response before the handler runs (so error renderers
// can read it back from the response headers), threads it through the
// request context, opens a root span for the request, and records the
// finished tree into store. The catalog's handler (the daemon's one
// HTTP surface) is its caller; handlers below it attach child spans to
// that root. When the context already carries an ID or a span (a
// TraceHandler composed inside another), both are kept, so the outer
// handler owns the one root. store may be nil: requests still get
// correlated IDs, spans are never created, and nothing is retained.
func TraceHandler(store *TraceStore, next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		ctx := r.Context()
		id := RequestIDFrom(ctx)
		if id == "" {
			if id = SanitizeRequestID(r.Header.Get("X-Request-ID")); id == "" {
				id = NewRequestID()
			}
			ctx = WithRequestID(ctx, id)
		}
		w.Header().Set("X-Request-ID", id)
		if store != nil && SpanFrom(ctx) == nil {
			root := NewSpan(r.Method+" "+r.URL.Path, id)
			ctx = WithSpan(ctx, root)
			defer func() {
				root.Finish()
				store.Record(root)
			}()
		}
		next.ServeHTTP(w, r.WithContext(ctx))
	})
}
