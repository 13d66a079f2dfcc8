// Package xcluster is the public API of this reproduction of "XCluster
// Synopses for Structured XML Content" (Polyzotis & Garofalakis, ICDE
// 2006). An XCluster synopsis is a compact structure-value clustering of
// an XML document that supports selectivity estimation for twig queries
// with numeric-range, substring, and IR-style keyword predicates over
// heterogeneous element content.
//
// Typical use:
//
//	tree, _ := xcluster.ParseXML(file)
//	syn, _  := xcluster.Build(tree,
//	    xcluster.WithStructBudget(10<<10), // 10 KB of structure
//	    xcluster.WithValueBudget(50<<10),  // 50 KB of value summaries
//	)
//	est := xcluster.NewEstimator(syn)
//	q, _ := xcluster.ParseQuery("//paper[year>2000]/title[contains(Tree)]")
//	fmt.Println(est.Selectivity(q))
//
// Hot query shapes can be compiled once and executed many times:
//
//	pq, _ := est.Prepare(q)
//	fmt.Println(pq.Selectivity()) // same value, no per-call resolution
//
// The estimator is safe for concurrent use; internal/service wraps it in
// a batch estimation service and cmd/xclusterd serves it over HTTP.
//
// The heavy lifting lives in the internal packages (see DESIGN.md for the
// full inventory); this package re-exports the surface a downstream user
// needs: document parsing, synopsis construction, query parsing, and both
// exact and approximate selectivity evaluation.
package xcluster

import (
	"context"
	"fmt"
	"io"

	"xcluster/internal/accuracy"
	"xcluster/internal/core"
	"xcluster/internal/query"
	"xcluster/internal/vsum"
	"xcluster/internal/xmltree"
)

// Tree is a parsed XML document: a node-labeled tree whose elements carry
// typed values (numeric, string, or free text).
type Tree = xmltree.Tree

// Node is one element node of a document tree.
type Node = xmltree.Node

// Synopsis is an XCluster summary of a document.
type Synopsis = core.Synopsis

// Estimator approximates twig-query selectivities over a synopsis.
type Estimator = core.Estimator

// Query is a parsed twig query.
type Query = query.Query

// ParseXML reads an XML document, inferring value types (integers are
// numeric, short strings are STRING, longer free text is TEXT).
func ParseXML(r io.Reader) (*Tree, error) {
	return xmltree.Parse(r, xmltree.ParseOptions{})
}

// WriteXML serializes a document tree.
func WriteXML(w io.Writer, t *Tree) error {
	return xmltree.Write(w, t)
}

// ParseQuery parses a twig query in the XPath fragment described in the
// query package: child (/) and descendant (//) axes, wildcards, branch
// predicates in brackets, and the value predicates range(l,h) /
// comparison operators, contains(s), and ftcontains(t1,...,tk).
func ParseQuery(s string) (*Query, error) {
	return query.Parse(s)
}

// MustParseQuery is ParseQuery that panics on error, for tests and
// examples with known-good query literals.
func MustParseQuery(s string) *Query {
	return query.MustParse(s)
}

// Options is the configuration the functional options (WithStructBudget,
// WithValueBudget, ...) fill in for Build and its variants.
type Options struct {
	// StructBudget is the byte budget for the synopsis graph (nodes,
	// edges, edge counts). The coarsest reachable structure is one
	// cluster per (tag, value type).
	StructBudget int
	// ValueBudget is the byte budget for value summaries (histograms,
	// pruned suffix trees, end-biased term histograms).
	ValueBudget int
	// ValuePaths restricts value summarization to the given root label
	// paths (e.g. "/dblp/author/paper/year"). Nil summarizes every
	// value-bearing path.
	ValuePaths []string
	// PSTDepth bounds the substring length retained by string summaries
	// (default 4).
	PSTDepth int
	// HistBuckets caps detailed numeric histograms (default: one bucket
	// per distinct value).
	HistBuckets int
	// MaxSummaryBytes caps each detailed reference value summary
	// (default: unbounded).
	MaxSummaryBytes int
	// NumericSummary selects the NUMERIC summarization tool:
	// "histogram" (default), "wavelet", or "sample" — the three tools
	// the paper cites for numeric frequency distributions.
	NumericSummary string
	// BuildWorkers is the number of goroutines evaluating merge
	// candidates (0 = GOMAXPROCS; negative is rejected). The count
	// never changes the produced synopsis.
	BuildWorkers int
	// BuildProgress, when set, receives periodic snapshots of a running
	// build.
	BuildProgress func(BuildProgress)
	// BuildMetrics, when set, receives the build's counters.
	BuildMetrics MetricSink
	// BuildStats, when set, is filled with the work a successful build
	// performed.
	BuildStats *BuildStats
}

// numericKind maps the option string to the internal kind.
func (o Options) numericKind() (vsum.NumericKind, error) {
	switch o.NumericSummary {
	case "", "histogram":
		return vsum.KindHistogram, nil
	case "wavelet":
		return vsum.KindWavelet, nil
	case "sample":
		return vsum.KindSample, nil
	default:
		return 0, fmt.Errorf("%w: %q (want histogram, wavelet or sample)", ErrUnknownNumericSummary, o.NumericSummary)
	}
}

// BuildProgress is a point-in-time snapshot of a running build,
// delivered to the callback registered with WithBuildProgress.
type BuildProgress = core.BuildProgress

// BuildStats summarizes the work one build performed: merges applied,
// candidate evaluations, per-phase wall times. Request it with
// WithBuildStats.
type BuildStats = core.BuildStats

// MetricSink receives build counters (see WithBuildMetrics). The obs
// package's registry implements it; so does any collector with Add and
// Observe. Implementations must be safe for concurrent use.
type MetricSink = core.MetricSink

// Build constructs an XCluster synopsis of the document within the given
// storage budgets: it builds the detailed reference synopsis and runs the
// two-phase XCLUSTERBUILD compression (structure-value merges, then
// value-summary compression). A positive structural budget is required
// (ErrBudgetTooSmall otherwise).
func Build(t *Tree, opts ...Option) (*Synopsis, error) {
	return BuildContext(context.Background(), t, opts...)
}

// BuildContext is Build with cancellation: XCLUSTERBUILD checks ctx at
// the phase boundaries of its merge loop and during value compression,
// so huge builds can be aborted.
func BuildContext(ctx context.Context, t *Tree, opts ...Option) (*Synopsis, error) {
	cfg := applyOptions(opts)
	ref, err := buildReference(t, cfg)
	if err != nil {
		return nil, err
	}
	return compressContext(ctx, ref, cfg.StructBudget, cfg.ValueBudget, cfg)
}

// BuildReference constructs the detailed reference synopsis (a refinement
// of the lossless count-stable summary with one incoming path per
// cluster). It is the input to Compress and is useful on its own as an
// exact structural summary. Budget options are ignored (the reference is
// uncompressed).
func BuildReference(t *Tree, opts ...Option) (*Synopsis, error) {
	return buildReference(t, applyOptions(opts))
}

// buildReference is BuildReference on a resolved configuration.
func buildReference(t *Tree, cfg Options) (*Synopsis, error) {
	kind, err := cfg.numericKind()
	if err != nil {
		return nil, err
	}
	return core.BuildReference(t, core.ReferenceOptions{
		ValuePaths: cfg.ValuePaths,
		Detail: vsum.BuildOptions{
			Numeric:         kind,
			PSTDepth:        cfg.PSTDepth,
			HistBuckets:     cfg.HistBuckets,
			MaxSummaryBytes: cfg.MaxSummaryBytes,
		},
	})
}

// Compress runs XCLUSTERBUILD on a reference synopsis, producing a new
// synopsis within the two byte budgets. The input is not modified.
// Build-tuning options (WithBuildWorkers, WithBuildProgress,
// WithBuildMetrics, WithBuildStats) apply; budget and reference options
// are ignored here — the budgets come from the explicit arguments.
func Compress(ref *Synopsis, structBudget, valueBudget int, opts ...Option) (*Synopsis, error) {
	return compressContext(context.Background(), ref, structBudget, valueBudget, applyOptions(opts))
}

func compressContext(ctx context.Context, ref *Synopsis, structBudget, valueBudget int, cfg Options) (*Synopsis, error) {
	if structBudget <= 0 {
		return nil, fmt.Errorf("%w: structural budget %d must be positive", ErrBudgetTooSmall, structBudget)
	}
	if valueBudget < 0 {
		return nil, fmt.Errorf("%w: value budget %d must be non-negative", ErrBudgetTooSmall, valueBudget)
	}
	return core.XClusterBuildContext(ctx, ref, core.BuildOptions{
		StructBudget: structBudget,
		ValueBudget:  valueBudget,
		Workers:      cfg.BuildWorkers,
		Progress:     cfg.BuildProgress,
		Metrics:      cfg.BuildMetrics,
		Stats:        cfg.BuildStats,
	})
}

// CacheStats is a snapshot of one of an Estimator's LRU caches — the
// query-result cache (Estimator.CacheStats) or the compiled-plan cache
// (Estimator.PlanCacheStats) — with hit/miss counters and occupancy.
type CacheStats = core.CacheStats

// PreparedQuery is a twig query compiled once against an estimator's
// synopsis for repeated execution — the prepared-statement shape of the
// estimation pipeline. Obtain one with Estimator.Prepare:
//
//	pq, err := est.Prepare(q)
//	for i := 0; i < 1e6; i++ {
//	    _ = pq.Selectivity() // executes the compiled plan; no re-resolution
//	}
//
// Execution is bit-for-bit identical to Estimator.Selectivity and safe
// for concurrent use. PreparedQuery.ExplainPlan renders the compiled
// plan for inspection.
type PreparedQuery = core.PreparedQuery

// NewEstimator returns a selectivity estimator over the synopsis. The
// estimator is safe for concurrent use: descendant-closure vectors are
// precomputed here, per-call state is pooled, and estimation runs a
// canonicalize → compile → execute pipeline behind two internal LRU
// caches — query results (Estimator.CacheStats, SetCacheCapacity) and
// compiled plans (Estimator.PlanCacheStats, SetPlanCacheCapacity).
// Callers that hold a query shape and estimate it repeatedly should
// compile it once with Estimator.Prepare and execute the returned
// PreparedQuery.
func NewEstimator(s *Synopsis) *Estimator {
	return core.NewEstimator(s)
}

// AutoBuild constructs a synopsis within one unified total byte budget,
// automatically choosing the structural/value split by searching for the
// ratio that minimizes the average relative estimation error on the
// given sample workload (the extension Section 4.3 of the paper sketches
// as future work). It returns the synopsis and the structural budget the
// search selected.
func AutoBuild(t *Tree, totalBudget int, sample []*Query, opts ...Option) (*Synopsis, int, error) {
	if len(sample) == 0 {
		return nil, 0, fmt.Errorf("xcluster: AutoBuild needs a sample workload")
	}
	if totalBudget <= 0 {
		return nil, 0, fmt.Errorf("%w: total budget %d must be positive", ErrBudgetTooSmall, totalBudget)
	}
	ref, err := BuildReference(t, opts...)
	if err != nil {
		return nil, 0, err
	}
	ev := query.NewEvaluator(t)
	exact := make([]float64, len(sample))
	for i, q := range sample {
		exact[i] = ev.Selectivity(q)
	}
	ests := make([]float64, len(sample))
	score := func(s *Synopsis) float64 {
		est := core.NewEstimator(s)
		for i, q := range sample {
			ests[i] = est.Selectivity(q)
		}
		return accuracy.Avg(exact, ests, 1)
	}
	cfg := applyOptions(opts)
	s, _, err := core.AutoAllocate(context.Background(), ref, totalBudget, score, core.BuildOptions{
		Workers:  cfg.BuildWorkers,
		Progress: cfg.BuildProgress,
		Metrics:  cfg.BuildMetrics,
		Stats:    cfg.BuildStats,
	})
	if err != nil {
		return nil, 0, err
	}
	return s, s.Fingerprint().StructBudget, nil
}

// WriteSynopsis serializes a synopsis (graph, dictionary, and value
// summaries) in a compact binary format, so optimizer statistics can be
// stored and shipped without the database.
func WriteSynopsis(w io.Writer, s *Synopsis) error {
	_, err := s.WriteTo(w)
	return err
}

// ReadSynopsis deserializes a synopsis written by WriteSynopsis and
// validates its invariants. Every known format version decodes (legacy
// version-1 files yield a zero Fingerprint); unknown versions fail with
// ErrSynopsisVersion.
func ReadSynopsis(r io.Reader) (*Synopsis, error) {
	return core.ReadSynopsis(r)
}

// Fingerprint is a synopsis's build identity — source-document hash,
// byte budgets and how their split was chosen (Provenance, plus the
// workload fingerprint of a workload split), build options, generation
// counter, and build time — carried in the serialized format and
// stamped by the builders. Access it with Synopsis.Fingerprint.
type Fingerprint = core.Fingerprint

// Provenance records how a synopsis's struct/value budget split was
// chosen: static (configured budgets), auto (sample-workload search,
// AutoBuild), or workload (the same search on a live workload
// profile). It is Fingerprint.Provenance; empty means unknown.
type Provenance = core.Provenance

// The budget provenances.
const (
	ProvenanceStatic   = core.ProvenanceStatic
	ProvenanceAuto     = core.ProvenanceAuto
	ProvenanceWorkload = core.ProvenanceWorkload
)

// WriteDOT renders the synopsis as a Graphviz digraph for visual
// inspection of the structure-value clustering.
func WriteDOT(w io.Writer, s *Synopsis) error {
	return s.WriteDOT(w)
}

// ExactSelectivity evaluates the query over the full document, returning
// the exact number of binding tuples. It is the ground truth against
// which estimates are compared (and is linear in the document size, which
// is exactly what a synopsis avoids).
func ExactSelectivity(t *Tree, q *Query) float64 {
	return query.NewEvaluator(t).Selectivity(q)
}

// Stats describes a synopsis for reporting.
type Stats struct {
	Nodes      int
	ValueNodes int
	Edges      int
	StructKB   float64
	ValueKB    float64
	TotalKB    float64
}

// SynopsisStats summarizes a synopsis's size and composition.
func SynopsisStats(s *Synopsis) Stats {
	return Stats{
		Nodes:      s.NumNodes(),
		ValueNodes: s.NumValueNodes(),
		Edges:      s.NumEdges(),
		StructKB:   float64(s.StructBytes()) / 1024,
		ValueKB:    float64(s.ValueBytes()) / 1024,
		TotalKB:    float64(s.TotalBytes()) / 1024,
	}
}

func (s Stats) String() string {
	return fmt.Sprintf("%d clusters (%d with values), %d edges, %.1f KB structure + %.1f KB values = %.1f KB",
		s.Nodes, s.ValueNodes, s.Edges, s.StructKB, s.ValueKB, s.TotalKB)
}
