// Package profile is the live workload profiler: a lock-light,
// bounded sketch of the query shapes a serving hot path actually sees.
// It canonicalizes each query into a predicate-elided shape, counts
// shapes in a space-saving top-K frequency table, tracks per-shape and
// per-class rates over a trailing window, latency, and selectivity, and
// joins the accuracy monitor's per-class error into a traffic×error
// "pain" score — the workload side of the accuracy loop that a
// workload-adaptive budget allocator consumes. Snapshots render at
// GET /debug/workload, mirror into xcluster_workload_* Prometheus
// series at scrape time, and persist as a versioned WorkloadProfile
// JSON artifact (codec.go).
package profile

import (
	"fmt"
	"strings"

	"xcluster/internal/query"
)

// shapePlaceholder replaces every predicate constant in a shape string,
// so queries differing only in constants collapse into one shape.
const shapePlaceholder = "?"

// ShapeOf canonicalizes a query into its shape: the query's structure
// (steps, axes, branching) plus each predicate's kind, with constant
// values elided. //book[year range(1990,2000)] and
// //book[year range(1960,1975)] share the shape //book[year range(?)];
// they differ only in constants the optimizer binds at runtime.
func ShapeOf(q *query.Query) string {
	var sb strings.Builder
	for i, r := range q.Roots {
		if i == 0 {
			shapeNode(&sb, r)
		} else {
			sb.WriteString("[")
			shapeNode(&sb, r)
			sb.WriteString("]")
		}
	}
	return sb.String()
}

// shapeNode mirrors query.Query's renderer with predicates elided to
// kind(?) placeholders. Branch structure is preserved exactly: brackets
// are what create variable boundaries in the query grammar.
func shapeNode(sb *strings.Builder, v *query.Node) {
	for _, s := range v.Steps {
		sb.WriteString(s.String())
	}
	if v.Pred != nil {
		sb.WriteString("[")
		sb.WriteString(predShape(v.Pred))
		sb.WriteString("]")
	}
	for _, c := range v.Children {
		sb.WriteString("[")
		shapeNode(sb, c)
		sb.WriteString("]")
	}
}

// predShape renders a predicate with its constants elided.
func predShape(p query.Pred) string {
	switch p.Kind() {
	case query.KindRange:
		return "range(" + shapePlaceholder + ")"
	case query.KindContains:
		return "contains(" + shapePlaceholder + ")"
	case query.KindFTContains:
		return "ftcontains(" + shapePlaceholder + ")"
	case query.KindFTSim:
		return "ftsim(" + shapePlaceholder + ")"
	default:
		return p.Kind().String() + "(" + shapePlaceholder + ")"
	}
}

// shapeID renders a shape's 16-hex identifier — the join key shared by
// /debug/workload, slow-query-log entries, and exported profiles.
func shapeID(shape string) string {
	return fmt.Sprintf("%016x", hash64(shape))
}

// hash64 is FNV-1a over s — the same canonical-string hash
// core.SelectivityTraced stamps on every trace (EstimateTrace
// CanonicalHash), recomputed here only for callers that bypass the
// traced pipeline.
func hash64(s string) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= prime64
	}
	return h
}
