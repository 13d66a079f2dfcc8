package accuracy

import (
	"fmt"

	"xcluster/internal/query"
)

// Class partitions queries by the value-predicate kind that drives
// their estimation error: structure-only twigs, numeric ranges,
// substring predicates, and the two full-text predicate forms. It is
// the one query-class taxonomy: the workload generator, the Figure 8
// tables, the monitor and the profiler all use it. The two full-text
// forms are separate classes because their estimators share a term
// histogram but combine it differently, and their errors drift
// independently.
type Class uint8

const (
	// Struct marks twigs without value predicates.
	Struct Class = iota
	// Range marks twigs whose first predicate is a numeric range.
	Range
	// Substring marks twigs whose first predicate is contains().
	Substring
	// FTContains marks twigs whose first predicate is ftcontains().
	FTContains
	// FTSim marks twigs whose first predicate is ftsim().
	FTSim

	// NumClasses is the sentinel one past the last class.
	NumClasses
)

func (c Class) String() string {
	switch c {
	case Struct:
		return "struct"
	case Range:
		return "range"
	case Substring:
		return "substring"
	case FTContains:
		return "ftcontains"
	case FTSim:
		return "ftsim"
	default:
		return fmt.Sprintf("Class(%d)", uint8(c))
	}
}

// Classes lists all classes in report order.
func Classes() []Class {
	return []Class{Struct, Range, Substring, FTContains, FTSim}
}

// Classify returns the class of a query: the kind of the first value
// predicate in preorder over the query tree, or Struct when the twig
// carries no predicate. Mixed-predicate twigs are rare in generated
// workloads and deterministic classification by the first predicate
// keeps online and offline aggregation in agreement.
func Classify(q *query.Query) Class {
	var first func(v *query.Node) (Class, bool)
	first = func(v *query.Node) (Class, bool) {
		if v.Pred != nil {
			switch v.Pred.Kind() {
			case query.KindRange:
				return Range, true
			case query.KindContains:
				return Substring, true
			case query.KindFTContains:
				return FTContains, true
			case query.KindFTSim:
				return FTSim, true
			}
		}
		for _, c := range v.Children {
			if cl, ok := first(c); ok {
				return cl, true
			}
		}
		return Struct, false
	}
	for _, r := range q.Roots {
		if cl, ok := first(r); ok {
			return cl
		}
	}
	return Struct
}
