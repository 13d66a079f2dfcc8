// Package query implements the twig-query model of the paper: node- and
// edge-labeled query trees whose edges carry XPath expressions over the
// child and descendant axes (with wildcards) and whose nodes carry value
// predicates on NUMERIC, STRING, or TEXT element content.
//
// The package provides a parser for a practical XPath fragment, a
// programmatic builder, and an exact evaluation engine that counts binding
// tuples over an xmltree.Tree — the ground truth against which synopsis
// estimates are scored in every experiment.
//
// Following Figure 2 of the paper, bracketed branches that name a relative
// path (e.g. //paper[year>2000]) become query variables of their own: the
// selectivity of a twig is the number of assignments of document elements
// to all query variables that satisfy every structural and value
// constraint.
package query

import "strings"

// Axis is an XPath navigation axis.
type Axis uint8

const (
	// Child is the XPath child axis ("/").
	Child Axis = iota
	// Descendant is the XPath descendant axis ("//").
	Descendant
)

func (a Axis) String() string {
	if a == Descendant {
		return "//"
	}
	return "/"
}

// Wildcard is the label that matches any element tag.
const Wildcard = "*"

// Step is one navigation step of an edge path: an axis plus a label test.
type Step struct {
	Axis  Axis
	Label string
}

func (s Step) String() string { return s.Axis.String() + s.Label }

// Matches reports whether the step's label test accepts tag.
func (s Step) Matches(tag string) bool {
	return s.Label == Wildcard || s.Label == tag
}

// Node is a query variable. Steps is the edge path edge-path(parent, this)
// from the parent variable; the element bound to this variable is the one
// reached by the final step. Pred, when non-nil, constrains the bound
// element's value.
type Node struct {
	Steps    []Step
	Pred     Pred
	Children []*Node
}

// Query is a twig query. Its implicit root variable q0 is always bound to
// the document root (as in the paper); Roots are q0's child variables.
type Query struct {
	Roots []*Node
}

// Vars returns the number of query variables (excluding the implicit q0).
func (q *Query) Vars() int {
	n := 0
	var walk func(*Node)
	walk = func(v *Node) {
		n++
		for _, c := range v.Children {
			walk(c)
		}
	}
	for _, r := range q.Roots {
		walk(r)
	}
	return n
}

// HasPred reports whether any variable carries a value predicate.
func (q *Query) HasPred() bool {
	found := false
	var walk func(*Node)
	walk = func(v *Node) {
		if v.Pred != nil {
			found = true
		}
		for _, c := range v.Children {
			walk(c)
		}
	}
	for _, r := range q.Roots {
		walk(r)
	}
	return found
}

// PredTypes returns the set of predicate kinds appearing in the query.
func (q *Query) PredTypes() map[PredKind]bool {
	kinds := make(map[PredKind]bool)
	var walk func(*Node)
	walk = func(v *Node) {
		if v.Pred != nil {
			kinds[v.Pred.Kind()] = true
		}
		for _, c := range v.Children {
			walk(c)
		}
	}
	for _, r := range q.Roots {
		walk(r)
	}
	return kinds
}

// String renders the query back into the parser's syntax. Multi-root
// queries render each root path as a bracketed branch of an implicit "/".
// The rendering is the query's canonical string (its identity in the
// estimator's caches, the slow-query log and the workload profiler), so
// it runs on every estimate: a length pass sizes one buffer and the
// query renders into it, one allocation in all.
func (q *Query) String() string {
	n := 0
	for i, r := range q.Roots {
		n += nodeLen(r)
		if i > 0 {
			n += 2
		}
	}
	var sb strings.Builder
	sb.Grow(n)
	for i, r := range q.Roots {
		if i > 0 {
			sb.WriteByte('[')
		}
		writeNode(&sb, r)
		if i > 0 {
			sb.WriteByte(']')
		}
	}
	return sb.String()
}

// nodeLen is the length of writeNode's rendering of v.
func nodeLen(v *Node) int {
	n := 0
	for _, s := range v.Steps {
		n += len(s.Axis.String()) + len(s.Label)
	}
	if v.Pred != nil {
		n += predLen(v.Pred) + 2
	}
	for _, c := range v.Children {
		n += nodeLen(c) + 2
	}
	return n
}

// writeNode renders v's edge path, predicate and child variables.
func writeNode(sb *strings.Builder, v *Node) {
	for _, s := range v.Steps {
		sb.WriteString(s.Axis.String())
		sb.WriteString(s.Label)
	}
	if v.Pred != nil {
		sb.WriteByte('[')
		writePred(sb, v.Pred)
		sb.WriteByte(']')
	}
	// Every child variable renders as a bracketed branch: brackets are
	// what create variable boundaries in the grammar, so an unbracketed
	// continuation would re-parse as part of this variable's edge path
	// (collapsing the twig into a chain).
	for _, c := range v.Children {
		sb.WriteByte('[')
		writeNode(sb, c)
		sb.WriteByte(']')
	}
}
