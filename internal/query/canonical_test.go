package query

import (
	"fmt"
	"go/ast"
	goparser "go/parser"
	"go/token"
	"math"
	"strconv"
	"strings"
	"testing"
)

// This file holds the canonical renderer String replaced, verbatim but
// for its names: nested builders, per-branch concatenation, and
// fmt-formatted predicates. The canonical string is the estimator's
// cache key, the slow-log query and the workload profiler's shape
// identity, so it is the oracle String is pinned to byte for byte.

// oracleString renders the query back into the parser's syntax. Multi-root
// queries render each root path as a bracketed branch of an implicit "/".
func oracleString(q *Query) string {
	var sb strings.Builder
	for i, r := range q.Roots {
		if i == 0 {
			sb.WriteString(oracleNodeString(r, true))
		} else {
			sb.WriteString(fmt.Sprintf("[%s]", oracleNodeString(r, false)))
		}
	}
	return sb.String()
}

func oracleNodeString(v *Node, topLevel bool) string {
	var sb strings.Builder
	for _, s := range v.Steps {
		sb.WriteString(s.String())
	}
	if v.Pred != nil {
		sb.WriteString("[" + oraclePredString(v.Pred) + "]")
	}
	// Every child variable renders as a bracketed branch: brackets are
	// what create variable boundaries in the grammar, so an unbracketed
	// continuation would re-parse as part of this variable's edge path
	// (collapsing the twig into a chain).
	for _, c := range v.Children {
		sb.WriteString("[" + oracleNodeString(c, false) + "]")
	}
	return sb.String()
}

// oraclePredString is the predicates' former String methods.
func oraclePredString(p Pred) string {
	switch p := p.(type) {
	case Range:
		return fmt.Sprintf("range(%d,%d)", p.Lo, p.Hi)
	case Contains:
		return fmt.Sprintf("contains(%s)", p.Substr)
	case FTContains:
		return fmt.Sprintf("ftcontains(%s)", strings.Join(p.Terms, ","))
	case FTSim:
		return fmt.Sprintf("ftsim(%d,%s)", p.Min, strings.Join(p.Terms, ","))
	}
	panic(fmt.Sprintf("oraclePredString: unknown predicate %T", p))
}

// checkCanonical fails t unless q's String equals the oracle byte for
// byte, every predicate's String equals the oracle's, and the canonical
// string is a fixed point of Parse ∘ String.
func checkCanonical(t testing.TB, q *Query) {
	t.Helper()
	got, want := q.String(), oracleString(q)
	if got != want {
		t.Fatalf("String() = %q, oracle %q", got, want)
	}
	var walk func(*Node)
	walk = func(v *Node) {
		if v.Pred != nil {
			if got, want := v.Pred.String(), oraclePredString(v.Pred); got != want {
				t.Fatalf("%T.String() = %q, oracle %q", v.Pred, got, want)
			}
		}
		for _, c := range v.Children {
			walk(c)
		}
	}
	for _, r := range q.Roots {
		walk(r)
	}
	q2, err := Parse(got)
	if err != nil {
		t.Fatalf("re-parse of %q failed: %v", got, err)
	}
	if again := q2.String(); again != got {
		t.Fatalf("not a fixed point: %q re-renders as %q", got, again)
	}
}

// builtQueries are hand-built queries the parser cannot produce or
// rarely does: extreme and negative bounds, empty term lists, several
// roots, and deep nesting. Several do not re-parse, so they are checked
// against the oracle only.
func builtQueries() []*Query {
	leaf := func(label string, p Pred) *Node {
		return &Node{Steps: []Step{{Child, label}}, Pred: p}
	}
	return []*Query{
		{},
		{Roots: []*Node{leaf("a", Range{Lo: math.MinInt, Hi: math.MaxInt})}},
		{Roots: []*Node{leaf("a", Range{Lo: -5, Hi: 0})}},
		{Roots: []*Node{leaf("a", FTContains{})}},
		{Roots: []*Node{leaf("a", FTSim{Min: -1})}},
		{Roots: []*Node{leaf("a", FTSim{Min: 12, Terms: []string{"x"}})}},
		{Roots: []*Node{leaf("a", Contains{Substr: "héllo wörld"})}},
		{Roots: []*Node{
			{Steps: []Step{{Descendant, "a"}, {Child, Wildcard}}, Children: []*Node{
				leaf("b", Contains{}),
				{Steps: []Step{{Descendant, "c"}}, Children: []*Node{leaf("d", FTContains{Terms: []string{"p", "q"}})}},
			}},
			leaf("e", nil),
			leaf("f", Range{Lo: 1, Hi: 1}),
		}},
	}
}

func TestStringMatchesOracle(t *testing.T) {
	for _, s := range parseSeeds {
		if q, err := Parse(s); err == nil {
			checkCanonical(t, q)
		}
	}
	for _, q := range builtQueries() {
		if got, want := q.String(), oracleString(q); got != want {
			t.Fatalf("String() = %q, oracle %q", got, want)
		}
	}
}

// TestStringMatchesOracleOnPlanQueries parses (checked against the
// oracle parser) and renders the estimator's plan corpus (planQueries
// in internal/core/plan_test.go, read from the source so the two lists
// cannot drift).
func TestStringMatchesOracleOnPlanQueries(t *testing.T) {
	f, err := goparser.ParseFile(token.NewFileSet(), "../core/plan_test.go", nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	var qs []string
	ast.Inspect(f, func(n ast.Node) bool {
		vs, ok := n.(*ast.ValueSpec)
		if !ok || len(vs.Names) != 1 || vs.Names[0].Name != "planQueries" {
			return true
		}
		for _, el := range vs.Values[0].(*ast.CompositeLit).Elts {
			s, err := strconv.Unquote(el.(*ast.BasicLit).Value)
			if err != nil {
				t.Fatal(err)
			}
			qs = append(qs, s)
		}
		return false
	})
	if len(qs) == 0 {
		t.Fatal("planQueries not found in internal/core/plan_test.go")
	}
	for _, s := range qs {
		q := MustParse(s)
		checkOracle(t, s, q, nil)
		checkCanonical(t, q)
	}
}

// raceEnabled is set under the race detector, whose instrumentation
// makes allocation counts meaningless (race_test.go).
var raceEnabled bool

// TestStringAllocs pins the canonical rendering at one allocation: the
// buffer the length pass sized.
func TestStringAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	for _, s := range parseSeeds {
		q, err := Parse(s)
		if err != nil {
			continue
		}
		if n := testing.AllocsPerRun(100, func() { _ = q.String() }); n > 1 {
			t.Errorf("String() of %q: %v allocs, want ≤1", s, n)
		}
	}
}
