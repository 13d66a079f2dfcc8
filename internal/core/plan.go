package core

import (
	"context"
	"fmt"
	"strings"
	"sync"
)

// Plan is a twig query compiled against one synopsis: the executable
// output of the canonicalize → compile → execute pipeline. Compilation
// (compile.go) resolves every step label, frontier and predicate
// selectivity once; what remains at execution time is pure float
// arithmetic over a flat subproblem array — no maps, no label
// comparisons, no dictionary lookups, and no allocation on the steady
// state (the scratch buffer is pooled).
//
// A Plan is bound to the synopsis and the estimator configuration
// (UninformedSel) it was compiled under, and is immutable and safe for
// concurrent execution.
type Plan struct {
	// canonical is the query's canonical string: the identity under
	// which the plan is cached.
	canonical string
	// subs is the evaluation program: one entry per reachable
	// (query variable, origin cluster) subproblem of the interpreted
	// walk, ordered so every term's kids refer to lower indices
	// (children before parents). Evaluating subs in index order fills
	// a value table bottom-up.
	subs []planSub
	// roots holds the subproblem index of each root variable, in query
	// order; the final selectivity is the product of their values.
	roots []int32
	// groupStart[i] is the subs index where root i's subproblems begin:
	// subs[groupStart[i]:groupStart[i+1]] is everything root i needs
	// that earlier roots did not already compute. execute checks
	// cancellation at these boundaries.
	groupStart []int32
	// loweredSteps is the number of distinct (axis, label) steps
	// resolved against the synopsis during compilation.
	loweredSteps int
	// gen is the build generation of the synopsis the plan was compiled
	// against; traces carry it so a swap can prove no plan outlived its
	// generation.
	gen uint64
	// vals pools the execution scratch buffer (len(subs) floats).
	vals sync.Pool
}

// planSub is one (query variable, origin cluster) subproblem: the
// expected number of binding tuples of the variable's subtree per
// element of the origin cluster, as a sum of per-frontier-node terms.
type planSub struct {
	// label renders the variable's edge path and predicate (explain
	// only; execution never reads it).
	label string
	// from is the origin cluster (-1 for the virtual document node).
	from NodeID
	// terms has one entry per frontier cluster with nonzero predicate
	// selectivity, in id-sorted frontier order — the same accumulation
	// order as the interpreter, so sums are bit-identical.
	terms []planTerm
}

// planTerm is one frontier cluster's contribution to a subproblem.
type planTerm struct {
	// node is the frontier synopsis cluster (explain only).
	node NodeID
	// w is reach(from, steps)[node] × σ_pred(node), both resolved at
	// compile time.
	w float64
	// kids are the subproblem indices of the variable's children
	// originating at node, in child order.
	kids []int32
}

// Query returns the canonical string of the compiled query.
func (p *Plan) Query() string { return p.canonical }

// Generation returns the synopsis build generation the plan was
// compiled against.
func (p *Plan) Generation() uint64 { return p.gen }

// NumSubproblems returns the number of compiled subproblems.
func (p *Plan) NumSubproblems() int { return len(p.subs) }

// execute evaluates the plan: one pass over the subproblem array,
// children before parents, then the product over the root variables.
// Cancellation is checked before each root variable's subproblem group.
// The arithmetic replays the interpreted walk operation for operation,
// so results are bit-identical to it.
func (p *Plan) execute(ctx context.Context) (float64, error) {
	bufp := p.vals.Get().(*[]float64)
	defer p.vals.Put(bufp)
	vals := *bufp
	total := 1.0
	for gi, r := range p.roots {
		if err := ctx.Err(); err != nil {
			return 0, err
		}
		end := len(p.subs)
		if gi+1 < len(p.groupStart) {
			end = int(p.groupStart[gi+1])
		}
		for i := int(p.groupStart[gi]); i < end; i++ {
			vals[i] = evalSub(&p.subs[i], vals)
		}
		total *= vals[r]
	}
	return total, nil
}

// evalSub evaluates one subproblem against the already-filled child
// values: Σ_terms w × Π_kids vals[kid], with the interpreter's early
// exit on a zero product.
func evalSub(s *planSub, vals []float64) float64 {
	total := 0.0
	for ti := range s.terms {
		t := &s.terms[ti]
		prod := t.w
		for _, k := range t.kids {
			prod *= vals[k]
			if prod == 0 {
				break
			}
		}
		total += prod
	}
	return total
}

// Summary returns the plan's one-line header: canonical query,
// subproblem and term counts, and lowered steps. It is the plan
// rendering the slow-query log captures.
func (p *Plan) Summary() string {
	terms := 0
	for i := range p.subs {
		terms += len(p.subs[i].terms)
	}
	return fmt.Sprintf("plan %s: %d subproblems, %d terms, %d lowered steps",
		p.canonical, len(p.subs), terms, p.loweredSteps)
}

// describe renders the compiled plan against its synopsis: one line per
// subproblem with the resolved frontier clusters, bound weights, and
// child subproblem references.
func (p *Plan) describe(s *Synopsis) string {
	var sb strings.Builder
	sb.WriteString(p.Summary())
	sb.WriteByte('\n')
	for i := range p.subs {
		sub := &p.subs[i]
		origin := "document"
		if sub.from != -1 {
			origin = formatCluster(s, sub.from)
		}
		fmt.Fprintf(&sb, "  s%d: %s from %s", i, sub.label, origin)
		if len(sub.terms) == 0 {
			sb.WriteString(" = 0 (no reachable cluster passes)\n")
			continue
		}
		sb.WriteString(" = Σ {")
		for ti, t := range sub.terms {
			if ti > 0 {
				sb.WriteString(", ")
			}
			fmt.Fprintf(&sb, " %s×%g", formatCluster(s, t.node), t.w)
			for _, k := range t.kids {
				fmt.Fprintf(&sb, "·s%d", k)
			}
		}
		sb.WriteString(" }\n")
	}
	return sb.String()
}

// formatCluster renders a synopsis cluster reference for plan output.
func formatCluster(s *Synopsis, id NodeID) string {
	if n := s.nodes[id]; n != nil {
		return fmt.Sprintf("#%d(%s)", id, n.Label)
	}
	return fmt.Sprintf("#%d", id)
}
