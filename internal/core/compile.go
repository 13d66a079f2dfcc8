package core

import (
	"context"
	"fmt"
	"strings"

	"xcluster/internal/query"
)

// PreparedQuery is a query compiled once against an estimator's
// synopsis for repeated execution — the prepared-statement shape of the
// estimation pipeline. It is immutable and safe for concurrent use.
//
// A PreparedQuery binds the estimator configuration (UninformedSel) in
// effect at Prepare time; it does not consult the estimator's result
// cache, because executing the compiled plan is the fast path the cache
// would otherwise shortcut.
type PreparedQuery struct {
	est  *Estimator
	plan *Plan
}

// Prepare compiles q against the synopsis and returns a handle that
// executes the compiled plan. Repeated Prepare calls for the same query
// shape share one plan through the estimator's plan cache. Results are
// bit-for-bit identical to Estimator.Selectivity.
func (e *Estimator) Prepare(q *query.Query) (*PreparedQuery, error) {
	canonical := q.String()
	plan, err := e.planFor(q, canonical, e.saltKey(canonical), nil)
	if err != nil {
		return nil, err
	}
	return &PreparedQuery{est: e, plan: plan}, nil
}

// Selectivity executes the compiled plan: s(Q), the expected number of
// binding tuples.
func (pq *PreparedQuery) Selectivity() float64 {
	v, _ := pq.plan.execute(context.Background())
	return v
}

// SelectivityContext is Selectivity with cancellation, checked before
// each root variable's subproblem group.
func (pq *PreparedQuery) SelectivityContext(ctx context.Context) (float64, error) {
	return pq.plan.execute(ctx)
}

// Query returns the canonical string of the prepared query.
func (pq *PreparedQuery) Query() string { return pq.plan.Query() }

// ExplainPlan renders the compiled plan: every subproblem with its
// resolved frontier clusters, bound term weights, and child subproblem
// references.
func (pq *PreparedQuery) ExplainPlan() string { return pq.plan.describe(pq.est.s) }

// PlanSummary returns the compiled plan's one-line header (subproblem,
// term, and lowered-step counts) without the per-subproblem detail.
func (pq *PreparedQuery) PlanSummary() string { return pq.plan.Summary() }

// compile lowers q, whose canonical string is canonical, onto the
// synopsis: every step label is resolved to an id set once, every
// (variable, origin) subproblem's frontier and predicate selectivities
// are evaluated through the same reach/predSel arithmetic as the
// interpreted reference walk, and the result is flattened into a Plan
// whose execution replays that arithmetic bit-for-bit.
func (e *Estimator) compile(q *query.Query, canonical string) (*Plan, error) {
	c := &compiler{
		e:     e,
		steps: make(map[query.Step]*stepSet),
		memo:  make(map[memoKey]int32),
	}
	p := &Plan{canonical: canonical, gen: e.s.fp.Generation}
	for _, r := range q.Roots {
		p.groupStart = append(p.groupStart, int32(len(c.subs)))
		idx, err := c.compileVar(r, -1)
		if err != nil {
			return nil, err
		}
		p.roots = append(p.roots, idx)
	}
	p.subs = c.subs
	p.loweredSteps = len(c.steps)
	n := len(p.subs)
	p.vals.New = func() any {
		buf := make([]float64, n)
		return &buf
	}
	return p, nil
}

// compiler is the per-compilation state: the lowered step sets and the
// (variable, origin) → subproblem-index memo.
type compiler struct {
	e     *Estimator
	subs  []planSub
	steps map[query.Step]*stepSet
	memo  map[memoKey]int32
}

// stepSet is one query step lowered onto the synopsis: the set of
// cluster ids whose label passes the step's label test. Lowering runs
// the label comparison once per cluster per distinct step; execution
// never compares strings again.
type stepSet struct {
	wild  bool
	match map[NodeID]bool
}

// matches reports whether the lowered step accepts the cluster.
func (ss *stepSet) matches(id NodeID) bool { return ss.wild || ss.match[id] }

// lower resolves a step's label test against every synopsis cluster,
// memoized per distinct (axis, label) step within the compilation.
func (c *compiler) lower(st query.Step) *stepSet {
	if ss, ok := c.steps[st]; ok {
		return ss
	}
	ss := &stepSet{}
	if st.Label == query.Wildcard {
		ss.wild = true
	} else {
		ss.match = make(map[NodeID]bool)
		for id, n := range c.e.s.nodes {
			if n.Label == st.Label {
				ss.match[id] = true
			}
		}
	}
	c.steps[st] = ss
	return ss
}

// compileVar compiles the (v, from) subproblem and every subproblem it
// depends on, returning its index in the subproblem array. Children are
// emitted before the parent, so index order is evaluation order.
func (c *compiler) compileVar(v *query.Node, from NodeID) (int32, error) {
	if len(v.Steps) == 0 {
		return 0, fmt.Errorf("core: cannot compile query variable with no steps")
	}
	k := memoKey{v: v, from: from}
	if idx, ok := c.memo[k]; ok {
		return idx, nil
	}
	sub := planSub{label: varLabel(v), from: from}
	for _, fw := range c.reach(from, v.Steps) {
		sel := c.e.predSel(c.e.s.nodes[fw.id], v.Pred)
		if sel == 0 {
			continue
		}
		term := planTerm{node: fw.id, w: fw.w * sel}
		for _, child := range v.Children {
			kidIdx, err := c.compileVar(child, fw.id)
			if err != nil {
				return 0, err
			}
			term.kids = append(term.kids, kidIdx)
		}
		sub.terms = append(sub.terms, term)
	}
	idx := int32(len(c.subs))
	c.subs = append(c.subs, sub)
	c.memo[k] = idx
	return idx, nil
}

// varLabel renders a variable's edge path and predicate for plan
// explain output.
func varLabel(v *query.Node) string {
	var sb strings.Builder
	for _, st := range v.Steps {
		sb.WriteString(st.String())
	}
	if v.Pred != nil {
		sb.WriteString("[" + v.Pred.String() + "]")
	}
	return sb.String()
}

// reach is the compiled mirror of the reference interpreter's reach
// (interp_test.go): identical traversal and accumulation order
// (id-sorted frontiers, id-sorted kids/desc inputs), with the lowered
// step sets replacing per-node label tests — so the frontier weights are
// bit-identical to the interpreter's.
func (c *compiler) reach(from NodeID, steps []query.Step) []weight {
	e := c.e
	// Single child-step fast path, mirroring the interpreter's: the
	// id-sorted kids slice filtered in place is already the frontier.
	if from != -1 && len(steps) == 1 && steps[0].Axis == query.Child {
		ss := c.lower(steps[0])
		var out []weight
		for _, kw := range e.kids[from] {
			if ss.matches(kw.id) {
				out = append(out, kw)
			}
		}
		return out
	}
	acc := make(map[NodeID]float64)
	rest := steps
	if from == -1 {
		root := e.s.Root()
		st := steps[0]
		ss := c.lower(st)
		rest = steps[1:]
		if st.Axis == query.Child {
			if ss.matches(root.ID) {
				acc[root.ID] = root.Count
			}
		} else {
			if ss.matches(root.ID) {
				acc[root.ID] += root.Count
			}
			for _, d := range e.desc[root.ID] {
				if ss.matches(d.id) {
					acc[d.id] += root.Count * d.w
				}
			}
		}
	} else {
		acc[from] = 1
	}
	frontier := sortedWeights(acc)
	for _, st := range rest {
		ss := c.lower(st)
		next := make(map[NodeID]float64)
		for _, fw := range frontier {
			if st.Axis == query.Child {
				for _, kw := range e.kids[fw.id] {
					if ss.matches(kw.id) {
						next[kw.id] += fw.w * kw.w
					}
				}
			} else {
				for _, d := range e.desc[fw.id] {
					if ss.matches(d.id) {
						next[d.id] += fw.w * d.w
					}
				}
			}
		}
		frontier = sortedWeights(next)
		if len(frontier) == 0 {
			break
		}
	}
	return frontier
}
