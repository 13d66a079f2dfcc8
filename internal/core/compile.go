package core

import (
	"context"
	"fmt"
	"slices"
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

// WarmPlan is the batch warm pass for one query: it looks q's shape up
// in the plan cache once and compiles it into the cache on a miss, as
// Prepare does, without building a PreparedQuery. canonical is q's
// canonical string when the caller holds it (from ParseQuery), "" to
// compute it here. It returns the canonical string, which
// SelectivityTracedCanonical takes so the estimate that follows does
// not canonicalize q again. With the plan cache disabled it only
// canonicalizes.
func (e *Estimator) WarmPlan(q *query.Query, canonical string) (string, error) {
	if canonical == "" {
		canonical = q.String()
	}
	if e.plans == nil {
		return canonical, nil
	}
	_, err := e.planFor(q, canonical, e.saltKey(canonical), nil)
	return canonical, err
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
// synopsis: every step's label test becomes a label id through the
// estimator's label index, every (variable, origin) subproblem's
// frontier and predicate selectivities are evaluated through the same
// reach/predSel arithmetic as the interpreted reference walk, and the
// result is flattened into a Plan whose execution replays that
// arithmetic bit-for-bit. The working memory — the dense frontier
// accumulator, the frontier stack, the step and subproblem memos — is
// pooled per estimator, so a compile allocates little beyond the plan
// it returns.
func (e *Estimator) compile(q *query.Query, canonical string) (*Plan, error) {
	c := e.getCompiler()
	n := len(q.Roots)
	ints := make([]int32, 2*n) // roots, then groupStart: one allocation
	p := &Plan{
		canonical:  canonical,
		gen:        e.s.fp.Generation,
		roots:      ints[:0:n],
		groupStart: ints[n:n],
	}
	for _, r := range q.Roots {
		p.groupStart = append(p.groupStart, int32(len(c.subs)))
		idx, err := c.compileVar(r, -1)
		if err != nil {
			e.scratch.Put(c)
			return nil, err
		}
		p.roots = append(p.roots, idx)
	}
	p.subs = slices.Clone(c.subs)
	p.loweredSteps = len(c.lowered)
	e.scratch.Put(c)
	return p, nil
}

// compiler is the per-compilation state. It is reused: Estimator.scratch
// pools compilers, and getCompiler resets one for the next compile.
type compiler struct {
	e *Estimator
	// subs is the subproblem array under construction (copied into the
	// plan at the end).
	subs []planSub
	// memo maps each compiled (variable, origin) subproblem to its index.
	memo map[memoKey]int32
	// lowered is the step memo: each distinct (axis, label) step lowered
	// so far, in first-use order. Its length is the plan's lowered-step
	// count.
	lowered []loweredStep
	// acc, seen and touched are the dense frontier accumulator, indexed
	// by NodeID: acc holds the running sums, seen marks every cluster a
	// step touched — even one whose sum is 0, as the sparse map of the
	// interpreter holds it — and touched lists those clusters for the
	// id-sorted emit, which clears exactly them again.
	acc     []float64
	seen    []bool
	touched []NodeID
	// frontiers is a stack of the frontiers of the compileVar frames in
	// progress: reach pushes one and its caller pops it once every term
	// is compiled, so a nested reach never overwrites a frontier still
	// being read.
	frontiers []weight
}

// getCompiler takes a compiler from the estimator's pool (allocating
// one, with an accumulator sized to the synopsis, on first use) and
// resets it.
func (e *Estimator) getCompiler() *compiler {
	c, _ := e.scratch.Get().(*compiler)
	if c == nil {
		n := len(e.labelOf)
		return &compiler{
			e:    e,
			memo: make(map[memoKey]int32),
			acc:  make([]float64, n),
			seen: make([]bool, n),
		}
	}
	clear(c.subs) // drop the previous plan's term slices
	c.subs = c.subs[:0]
	clear(c.memo)
	c.lowered = c.lowered[:0]
	c.frontiers = c.frontiers[:0]
	return c
}

// stepSet is one query step lowered onto the synopsis: a wildcard, or
// the label id every matching cluster carries. A label no cluster
// carries lowers to -1, which matches nothing: reach tests only ids of
// existing clusters, and their label ids are all >= 0. Execution never
// compares strings again.
type stepSet struct {
	wild  bool
	label int32
}

// loweredStep is one entry of the compiler's step memo.
type loweredStep struct {
	step query.Step
	set  stepSet
}

// matches reports whether the lowered step accepts the cluster.
func (c *compiler) matches(ss stepSet, id NodeID) bool {
	return ss.wild || c.e.labelOf[id] == ss.label
}

// lower resolves a step's label test through the estimator's label
// index, memoized per distinct (axis, label) step within the
// compilation. A query has a handful of distinct steps, so the memo is
// a short slice scanned linearly.
func (c *compiler) lower(st query.Step) stepSet {
	for _, ls := range c.lowered {
		if ls.step == st {
			return ls.set
		}
	}
	ss := stepSet{wild: st.Label == query.Wildcard, label: -1}
	if id, ok := c.e.labelIDs[st.Label]; ok && !ss.wild {
		ss.label = id
	}
	c.lowered = append(c.lowered, loweredStep{step: st, set: ss})
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
	base := len(c.frontiers)
	frontier := c.reach(from, v.Steps)
	// Bind the predicate selectivities first, compacting the frontier
	// in place to the clusters that pass, so the terms and their kid
	// indices are allocated at their exact sizes.
	kept := frontier[:0]
	for _, fw := range frontier {
		if sel := c.e.predSel(c.e.s.nodes[fw.id], v.Pred); sel != 0 {
			kept = append(kept, weight{id: fw.id, w: fw.w * sel})
		}
	}
	sub := planSub{v: v, from: from}
	if len(kept) > 0 {
		sub.terms = make([]planTerm, len(kept))
	}
	var kids []int32
	if nk := len(v.Children); nk > 0 {
		kids = make([]int32, 0, nk*len(kept))
	}
	for i, fw := range kept {
		start := len(kids)
		for _, child := range v.Children {
			kidIdx, err := c.compileVar(child, fw.id)
			if err != nil {
				return 0, err
			}
			kids = append(kids, kidIdx)
		}
		sub.terms[i] = planTerm{node: fw.id, w: fw.w, kids: kids[start:len(kids):len(kids)]}
	}
	c.frontiers = c.frontiers[:base]
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
// (id-sorted frontiers, id-sorted kids/desc inputs), with lowered steps
// replacing per-node label tests and the dense accumulator replacing
// the per-step map — each cluster's sum receives the same terms in the
// same order, so the frontier weights are bit-identical to the
// interpreter's. The frontier is pushed onto c.frontiers and returned;
// the caller pops it.
func (c *compiler) reach(from NodeID, steps []query.Step) []weight {
	e := c.e
	base := len(c.frontiers)
	// Single child-step fast path, mirroring the interpreter's: the
	// id-sorted kids slice filtered in order is already the frontier.
	if from != -1 && len(steps) == 1 && steps[0].Axis == query.Child {
		ss := c.lower(steps[0])
		for _, kw := range e.kids[from] {
			if c.matches(ss, kw.id) {
				c.frontiers = append(c.frontiers, kw)
			}
		}
		return c.frontiers[base:]
	}
	rest := steps
	if from == -1 {
		root := e.s.Root()
		st := steps[0]
		ss := c.lower(st)
		rest = steps[1:]
		if c.matches(ss, root.ID) {
			c.add(root.ID, root.Count)
		}
		if st.Axis != query.Child {
			for _, d := range e.desc[root.ID] {
				if c.matches(ss, d.id) {
					c.add(d.id, root.Count*d.w)
				}
			}
		}
		c.emit()
	} else {
		c.frontiers = append(c.frontiers, weight{id: from, w: 1})
	}
	for _, st := range rest {
		ss := c.lower(st)
		adj := e.kids
		if st.Axis != query.Child {
			adj = e.desc
		}
		for _, fw := range c.frontiers[base:] {
			for _, kw := range adj[fw.id] {
				if c.matches(ss, kw.id) {
					c.add(kw.id, fw.w*kw.w)
				}
			}
		}
		c.frontiers = c.frontiers[:base]
		c.emit()
		if len(c.frontiers) == base {
			break
		}
	}
	return c.frontiers[base:]
}

// add accumulates w into cluster id's frontier sum.
func (c *compiler) add(id NodeID, w float64) {
	if !c.seen[id] {
		c.seen[id] = true
		c.touched = append(c.touched, id)
	}
	c.acc[id] += w
}

// emit pushes the accumulated frontier onto c.frontiers in id order and
// clears the accumulator for the next step.
func (c *compiler) emit() {
	slices.Sort(c.touched)
	for _, id := range c.touched {
		c.frontiers = append(c.frontiers, weight{id: id, w: c.acc[id]})
		c.acc[id] = 0
		c.seen[id] = false
	}
	c.touched = c.touched[:0]
}
