// Package workload generates the random twig-query workloads of the
// experimental study and computes its error metrics. Following Section
// 6.1 of the paper, positive workloads are produced by sampling twigs
// from the document (biased toward high counts) and attaching random
// predicates at nodes with values; negative workloads attach
// unsatisfiable predicates and verify zero true selectivity. Accuracy is
// quantified by the average absolute relative error with a sanity bound
// set to the 10-percentile of true workload counts.
package workload

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"

	"xcluster/internal/accuracy"
	"xcluster/internal/query"
	"xcluster/internal/xmltree"
)

// classNames is the one table of the query classes the generator
// emits, in generation and report order, with the names Figure 8 gives
// them — the names the text codec and the experiment tables print.
// Keyword predicates are ftcontains; the generator never emits ftsim.
var classNames = [...]struct {
	class accuracy.Class
	name  string
}{
	{accuracy.Range, "Numeric"},
	{accuracy.Substring, "String"},
	{accuracy.FTContains, "Text"},
	{accuracy.Struct, "Struct"},
}

// ClassName returns the Figure 8 name of a class the generator emits,
// and the accuracy name of any other.
func ClassName(c accuracy.Class) string {
	for _, cn := range classNames {
		if cn.class == c {
			return cn.name
		}
	}
	return c.String()
}

// Query is one workload entry with its exact selectivity.
type Query struct {
	Q     *query.Query
	Class accuracy.Class
	True  float64
}

// Workload is a set of scored queries.
type Workload struct {
	Queries []Query
}

// Options configure workload generation.
type Options struct {
	Seed int64
	// PerClass is the number of queries generated for each class
	// (default 50).
	PerClass int
	// ValuePaths restricts predicate targets to elements on the listed
	// root label paths — the paper attaches predicates at "nodes with
	// values" of the reference synopsis, i.e. the summarized value paths.
	// Nil allows every value-bearing element.
	ValuePaths []string
	// Negative generates zero-selectivity queries instead of positive
	// ones.
	Negative bool
	// MaxTries bounds retries per query (default 50).
	MaxTries int
}

func (o Options) withDefaults() Options {
	if o.PerClass == 0 {
		o.PerClass = 50
	}
	if o.MaxTries == 0 {
		o.MaxTries = 50
	}
	return o
}

// Generate builds a workload over the document.
func Generate(tree *xmltree.Tree, opts Options) (*Workload, error) {
	opts = opts.withDefaults()
	g := &generator{
		tree: tree,
		ev:   query.NewEvaluator(tree),
		r:    rand.New(rand.NewSource(opts.Seed)),
		opts: opts,
	}
	g.index()
	w := &Workload{}
	for _, cn := range classNames {
		made := 0
		for made < opts.PerClass {
			q, ok := g.tryQuery(cn.class)
			if !ok {
				break // class not supported by this document
			}
			w.Queries = append(w.Queries, q)
			made++
		}
	}
	if len(w.Queries) == 0 {
		return nil, fmt.Errorf("workload: document yields no queries")
	}
	return w, nil
}

// ByClass returns the subset of queries in the given class.
func (w *Workload) ByClass(c accuracy.Class) []Query {
	var out []Query
	for _, q := range w.Queries {
		if q.Class == c {
			out = append(out, q)
		}
	}
	return out
}

// generator holds the sampling state.
type generator struct {
	tree *xmltree.Tree
	ev   *query.Evaluator
	r    *rand.Rand
	opts Options
	// valueNodes indexes value-bearing elements by type.
	valueNodes map[xmltree.ValueType][]*xmltree.Node
	// valuePaths indexes those same elements per root path, so sampling
	// can alternate between count-biased (element-uniform) and
	// path-uniform choices.
	valuePaths map[xmltree.ValueType]map[string][]*xmltree.Node
	all        []*xmltree.Node
	wanted     map[string]bool // allowed predicate paths (nil = all)
}

func (g *generator) index() {
	if g.opts.ValuePaths != nil {
		g.wanted = make(map[string]bool, len(g.opts.ValuePaths))
		for _, p := range g.opts.ValuePaths {
			g.wanted[p] = true
		}
	}
	g.valueNodes = make(map[xmltree.ValueType][]*xmltree.Node)
	g.valuePaths = make(map[xmltree.ValueType]map[string][]*xmltree.Node)
	for _, n := range g.tree.Nodes() {
		if len(n.Children) > 0 {
			// Structural twigs anchor at internal elements so they carry
			// branches (leaf anchors degenerate to simple paths).
			g.all = append(g.all, n)
		}
		if n.Type != xmltree.TypeNull && (g.wanted == nil || g.wanted[n.Path()]) {
			g.valueNodes[n.Type] = append(g.valueNodes[n.Type], n)
			byPath := g.valuePaths[n.Type]
			if byPath == nil {
				byPath = make(map[string][]*xmltree.Node)
				g.valuePaths[n.Type] = byPath
			}
			byPath[n.Path()] = append(byPath[n.Path()], n)
		}
	}
}

// tryQuery makes up to MaxTries attempts to build a query of the class
// with the required (non-)zero selectivity.
func (g *generator) tryQuery(class accuracy.Class) (Query, bool) {
	for try := 0; try < g.opts.MaxTries; try++ {
		q := g.buildQuery(class)
		if q == nil {
			return Query{}, false
		}
		sel := g.ev.Selectivity(q)
		if g.opts.Negative {
			if sel == 0 {
				return Query{Q: q, Class: class, True: 0}, true
			}
			continue
		}
		if sel > 0 {
			return Query{Q: q, Class: class, True: sel}, true
		}
	}
	return Query{}, false
}

// buildQuery assembles one random twig of the class.
func (g *generator) buildQuery(class accuracy.Class) *query.Query {
	if class == accuracy.Struct {
		return g.buildStruct()
	}
	vt := map[accuracy.Class]xmltree.ValueType{
		accuracy.Range:      xmltree.TypeNumeric,
		accuracy.Substring:  xmltree.TypeString,
		accuracy.FTContains: xmltree.TypeText,
	}[class]
	pool := g.valueNodes[vt]
	if len(pool) == 0 {
		return nil
	}
	// Half the picks are element-uniform (biasing toward high-count
	// paths, as in the paper); half are path-uniform so every summarized
	// value path contributes queries.
	v := pool[g.r.Intn(len(pool))]
	if byPath := g.valuePaths[vt]; len(byPath) > 1 && g.r.Intn(2) == 0 {
		paths := make([]string, 0, len(byPath))
		for p := range byPath {
			paths = append(paths, p)
		}
		sort.Strings(paths)
		pp := byPath[paths[g.r.Intn(len(paths))]]
		v = pp[g.r.Intn(len(pp))]
	}
	anchor := v.Parent
	if anchor == nil {
		return nil
	}
	anchorVar := g.pathVariable(anchor)
	pred := g.makePred(v)
	if pred == nil {
		return nil
	}
	branch := &query.Node{
		Steps: []query.Step{{Axis: query.Child, Label: v.Label}},
		Pred:  pred,
	}
	// The paper samples twigs from the reference synopsis, so a
	// predicate path always denotes one synopsis cluster. A randomly
	// shortened path (//title) can be ambiguous — it may also reach
	// same-label elements outside the sampled value path — in which case
	// we fall back to the full, unambiguous root path.
	if !g.pureTarget(anchorVar.Steps, branch.Steps, v.Path()) {
		anchorVar = g.fullPathVariable(anchor)
	}
	anchorVar.Children = append(anchorVar.Children, branch)
	// Occasionally attach a second branch: a structural sibling or a
	// second same-class predicate.
	if g.r.Intn(3) == 0 {
		if extra := g.extraBranch(anchor, v, vt); extra != nil {
			if extra.Pred == nil || g.pureTarget(anchorVar.Steps, extra.Steps, anchor.Path()+"/"+extra.Steps[len(extra.Steps)-1].Label) {
				anchorVar.Children = append(anchorVar.Children, extra)
			}
		}
	}
	return &query.Query{Roots: []*query.Node{anchorVar}}
}

// pureTarget reports whether every element reached by anchorSteps
// followed by branchSteps lies on the given root label path.
func (g *generator) pureTarget(anchorSteps, branchSteps []query.Step, wantPath string) bool {
	steps := make([]query.Step, 0, len(anchorSteps)+len(branchSteps))
	steps = append(steps, anchorSteps...)
	steps = append(steps, branchSteps...)
	for _, m := range g.ev.Matches(steps) {
		if m.Path() != wantPath {
			return false
		}
	}
	return true
}

// fullPathVariable builds a variable with the exact root-to-e child path
// (no shortening, no wildcards).
func (g *generator) fullPathVariable(e *xmltree.Node) *query.Node {
	var labels []string
	for n := e; n != nil; n = n.Parent {
		labels = append(labels, n.Label)
	}
	steps := make([]query.Step, len(labels))
	for i := range labels {
		steps[i] = query.Step{Axis: query.Child, Label: labels[len(labels)-1-i]}
	}
	return &query.Node{Steps: steps}
}

// buildStruct builds a structure-only twig around a random element:
// multi-branch twigs with branches up to two levels deep, the query shape
// that stresses the synopsis's structural-independence assumptions.
func (g *generator) buildStruct() *query.Query {
	e := g.all[g.r.Intn(len(g.all))]
	v := g.pathVariable(e)
	if len(e.Children) > 0 {
		nBranches := 1 + g.r.Intn(2)
		used := make(map[string]bool)
		for i := 0; i < nBranches; i++ {
			c := e.Children[g.r.Intn(len(e.Children))]
			if used[c.Label] {
				continue
			}
			used[c.Label] = true
			branch := &query.Node{
				Steps: []query.Step{{Axis: query.Child, Label: c.Label}},
			}
			// Half the time, extend the branch one more level.
			if len(c.Children) > 0 && g.r.Intn(2) == 0 {
				cc := c.Children[g.r.Intn(len(c.Children))]
				branch.Steps = append(branch.Steps, query.Step{Axis: query.Child, Label: cc.Label})
			}
			v.Children = append(v.Children, branch)
		}
	}
	return &query.Query{Roots: []*query.Node{v}}
}

// pathVariable builds a single query variable whose edge path reaches
// elements like e: the root-to-e label path, randomly shortened with a
// descendant step and sprinkled with wildcards.
func (g *generator) pathVariable(e *xmltree.Node) *query.Node {
	var labels []string
	for n := e; n != nil; n = n.Parent {
		labels = append(labels, n.Label)
	}
	// Reverse into root-first order.
	for i, j := 0, len(labels)-1; i < j; i, j = i+1, j-1 {
		labels[i], labels[j] = labels[j], labels[i]
	}
	steps := make([]query.Step, 0, len(labels))
	start := 0
	desc := false
	if len(labels) > 1 && g.r.Intn(2) == 0 {
		// Start with // at a random depth.
		start = 1 + g.r.Intn(len(labels)-1)
		desc = true
	}
	for i := start; i < len(labels); i++ {
		axis := query.Child
		if desc && i == start {
			axis = query.Descendant
		}
		label := labels[i]
		// Wildcards only on intermediate steps, sparingly.
		if i > start && i < len(labels)-1 && g.r.Intn(8) == 0 {
			label = query.Wildcard
		}
		steps = append(steps, query.Step{Axis: axis, Label: label})
	}
	return &query.Node{Steps: steps}
}

// makePred derives a predicate from the value of v: positive workloads
// take it from the actual value, negative workloads make it
// unsatisfiable.
func (g *generator) makePred(v *xmltree.Node) query.Pred {
	if g.opts.Negative {
		return g.makeNegativePred(v)
	}
	switch v.Type {
	case xmltree.TypeNumeric:
		// A range around the observed value; one-sided half the time.
		span := 1 << g.r.Intn(8)
		switch g.r.Intn(3) {
		case 0:
			return query.Range{Lo: v.Num - span, Hi: v.Num + g.r.Intn(span+1)}
		case 1:
			return query.Range{Lo: v.Num, Hi: query.MaxBound}
		default:
			return query.Range{Lo: -query.MaxBound, Hi: v.Num + g.r.Intn(span+1)}
		}
	case xmltree.TypeString:
		// Substring predicates are word fragments of the observed value
		// (like the paper's contains(Tree) / contains(ACM) examples);
		// fragments spanning word boundaries are both unrealistic and
		// pathological for Markovian PST estimation.
		words := strings.Fields(v.Str)
		var candidates []string
		for _, w := range words {
			if len(w) >= 2 {
				candidates = append(candidates, w)
			}
		}
		if len(candidates) == 0 {
			return nil
		}
		w := candidates[g.r.Intn(len(candidates))]
		n := 2 + g.r.Intn(4)
		if n > len(w) {
			n = len(w)
		}
		start := g.r.Intn(len(w) - n + 1)
		return query.Contains{Substr: w[start : start+n]}
	case xmltree.TypeText:
		if len(v.Terms) == 0 {
			return nil
		}
		k := 1
		if len(v.Terms) > 1 && g.r.Intn(3) == 0 {
			k = 2
		}
		terms := make([]string, 0, k)
		seen := make(map[int]bool)
		for len(terms) < k {
			id := v.Terms[g.r.Intn(len(v.Terms))]
			if !seen[id] {
				seen[id] = true
				terms = append(terms, g.tree.Dict.Term(id))
			}
		}
		return query.FTContains{Terms: terms}
	}
	return nil
}

// makeNegativePred builds a predicate no element satisfies.
func (g *generator) makeNegativePred(v *xmltree.Node) query.Pred {
	switch v.Type {
	case xmltree.TypeNumeric:
		return query.Range{Lo: query.MaxBound - 1000 + g.r.Intn(500), Hi: query.MaxBound}
	case xmltree.TypeString:
		// '~' never appears in generated strings.
		return query.Contains{Substr: "~" + strings.Repeat("q", 1+g.r.Intn(3))}
	case xmltree.TypeText:
		return query.FTContains{Terms: []string{fmt.Sprintf("zzunseen%d", g.r.Intn(1000))}}
	}
	return nil
}

// extraBranch returns a second branch under the anchor: a same-class
// predicate on a different value child when available, otherwise a
// structural existence branch.
func (g *generator) extraBranch(anchor, used *xmltree.Node, vt xmltree.ValueType) *query.Node {
	var valueKids, structKids []*xmltree.Node
	for _, c := range anchor.Children {
		if c == used {
			continue
		}
		if c.Type == vt && (g.wanted == nil || g.wanted[c.Path()]) {
			valueKids = append(valueKids, c)
		} else if c.Type == xmltree.TypeNull {
			structKids = append(structKids, c)
		}
	}
	if len(valueKids) > 0 && g.r.Intn(2) == 0 {
		c := valueKids[g.r.Intn(len(valueKids))]
		if pred := g.makePred(c); pred != nil {
			return &query.Node{
				Steps: []query.Step{{Axis: query.Child, Label: c.Label}},
				Pred:  pred,
			}
		}
	}
	if len(structKids) > 0 {
		c := structKids[g.r.Intn(len(structKids))]
		return &query.Node{
			Steps: []query.Step{{Axis: query.Child, Label: c.Label}},
		}
	}
	return nil
}

// SanityBound returns the 10-percentile of positive true counts: the
// bound s such that 90% of workload queries have true result size >= s.
func (w *Workload) SanityBound() float64 {
	counts := make([]float64, 0, len(w.Queries))
	for _, q := range w.Queries {
		counts = append(counts, q.True)
	}
	sort.Float64s(counts)
	if len(counts) == 0 {
		return 1
	}
	b := counts[len(counts)/10]
	if b < 1 {
		b = 1
	}
	return b
}
