package core

import (
	"cmp"
	"fmt"
	"slices"
	"strings"

	"xcluster/internal/query"
)

// Embedding is one mapping of a query's variables onto synopsis nodes
// with its estimated contribution to the total selectivity — the unit of
// Section 5's estimation framework, exposed for debugging and optimizer
// introspection.
type Embedding struct {
	// Nodes maps each query variable (preorder index over the query
	// tree) to the synopsis node it is bound to.
	Nodes []NodeID
	// Tuples is the embedding's estimated binding-tuple count.
	Tuples float64
}

// Explain returns the query's limit largest embeddings (limit <= 0:
// all of them) in decreasing contribution order; the contributions of
// all embeddings sum to Selectivity(q). Embeddings contributing nothing
// are skipped, and an uncompilable query has none.
//
// Explain reads the embeddings off the compiled plan (taken from the
// plan cache, or compiled and cached) rather than re-walking the
// synopsis: an embedding's contribution is the product of one term
// weight per variable, so bottom-up over the subproblem array each
// subproblem keeps only its best limit partial embeddings — the top
// limit products of non-negative factors come from the top limit of
// each factor. The cost is polynomial in the plan size for any fixed
// limit; only limit <= 0 enumerates every embedding.
func (e *Estimator) Explain(q *query.Query, limit int) []Embedding {
	canonical := q.String()
	p, err := e.planFor(q, canonical, nil)
	if err != nil {
		return nil
	}
	return p.topEmbeddings(limit)
}

// topEmbeddings computes, children before parents, each subproblem's
// best limit partial embeddings — Nodes covering the variable's subtree
// in preorder, Tuples the term weight times its kids' contributions, in
// execute's multiplication order — and combines the root variables'
// lists the same way.
func (p *Plan) topEmbeddings(limit int) []Embedding {
	best := make([][]Embedding, len(p.subs))
	for i := range p.subs {
		var cands []Embedding
		for _, t := range p.subs[i].terms {
			if t.w == 0 {
				continue
			}
			part := []Embedding{{Nodes: []NodeID{t.node}, Tuples: t.w}}
			for _, k := range t.kids {
				part = combineEmbeddings(part, best[k], limit)
			}
			cands = append(cands, part...)
		}
		best[i] = topEmbeddingsOf(cands, limit)
	}
	out := []Embedding{{Tuples: 1}}
	for _, r := range p.roots {
		out = combineEmbeddings(out, best[r], limit)
	}
	return out
}

// combineEmbeddings joins every pair of partial embeddings (a's
// variables, then b's) and returns the best limit nonzero products.
func combineEmbeddings(a, b []Embedding, limit int) []Embedding {
	out := make([]Embedding, 0, len(a)*len(b))
	for _, x := range a {
		for _, y := range b {
			t := x.Tuples * y.Tuples
			if t == 0 {
				continue
			}
			nodes := make([]NodeID, 0, len(x.Nodes)+len(y.Nodes))
			nodes = append(append(nodes, x.Nodes...), y.Nodes...)
			out = append(out, Embedding{Nodes: nodes, Tuples: t})
		}
	}
	return topEmbeddingsOf(out, limit)
}

// topEmbeddingsOf sorts embeddings by decreasing Tuples (ties by Nodes,
// so the order is deterministic) and keeps the first limit (<= 0: all).
func topEmbeddingsOf(ems []Embedding, limit int) []Embedding {
	slices.SortFunc(ems, func(x, y Embedding) int {
		if c := cmp.Compare(y.Tuples, x.Tuples); c != 0 {
			return c
		}
		return slices.Compare(x.Nodes, y.Nodes)
	})
	if limit > 0 && len(ems) > limit {
		ems = ems[:limit]
	}
	return ems
}

// FormatEmbedding renders an embedding against a synopsis for human
// consumption, e.g. "paper(/dblp/author/paper) year(...) -> 12.5".
func (s *Synopsis) FormatEmbedding(em Embedding) string {
	var sb strings.Builder
	for i, id := range em.Nodes {
		if i > 0 {
			sb.WriteByte(' ')
		}
		n := s.nodes[id]
		if n == nil {
			sb.WriteString("?")
			continue
		}
		fmt.Fprintf(&sb, "%s(%s)", n.Label, n.Path)
	}
	fmt.Fprintf(&sb, " -> %.2f", em.Tuples)
	return sb.String()
}
