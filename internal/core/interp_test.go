package core

import "xcluster/internal/query"

// This file holds the memoized interpreter the compiled plans replaced:
// it re-resolves every step label and predicate against the synopsis as
// it walks. It is the reference semantics of the estimation framework —
// the oracle the differential tests pin the compiled plans, and so every
// estimation entry point, to bit-for-bit.

// interpretedSelectivity runs the interpreter over the whole query.
func (e *Estimator) interpretedSelectivity(q *query.Query) float64 {
	memo := make(map[memoKey]float64)
	total := 1.0
	for _, r := range q.Roots {
		total *= e.estimate(r, -1, memo)
	}
	return total
}

// estimate returns the expected number of binding tuples of the query
// subtree rooted at variable v, per element of the synopsis node from
// (from = -1 denotes the virtual document node above the root).
func (e *Estimator) estimate(v *query.Node, from NodeID, memo map[memoKey]float64) float64 {
	k := memoKey{v: v, from: from}
	if val, ok := memo[k]; ok {
		return val
	}
	frontier := e.reach(from, v.Steps)
	total := 0.0
	for _, fw := range frontier {
		node := e.s.nodes[fw.id]
		sel := e.predSel(node, v.Pred)
		if sel == 0 {
			continue
		}
		prod := fw.w * sel
		for _, c := range v.Children {
			prod *= e.estimate(c, fw.id, memo)
			if prod == 0 {
				break
			}
		}
		total += prod
	}
	memo[k] = total
	return total
}

// reach returns, for each synopsis node t, the expected number of
// elements of t reached from one element of `from` by the step sequence
// (the product of average edge counts along all matching synopsis paths,
// as in the Figure 7 walkthrough). The result is id-sorted; every
// accumulation iterates id-sorted inputs, so the floating-point sums are
// order-deterministic.
func (e *Estimator) reach(from NodeID, steps []query.Step) []weight {
	// Fast path for the common A/B edge shape: a single child step from
	// a real node selects a subsequence of the id-sorted kids slice, so
	// the frontier can be built directly — no map, no re-sort. Weights
	// are identical to the slow path's 1·count products.
	if from != -1 && len(steps) == 1 && steps[0].Axis == query.Child {
		st := steps[0]
		var out []weight
		for _, c := range e.kids[from] {
			if st.Matches(e.s.nodes[c.id].Label) {
				out = append(out, c)
			}
		}
		return out
	}
	acc := make(map[NodeID]float64)
	rest := steps
	if from == -1 {
		// The virtual document node has a single child: the root
		// cluster, with an average count equal to the root element count
		// (1 for well-formed documents).
		root := e.s.Root()
		st := steps[0]
		rest = steps[1:]
		if st.Axis == query.Child {
			if st.Matches(root.Label) {
				acc[root.ID] = root.Count
			}
		} else {
			if st.Matches(root.Label) {
				acc[root.ID] += root.Count
			}
			for _, d := range e.desc[root.ID] {
				if st.Matches(e.s.nodes[d.id].Label) {
					acc[d.id] += root.Count * d.w
				}
			}
		}
	} else {
		acc[from] = 1
	}
	frontier := sortedWeights(acc)
	for _, st := range rest {
		next := make(map[NodeID]float64)
		for _, fw := range frontier {
			if st.Axis == query.Child {
				for _, c := range e.kids[fw.id] {
					if st.Matches(e.s.nodes[c.id].Label) {
						next[c.id] += fw.w * c.w
					}
				}
			} else {
				for _, d := range e.desc[fw.id] {
					if st.Matches(e.s.nodes[d.id].Label) {
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
