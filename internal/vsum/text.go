package vsum

import (
	"fmt"

	"xcluster/internal/query"
	"xcluster/internal/termhist"
	"xcluster/internal/xmltree"
)

// Text summarizes TEXT values with an end-biased term histogram over the
// centroid of the elements' Boolean term vectors.
type Text struct {
	H *termhist.Hist
}

// NewText builds a detailed text summary (every term frequency exact).
func NewText(vectors [][]int) *Text {
	return &Text{H: termhist.Build(vectors)}
}

// Type implements Summary.
func (s *Text) Type() xmltree.ValueType { return xmltree.TypeText }

// Count implements Summary.
func (s *Text) Count() float64 { return s.H.Count() }

// SizeBytes implements Summary.
func (s *Text) SizeBytes() int { return s.H.SizeBytes() }

// Atomics implements Summary: individual terms, preferring the indexed
// (high-frequency) ones, padded with uniform-bucket terms under the cap.
func (s *Text) Atomics(limit int) []Atomic {
	terms := s.H.TopTerms()
	if limit > 0 && len(terms) > limit {
		terms = terms[:limit]
	}
	if limit <= 0 || len(terms) < limit {
		budget := 0
		if limit > 0 {
			budget = limit - len(terms)
		} else {
			budget = s.H.BucketTerms()
		}
		terms = append(terms, s.H.BucketSample(budget)...)
	}
	out := make([]Atomic, len(terms))
	for i, t := range terms {
		out[i] = Atomic{Kind: xmltree.TypeText, Term: t}
	}
	return out
}

// AtomicSel implements Summary.
func (s *Text) AtomicSel(a Atomic) float64 {
	if a.Kind != xmltree.TypeText {
		return 0
	}
	return s.H.Frequency(a.Term)
}

// maxStackSimTerms is the most terms an ftsim predicate can have for
// PredSel to keep its per-term probabilities and its dynamic-programming
// row (one entry longer) on the stack.
const maxStackSimTerms = 15

// PredSel implements Summary.
func (s *Text) PredSel(p query.Pred, dict *xmltree.Dict) float64 {
	switch ft := p.(type) {
	case query.FTContains:
		sel := 1.0
		for _, term := range ft.Terms {
			id, known := dict.ID(term)
			if !known {
				return 0 // term absent from the whole document
			}
			sel *= s.H.Frequency(id)
			if sel == 0 {
				return 0
			}
		}
		return sel
	case query.FTSim:
		// P(at least Min of the terms present) under term independence:
		// the Poisson-binomial tail, computed by dynamic programming
		// over the per-term frequencies. Both arrays come from the
		// stack for up to maxStackSimTerms terms.
		var probsBuf, dpBuf [maxStackSimTerms + 1]float64
		var probs, dp []float64
		if n := len(ft.Terms); n <= maxStackSimTerms {
			probs, dp = probsBuf[:n], dpBuf[:n+1]
		} else {
			probs, dp = make([]float64, n), make([]float64, n+1)
		}
		for i, term := range ft.Terms {
			if id, known := dict.ID(term); known {
				probs[i] = s.H.Frequency(id)
			}
		}
		dp[0] = 1
		for _, q := range probs {
			for j := len(probs); j >= 1; j-- {
				dp[j] = dp[j]*(1-q) + dp[j-1]*q
			}
			dp[0] *= 1 - q
		}
		tail := 0.0
		for j := ft.Min; j <= len(probs); j++ {
			tail += dp[j]
		}
		return tail
	default:
		return 0
	}
}

// Fuse implements Summary.
func (s *Text) Fuse(other Summary) Summary {
	o, ok := other.(*Text)
	if !ok {
		panic(fmt.Sprintf("vsum: fusing text with %T", other))
	}
	return &Text{H: termhist.Merge(s.H, o.H)}
}

// Compress implements Summary (tv_cmprs): it demotes at least b
// low-frequency indexed terms into the uniform bucket. Because demoting a
// scattered term can add an RLE run without shrinking the summary, the
// step keeps doubling the demotion count until the byte size actually
// decreases (or the index is exhausted).
func (s *Text) Compress(b int) (Summary, int, int) {
	if b < 1 {
		b = 1
	}
	for ; ; b *= 2 {
		c, n := s.H.Compress(b)
		if n == 0 {
			return s, 0, 0
		}
		if saved := s.H.SizeBytes() - c.SizeBytes(); saved > 0 {
			return &Text{H: c}, saved, n
		}
		if n < b {
			// Everything is demoted and the size still did not drop; no
			// further compression is useful.
			return s, 0, 0
		}
	}
}

// Validate implements Summary.
func (s *Text) Validate() error { return s.H.Validate() }
