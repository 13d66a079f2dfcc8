// Package budget closes the §4.3 loop on live traffic: an adaptive
// rebuild splits its byte budget between structure and values by the
// paper's own search (core.AutoAllocate), scored on the queries
// the workload profiler saw. Plan is that one function. It is
// deterministic — the same inputs, reference synopsis and document
// always yield the same split and the same synopsis — so adaptive
// rebuilds are reproducible and testable. Two rules keep it safe to
// run unattended: an idle profile keeps the inherited split, and a
// hysteresis dead band on the struct share keeps a jittery workload
// from flipping the split, and therefore from thrashing rebuilds.
package budget

import (
	"context"
	"fmt"
	"math"

	"xcluster/internal/accuracy"
	"xcluster/internal/core"
	"xcluster/internal/profile"
	"xcluster/internal/query"
	"xcluster/internal/xmltree"
)

// HysteresisShare is the dead band: a searched split whose struct
// share lies within this distance of the inherited workload split's is
// jitter, not a trend, and the inherited split is kept.
const HysteresisShare = 0.04

// Inputs are everything one planning decision depends on, besides the
// reference synopsis and document it builds from.
type Inputs struct {
	// Inherited is the fingerprint of the split a rebuild without
	// adaptation would build under. The search re-splits its total
	// (StructBudget + ValueBudget); an idle profile keeps it.
	Inherited core.Fingerprint `json:"inherited"`
	// WorkloadFingerprint identifies the WorkloadProfile the shapes
	// came from; it is stamped into the searched synopsis.
	WorkloadFingerprint string `json:"workload_fingerprint,omitempty"`
	// Shapes is the sample workload: one representative query per
	// tracked profiler shape, weighted by the shape's count.
	Shapes []profile.Representative `json:"shapes"`
}

// Decision is one planning run: the split and why it was chosen.
type Decision struct {
	StructBudget int `json:"struct_budget"`
	ValueBudget  int `json:"value_budget"`
	// Score is the searched winner's error on the sample: the
	// count-weighted mean relative error over Shapes (0 when idle).
	Score float64 `json:"score"`
	// Held reports that the split is Inputs.Inherited's: the profile
	// had no shapes, or the winner sat inside the hysteresis dead band
	// of an inherited workload split.
	Held bool `json:"held"`
	// Reason is a one-line explanation for logs and /debug/budget.
	Reason string `json:"reason"`
}

// Plan decides the split of in.Inherited's total and returns the
// synopsis built under it. With shapes to score, it runs
// core.AutoAllocate over ref (each candidate built with opts) against
// exact counts from doc, and stamps the winner with provenance
// workload and in.WorkloadFingerprint; the search's own build of the
// winner is returned, not rebuilt. When the decision keeps the
// inherited split, the synopsis is built at it and keeps its
// provenance (static when unknown) and workload fingerprint.
func Plan(ctx context.Context, in Inputs, ref *core.Synopsis, doc *xmltree.Tree, opts core.BuildOptions) (Decision, *core.Synopsis, error) {
	inh := in.Inherited
	total := inh.StructBudget + inh.ValueBudget
	if inh.StructBudget < 0 || inh.ValueBudget < 0 || total <= 0 {
		return Decision{}, nil, fmt.Errorf("budget: inherited budgets %d/%d leave no positive total", inh.StructBudget, inh.ValueBudget)
	}
	keep := func(d Decision) (Decision, *core.Synopsis, error) {
		o := opts
		o.StructBudget, o.ValueBudget = inh.StructBudget, inh.ValueBudget
		s, err := core.XClusterBuildContext(ctx, ref, o)
		if err != nil {
			return Decision{}, nil, err
		}
		if inh.Provenance != "" {
			fp := s.Fingerprint()
			fp.Provenance, fp.WorkloadFingerprint = inh.Provenance, inh.WorkloadFingerprint
			s.SetFingerprint(fp)
		}
		d.StructBudget, d.ValueBudget, d.Held = inh.StructBudget, inh.ValueBudget, true
		return d, s, nil
	}
	if len(in.Shapes) == 0 {
		return keep(Decision{Reason: "no tracked query shapes: kept the inherited split"})
	}

	s, score, err := core.AutoAllocate(ctx, ref, total, sampleScorer(in.Shapes, doc), opts)
	if err != nil {
		return Decision{}, nil, err
	}
	fp := s.Fingerprint()
	if inh.Provenance == core.ProvenanceWorkload {
		if delta := math.Abs(structShare(fp) - structShare(inh)); delta < HysteresisShare {
			return keep(Decision{Score: score, Reason: fmt.Sprintf(
				"held inherited split: struct share moved %.3f, inside the %.2f dead band", delta, HysteresisShare)})
		}
	}
	fp.Provenance, fp.WorkloadFingerprint = core.ProvenanceWorkload, in.WorkloadFingerprint
	s.SetFingerprint(fp)
	return Decision{StructBudget: fp.StructBudget, ValueBudget: fp.ValueBudget, Score: score, Reason: fmt.Sprintf(
		"searched %d shapes of workload %s: struct share %.3f", len(in.Shapes), in.WorkloadFingerprint, structShare(fp))}, s, nil
}

// sampleScorer scores a candidate synopsis on the shapes: the
// count-weighted mean relative error against exact counts from doc,
// under the sample's sanity bound.
func sampleScorer(shapes []profile.Representative, doc *xmltree.Tree) func(*core.Synopsis) float64 {
	ev := query.NewEvaluator(doc)
	truths := make([]float64, len(shapes))
	var weight float64
	for i, sh := range shapes {
		truths[i] = ev.Selectivity(sh.Query)
		weight += float64(sh.Count)
	}
	sanity := accuracy.SanityBound(truths)
	return func(s *core.Synopsis) float64 {
		est := core.NewEstimator(s)
		var sum float64
		for i, sh := range shapes {
			sum += float64(sh.Count) * accuracy.RelError(truths[i], est.Selectivity(sh.Query), sanity)
		}
		return sum / weight
	}
}

// structShare is the fraction of the fingerprint's total budget given
// to structure.
func structShare(fp core.Fingerprint) float64 {
	return float64(fp.StructBudget) / float64(fp.StructBudget+fp.ValueBudget)
}
