package core

import (
	"context"
	"fmt"
	"math"
)

// AutoAllocate implements the budget-split search the paper defers to
// future work: "it is possible to invoke XCLUSTERBUILD with a unified
// total space budget B and let the construction process determine
// automatically the ratio of structural- to value-storage budget. One
// plausible approach ... would be to perform a binary search in the range
// of possible Bstr/Bval ratios, based on the observed estimation error on
// a sample workload."
//
// score evaluates a candidate synopsis on the sample workload (lower is
// better, e.g. average relative error). The search probes a geometric
// grid of ratios and then refines around the best with two bisection
// rounds — the error curve is noisy, so a pure binary search on the
// gradient would be fragile. Candidate builds run under ctx, so a
// cancelled adaptive rebuild aborts mid-search with ctx.Err() instead
// of finishing up to a dozen builds. It returns the best synopsis,
// whose fingerprint carries the winning split with provenance "auto",
// and the score it achieved; opts.Stats, when set, receives the
// winning build's statistics.
func AutoAllocate(ctx context.Context, ref *Synopsis, totalBudget int, score func(*Synopsis) float64, opts BuildOptions) (*Synopsis, float64, error) {
	if totalBudget <= 0 {
		return nil, 0, fmt.Errorf("core: AutoAllocate: non-positive budget %d", totalBudget)
	}
	type result struct {
		frac  float64
		s     *Synopsis
		score float64
		stats BuildStats
	}
	evalFrac := func(frac float64) (result, error) {
		bstr := int(frac * float64(totalBudget))
		o := opts
		o.StructBudget, o.ValueBudget = bstr, totalBudget-bstr
		r := result{frac: frac}
		if opts.Stats != nil {
			o.Stats = &r.stats
		}
		s, err := XClusterBuildContext(ctx, ref, o)
		if err != nil {
			return result{}, err
		}
		r.s, r.score = s, score(s)
		return r, nil
	}

	best := result{score: math.Inf(1)}
	probes := []float64{0.05, 0.1, 0.2, 0.35, 0.5, 0.7}
	evaluated := make(map[int]bool)
	eval := func(frac float64) error {
		bstr := int(frac * float64(totalBudget))
		if evaluated[bstr] {
			return nil
		}
		evaluated[bstr] = true
		r, err := evalFrac(frac)
		if err != nil {
			return err
		}
		if r.score < best.score {
			best = r
		}
		return nil
	}
	for _, f := range probes {
		if err := eval(f); err != nil {
			return nil, 0, err
		}
	}
	// Two refinement rounds: bisect toward the best ratio's neighbors.
	step := 0.075
	for round := 0; round < 2; round++ {
		center := best.frac
		for _, f := range []float64{center - step, center + step} {
			if f <= 0.01 || f >= 0.95 {
				continue
			}
			if err := eval(f); err != nil {
				return nil, 0, err
			}
		}
		step /= 2
	}
	if best.s == nil {
		return nil, 0, fmt.Errorf("core: AutoAllocate: no feasible split")
	}
	if opts.Stats != nil {
		*opts.Stats = best.stats
	}
	best.s.fp.Provenance = ProvenanceAuto
	return best.s, best.score, nil
}
