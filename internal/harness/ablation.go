package harness

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"time"

	"xcluster/internal/accuracy"
	"xcluster/internal/core"
	"xcluster/internal/histogram"
	"xcluster/internal/pst"
	"xcluster/internal/query"
	"xcluster/internal/termhist"
	"xcluster/internal/vsum"
	"xcluster/internal/xmltree"
)

// The ablation experiments isolate the design choices DESIGN.md calls
// out: the end-biased term histogram versus conventional range-bucket
// histograms on term vectors (Section 3's argument), the pruning-error
// ordering of st_cmprs versus naive count ordering, the bottom-up level
// heuristic of build_pool, and the marginal-loss merge ordering versus
// random merging (the value of the Δ metric itself).

// AblationTermHistRow compares term-frequency estimation of the
// end-biased term histogram against a conventional equi-width bucket
// histogram at (approximately) equal storage.
type AblationTermHistRow struct {
	Budget        int
	EndBiasedErr  float64 // avg |true - est| frequency over present terms
	ConvErr       float64
	EndBiasedZero float64 // avg estimate for absent terms (should be 0)
	ConvZero      float64
}

// conventionalTermHist is the strawman of Section 3: consecutive term
// ids grouped into equi-width buckets, each storing the average
// frequency of all entries in its range — zero entries included, which
// is exactly how it "loses track of non-existent terms".
type conventionalTermHist struct {
	width int
	avg   []float64
}

func newConventional(freqs map[int]float64, dictLen, buckets int) *conventionalTermHist {
	if buckets < 1 {
		buckets = 1
	}
	width := (dictLen + buckets - 1) / buckets
	h := &conventionalTermHist{width: width, avg: make([]float64, buckets)}
	for t, f := range freqs {
		h.avg[t/width] += f
	}
	for i := range h.avg {
		h.avg[i] /= float64(width)
	}
	return h
}

func (h *conventionalTermHist) frequency(t int) float64 {
	b := t / h.width
	if b >= len(h.avg) {
		return 0
	}
	return h.avg[b]
}

// AblationTermHist evaluates both summaries on the centroid of one TEXT
// path's content at a range of budgets. Restricting to a single path
// leaves the rest of the dictionary as genuinely absent terms — the case
// the paper argues conventional bucket histograms mishandle (consecutive
// bucketing loses zero-valued entries).
func AblationTermHist(d *Dataset, budgets []int) []AblationTermHistRow {
	var textPath string
	for _, p := range d.ValuePaths {
		nodes := d.Tree.PathNodes(p)
		if len(nodes) > 0 && nodes[0].Type == xmltree.TypeText {
			textPath = p
			break
		}
	}
	var vectors [][]int
	d.Tree.Walk(func(n *xmltree.Node) {
		if n.Type == xmltree.TypeText && n.Path() == textPath {
			vectors = append(vectors, n.Terms)
		}
	})
	full := termhist.Build(vectors)
	dictLen := d.Tree.Dict.Len()

	// True frequencies.
	truth := make(map[int]float64)
	for _, t := range full.TopTerms() {
		truth[t] = full.Frequency(t)
	}

	var rows []AblationTermHistRow
	for _, budget := range budgets {
		// Compress the end-biased histogram to the budget.
		eb := full
		for eb.SizeBytes() > budget {
			next, n := eb.Compress(8)
			if n == 0 {
				break
			}
			eb = next
		}
		conv := newConventional(truth, dictLen, budget/8)

		row := AblationTermHistRow{Budget: budget}
		for t, f := range truth {
			row.EndBiasedErr += math.Abs(f - eb.Frequency(t))
			row.ConvErr += math.Abs(f - conv.frequency(t))
		}
		n := float64(len(truth))
		row.EndBiasedErr /= n
		row.ConvErr /= n
		// Absent terms: probe ids just past the dictionary plus unused
		// ids inside it.
		probes := 0
		for t := 0; t < dictLen; t++ {
			if _, present := truth[t]; !present {
				row.EndBiasedZero += eb.Frequency(t)
				row.ConvZero += conv.frequency(t)
				probes++
			}
		}
		if probes > 0 {
			row.EndBiasedZero /= float64(probes)
			row.ConvZero /= float64(probes)
		}
		rows = append(rows, row)
	}
	return rows
}

// AblationPSTRow compares the pruning-error leaf ordering of st_cmprs
// against naive lowest-count-first pruning at equal node counts.
type AblationPSTRow struct {
	PruneFrac  float64
	ByErrorErr float64 // avg |trueSel - est| over sampled substrings
	ByCountErr float64
	Nodes      int
}

// AblationPSTPruning builds a PST over the dataset's STRING content and
// prunes the given fractions of its nodes both ways.
func AblationPSTPruning(d *Dataset, fracs []float64, seed int64) []AblationPSTRow {
	var strs []string
	wanted := make(map[string]bool)
	for _, p := range d.ValuePaths {
		wanted[p] = true
	}
	d.Tree.Walk(func(n *xmltree.Node) {
		if n.Type == xmltree.TypeString && wanted[n.Path()] {
			strs = append(strs, n.Str)
		}
	})
	full := pst.Build(strs, 5)

	// Sample word-fragment query substrings and record exact answers.
	rng := rand.New(rand.NewSource(seed))
	type probe struct {
		qs  string
		sel float64
	}
	var probes []probe
	for i := 0; i < 200; i++ {
		s := strs[rng.Intn(len(strs))]
		words := strings.Fields(s)
		w := words[rng.Intn(len(words))]
		if len(w) < 2 {
			continue
		}
		n := 2 + rng.Intn(4)
		if n > len(w) {
			n = len(w)
		}
		start := rng.Intn(len(w) - n + 1)
		qs := w[start : start+n]
		cnt := 0
		for _, t := range strs {
			if strings.Contains(t, qs) {
				cnt++
			}
		}
		probes = append(probes, probe{qs: qs, sel: float64(cnt) / float64(len(strs))})
	}

	// Relative error with a one-string sanity floor: Markovian
	// overestimation of rare substrings — which the pruning-error order
	// is designed to avoid — registers here, where absolute error would
	// drown it under the frequent substrings.
	floor := 1 / float64(len(strs))
	truths := make([]float64, len(probes))
	for i, p := range probes {
		truths[i] = p.sel
	}
	score := func(t *pst.Tree) float64 {
		ests := make([]float64, len(probes))
		for i, p := range probes {
			ests[i] = t.Selectivity(p.qs)
		}
		return accuracy.Avg(truths, ests, floor)
	}

	var rows []AblationPSTRow
	for _, frac := range fracs {
		b := int(frac * float64(full.Nodes()))
		byErr := full.Clone()
		byErr.Prune(b)
		byCount := full.Clone()
		byCount.PruneLowestCount(b)
		rows = append(rows, AblationPSTRow{
			PruneFrac:  frac,
			ByErrorErr: score(byErr),
			ByCountErr: score(byCount),
			Nodes:      byErr.Nodes(),
		})
	}
	return rows
}

// AblationNumericRow compares the three NUMERIC summarization tools the
// paper cites — histograms (its primary choice), Haar wavelets, and
// random samples — at equal storage, on range-query estimation.
type AblationNumericRow struct {
	Budget    int
	Histogram float64 // avg relative range-selectivity error (equi-depth)
	MaxDiff   float64 // MaxDiff(V,F) boundary placement
	Wavelet   float64
	Sample    float64
}

// AblationNumericSummaries gathers the numeric values of the dataset's
// first NUMERIC value path and scores each summary kind at each budget
// over sampled range queries.
func AblationNumericSummaries(d *Dataset, budgets []int, seed int64) []AblationNumericRow {
	var values []int
	for _, p := range d.ValuePaths {
		nodes := d.Tree.PathNodes(p)
		if len(nodes) > 0 && nodes[0].Type == xmltree.TypeNumeric {
			for _, n := range nodes {
				values = append(values, n.Num)
			}
			break
		}
	}
	lo, hi := values[0], values[0]
	for _, v := range values {
		lo, hi = min(lo, v), max(hi, v)
	}
	rng := rand.New(rand.NewSource(seed))
	type probe struct {
		lo, hi int
		sel    float64
	}
	var probes []probe
	for i := 0; i < 200; i++ {
		a := lo + rng.Intn(hi-lo+1)
		b := a + rng.Intn((hi-lo)/4+1)
		cnt := 0
		for _, v := range values {
			if v >= a && v <= b {
				cnt++
			}
		}
		probes = append(probes, probe{lo: a, hi: b, sel: float64(cnt) / float64(len(values))})
	}
	floor := 1 / float64(len(values))
	truths := make([]float64, len(probes))
	for i, p := range probes {
		truths[i] = p.sel
	}
	score := func(sel func(lo, hi int) float64) float64 {
		ests := make([]float64, len(probes))
		for i, p := range probes {
			ests[i] = sel(p.lo, p.hi)
		}
		return accuracy.Avg(truths, ests, floor)
	}
	fit := func(s vsum.Summary, budget int) vsum.Summary {
		for s.SizeBytes() > budget {
			next, _, steps := s.Compress(4)
			if steps == 0 {
				break
			}
			s = next
		}
		return s
	}
	var rows []AblationNumericRow
	for _, budget := range budgets {
		h := fit(vsum.NewNumeric(values, 0), budget)
		md := histogram.BuildMaxDiff(values, budget/histogram.BucketBytes)
		wv := fit(vsum.NewNumericWavelet(values, 0), budget)
		sm := fit(vsum.NewNumericSample(values, 0, seed), budget)
		rows = append(rows, AblationNumericRow{
			Budget:    budget,
			Histogram: score(func(lo, hi int) float64 { return h.PredSel(query.Range{Lo: lo, Hi: hi}, nil) }),
			MaxDiff:   score(md.Selectivity),
			Wavelet:   score(func(lo, hi int) float64 { return wv.PredSel(query.Range{Lo: lo, Hi: hi}, nil) }),
			Sample:    score(func(lo, hi int) float64 { return sm.PredSel(query.Range{Lo: lo, Hi: hi}, nil) }),
		})
	}
	return rows
}

// AblationBuildRow compares construction policies at one structural
// budget: the full algorithm, the algorithm without the level heuristic,
// and random merging (no Δ metric).
type AblationBuildRow struct {
	Policy    string
	BuildSecs float64
	Overall   float64
	// Struct isolates structure-only queries: the slice on which the
	// paper compares its localized Δ with the global TreeSketch metric
	// (the global metric ignores value distributions, so it can only
	// compete there).
	Struct float64
}

// AblationBuild runs the three policies at a mid-sweep budget.
func AblationBuild(d *Dataset, cfg Config) ([]AblationBuildRow, error) {
	budgets := cfg.StructBudgets(d)
	bstr := budgets[len(budgets)/2]
	bval := cfg.ValueBudget(d)
	policies := []struct {
		name string
		opts core.BuildOptions
	}{
		{"localized Δ + levels", core.BuildOptions{StructBudget: bstr, ValueBudget: bval}},
		{"localized Δ, no levels", core.BuildOptions{StructBudget: bstr, ValueBudget: bval, NoLevelHeuristic: true}},
		{"global (TreeSketch) metric", core.BuildOptions{StructBudget: bstr, ValueBudget: bval, GlobalMetric: true}},
		{"random merges", core.BuildOptions{StructBudget: bstr, ValueBudget: bval, RandomMerges: true, RandomSeed: 1}},
	}
	var rows []AblationBuildRow
	for _, p := range policies {
		t0 := time.Now()
		s, err := core.XClusterBuild(d.Ref, p.opts)
		if err != nil {
			return nil, err
		}
		secs := time.Since(t0).Seconds()
		est := core.NewEstimator(s)
		rep := d.Workload.Evaluate(est.Selectivity)
		rows = append(rows, AblationBuildRow{
			Policy: p.name, BuildSecs: secs,
			Overall: rep.Overall, Struct: rep.ByClass[accuracy.Struct],
		})
	}
	return rows, nil
}

// FormatNumericAblation renders the numeric-summary comparison.
func FormatNumericAblation(rows []AblationNumericRow) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "Ablation: NUMERIC summary tools (avg rel. range-selectivity error)\n")
	fmt.Fprintf(&sb, "%10s %12s %12s %12s %12s\n", "budget(B)", "equi-depth", "maxdiff", "wavelet", "sample")
	for _, r := range rows {
		fmt.Fprintf(&sb, "%10d %12.4f %12.4f %12.4f %12.4f\n", r.Budget, r.Histogram, r.MaxDiff, r.Wavelet, r.Sample)
	}
	return sb.String()
}

// FormatAblations renders all ablation results.
func FormatAblations(th []AblationTermHistRow, ps []AblationPSTRow, bd []AblationBuildRow) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "Ablation: end-biased term histogram vs conventional bucket histogram\n")
	fmt.Fprintf(&sb, "%10s %14s %14s %16s %16s\n", "budget(B)", "end-biased err", "conventional", "eb absent-freq", "conv absent-freq")
	for _, r := range th {
		fmt.Fprintf(&sb, "%10d %14.4f %14.4f %16.4f %16.4f\n",
			r.Budget, r.EndBiasedErr, r.ConvErr, r.EndBiasedZero, r.ConvZero)
	}
	fmt.Fprintf(&sb, "\nAblation: PST pruning order (avg abs selectivity error)\n")
	fmt.Fprintf(&sb, "%10s %14s %14s %10s\n", "pruned", "pruning-error", "lowest-count", "nodes")
	for _, r := range ps {
		fmt.Fprintf(&sb, "%9.0f%% %14.4f %14.4f %10d\n", r.PruneFrac*100, r.ByErrorErr, r.ByCountErr, r.Nodes)
	}
	fmt.Fprintf(&sb, "\nAblation: construction policy (mid-sweep budget)\n")
	fmt.Fprintf(&sb, "%-28s %10s %12s %12s\n", "policy", "build(s)", "overall err", "struct err")
	for _, r := range bd {
		fmt.Fprintf(&sb, "%-28s %10.2f %11.1f%% %11.1f%%\n", r.Policy, r.BuildSecs, r.Overall*100, r.Struct*100)
	}
	return sb.String()
}
