package core

import (
	"fmt"
	"testing"

	"xcluster/internal/datagen"
	"xcluster/internal/vsum"
	"xcluster/internal/xmltree"
)

// TestEveryBuildValidates runs Synopsis.Validate on the output of every
// build path: BuildReference with and without value paths, XClusterBuild
// in each BuildOptions mode (serial, parallel, the global metric, random
// merges, no level heuristic) and XClusterSweep, at every budget of a
// Figure 8 sweep (the harness's per-dataset value fraction and sweep
// range, six points from 0) on IMDB and XMark. It takes about 20 s, so
// it runs in the full pass only; the -short -race pass audits the
// parallel build through TestBuildWorkersAndCacheIdentical.
func TestEveryBuildValidates(t *testing.T) {
	if testing.Short() {
		t.Skip("about 200 builds; runs in the full pass")
	}
	datasets := []struct {
		name                     string
		tree                     *xmltree.Tree
		paths                    []string
		valueFrac, maxStructFrac float64
	}{
		{"IMDB", datagen.IMDB(datagen.IMDBConfig{Seed: 7, Scale: 0.1}), datagen.IMDBValuePaths(), 1.0 / 3, 0.06},
		{"XMark", datagen.XMark(datagen.XMarkConfig{Seed: 7, Scale: 0.1}), datagen.XMarkValuePaths(), 0.6, 0.25},
	}
	modes := []struct {
		name string
		opts BuildOptions
	}{
		{"serial", BuildOptions{Workers: 1}},
		{"parallel", BuildOptions{Workers: 4}},
		{"global metric", BuildOptions{GlobalMetric: true}},
		{"random merges", BuildOptions{RandomMerges: true, RandomSeed: 1}},
		{"no level heuristic", BuildOptions{NoLevelHeuristic: true}},
	}
	for _, d := range datasets {
		for _, paths := range [][]string{d.paths, nil} {
			name := fmt.Sprintf("%s/value_paths=%v", d.name, paths != nil)
			t.Run(name, func(t *testing.T) {
				ref, err := BuildReference(d.tree, ReferenceOptions{
					ValuePaths: paths,
					Detail:     vsum.BuildOptions{PSTDepth: 5, MaxSummaryBytes: 2048},
				})
				if err != nil {
					t.Fatal(err)
				}
				if err := ref.Validate(); err != nil {
					t.Fatalf("reference: %v", err)
				}
				const points = 6
				budgets := make([]int, points)
				limit := int(float64(ref.StructBytes()) * d.maxStructFrac)
				for i := range budgets {
					budgets[i] = limit * i / (points - 1)
				}
				vb := int(float64(ref.ValueBytes()) * d.valueFrac)
				for _, sb := range budgets {
					for _, m := range modes {
						opts := m.opts
						opts.StructBudget, opts.ValueBudget = sb, vb
						s, err := XClusterBuild(ref, opts)
						if err != nil {
							t.Fatalf("%s Bstr=%d: %v", m.name, sb, err)
						}
						if err := s.Validate(); err != nil {
							t.Errorf("%s Bstr=%d: %v", m.name, sb, err)
						}
					}
				}
				syns, err := XClusterSweep(ref, budgets, vb, BuildOptions{})
				if err != nil {
					t.Fatal(err)
				}
				for i, s := range syns {
					if err := s.Validate(); err != nil {
						t.Errorf("sweep Bstr=%d: %v", budgets[i], err)
					}
				}
			})
		}
	}
}
