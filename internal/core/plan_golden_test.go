package core

import (
	"bytes"
	"os"
	"sort"
	"strings"
	"testing"

	"xcluster/internal/datagen"
	"xcluster/internal/query"
	"xcluster/internal/vsum"
	"xcluster/internal/workload"
	"xcluster/internal/xmltree"
)

// explainGolden is the committed rendering of every plan in
// explainPlanCorpus. Regenerate it with
// GOLDEN_UPDATE=1 go test -run ExplainPlanGolden.
const explainGolden = "testdata/explain_plans.golden"

// TestExplainPlanGolden pins compiled plans byte for byte: ExplainPlan
// prints every subproblem's origin, its frontier clusters with their
// bound weights (%g of the exact float), the child subproblem
// references and the lowered-step count. A frontier that drops a
// zero-weight cluster, a reordered sum, a changed step count or a label
// rendered differently all change the text.
func TestExplainPlanGolden(t *testing.T) {
	got := explainPlanCorpus(t)
	if os.Getenv("GOLDEN_UPDATE") != "" {
		if err := os.WriteFile(explainGolden, got, 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %s (%d bytes)", explainGolden, len(got))
	}
	want, err := os.ReadFile(explainGolden)
	if err != nil {
		t.Fatalf("missing golden file (regenerate with GOLDEN_UPDATE=1): %v", err)
	}
	if bytes.Equal(got, want) {
		return
	}
	gl, wl := strings.Split(string(got), "\n"), strings.Split(string(want), "\n")
	for i := 0; i < len(gl) && i < len(wl); i++ {
		if gl[i] != wl[i] {
			t.Fatalf("plan text differs at line %d:\n got: %s\nwant: %s", i+1, gl[i], wl[i])
		}
	}
	t.Fatalf("plan text has %d lines, golden %d", len(gl), len(wl))
}

// explainPlanCorpus renders ExplainPlan for planQueries on every
// planEstimators synopsis, then for a Figure 8 workload (five queries
// per class) on an IMDB and an XMark synopsis built at one point of the
// Figure 8 sweep: a fifth of the harness's structural range, with its
// per-dataset value fraction.
func explainPlanCorpus(t *testing.T) []byte {
	t.Helper()
	var buf bytes.Buffer
	render := func(section string, est *Estimator, qs []*query.Query) {
		buf.WriteString("== " + section + "\n")
		for _, q := range qs {
			pq, err := est.Prepare(q)
			if err != nil {
				t.Fatalf("%s: Prepare(%s): %v", section, q, err)
			}
			buf.WriteString(pq.ExplainPlan())
		}
	}
	ests := planEstimators(t)
	names := make([]string, 0, len(ests))
	for name := range ests {
		names = append(names, name)
	}
	sort.Strings(names)
	parsed := make([]*query.Query, len(planQueries))
	for i, s := range planQueries {
		parsed[i] = query.MustParse(s)
	}
	for _, name := range names {
		render("figure1 "+name, ests[name], parsed)
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
	for _, d := range datasets {
		ref, err := BuildReference(d.tree, ReferenceOptions{
			ValuePaths: d.paths,
			Detail:     vsum.BuildOptions{PSTDepth: 5, MaxSummaryBytes: 2048},
		})
		if err != nil {
			t.Fatal(err)
		}
		s, err := XClusterBuild(ref, BuildOptions{
			StructBudget: int(float64(ref.StructBytes()) * d.maxStructFrac / 5),
			ValueBudget:  int(float64(ref.ValueBytes()) * d.valueFrac),
		})
		if err != nil {
			t.Fatal(err)
		}
		w, err := workload.Generate(d.tree, workload.Options{Seed: 8, PerClass: 5, ValuePaths: d.paths})
		if err != nil {
			t.Fatal(err)
		}
		qs := make([]*query.Query, len(w.Queries))
		for i, wq := range w.Queries {
			qs[i] = wq.Q
		}
		render(d.name, NewEstimator(s), qs)
	}
	return buf.Bytes()
}
