package query_test

import (
	"testing"

	"xcluster/internal/datagen"
	"xcluster/internal/query"
	"xcluster/internal/workload"
	"xcluster/internal/xmltree"
)

// TestStringMatchesOracleOnWorkloads renders generated workload pools,
// positive and negative, over both synthetic fixtures, and parses each
// rendering with Parse and the oracle parser.
func TestStringMatchesOracleOnWorkloads(t *testing.T) {
	docs := []struct {
		name  string
		tree  *xmltree.Tree
		paths []string
	}{
		{"imdb", datagen.IMDB(datagen.IMDBConfig{Seed: 1, Scale: 0.2}), datagen.IMDBValuePaths()},
		{"xmark", datagen.XMark(datagen.XMarkConfig{Seed: 1, Scale: 0.2}), datagen.XMarkValuePaths()},
	}
	for _, d := range docs {
		for _, neg := range []bool{false, true} {
			w, err := workload.Generate(d.tree, workload.Options{Seed: 3, PerClass: 40, ValuePaths: d.paths, Negative: neg})
			if err != nil {
				t.Fatalf("%s: %v", d.name, err)
			}
			for _, wq := range w.Queries {
				query.CheckCanonical(t, wq.Q)
				query.CheckParseOracle(t, wq.Q.String())
			}
		}
	}
}
