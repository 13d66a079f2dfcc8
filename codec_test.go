package xcluster_test

import (
	"bytes"
	"math"
	"testing"

	"xcluster/internal/core"
	"xcluster/internal/harness"
	"xcluster/internal/workload"
)

// TestReadSynopsisRoundTripFigure8 decodes the IMDB and XMark synopses
// of the Figure 8 sweep (and their reference synopses): re-encoding a
// decoded synopsis must give the file's bytes back, and every workload
// query, positive and negative, must estimate bit for bit as on the
// synopsis the build returned.
func TestReadSynopsisRoundTripFigure8(t *testing.T) {
	cfg := harness.Config{Scale: 1, Seed: 42, PerClass: 30, Points: 4}
	if testing.Short() {
		cfg.Scale, cfg.PerClass = 0.25, 10
	}
	for _, name := range harness.DatasetNames() {
		d, err := harness.NewDataset(name, cfg)
		if err != nil {
			t.Fatal(err)
		}
		syns, err := core.XClusterSweep(d.Ref, cfg.StructBudgets(d), cfg.ValueBudget(d), core.BuildOptions{})
		if err != nil {
			t.Fatal(err)
		}
		for i, s := range append(syns, d.Ref) {
			var file bytes.Buffer
			if _, err := s.WriteTo(&file); err != nil {
				t.Fatal(err)
			}
			back, err := core.ReadSynopsis(bytes.NewReader(file.Bytes()))
			if err != nil {
				t.Fatalf("%s synopsis %d: %v", name, i, err)
			}
			var again bytes.Buffer
			if _, err := back.WriteTo(&again); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(again.Bytes(), file.Bytes()) {
				t.Fatalf("%s synopsis %d: re-encoding changed the bytes (%d -> %d)", name, i, file.Len(), again.Len())
			}
			built, decoded := core.NewEstimator(s), core.NewEstimator(back)
			for _, w := range [][]workload.Query{d.Workload.Queries, d.Negative.Queries} {
				for _, q := range w {
					if a, b := built.Selectivity(q.Q), decoded.Selectivity(q.Q); math.Float64bits(a) != math.Float64bits(b) {
						t.Fatalf("%s synopsis %d: %s: built %g, decoded %g", name, i, q.Q, a, b)
					}
				}
			}
		}
	}
}
