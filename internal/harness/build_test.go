package harness

import (
	"bytes"
	"testing"

	"xcluster/internal/core"
)

// TestBuildExperimentDifferential is the harness's build differential:
// on both datasets, at every structural budget of the Figure 8 sweep,
// a serial and a parallel build under the experiments' own budget
// configuration produce bit-for-bit the same synopsis (compared through
// the codec with build timestamps normalized), apply the same merges and
// evaluate the same number of candidate pairs. It runs in -short mode on
// purpose — ci.sh exercises it under -race, where the parallel build's
// worker pool gets its data-race audit. The cache-off comparison lives
// in internal/core, which owns that switch.
func TestBuildExperimentDifferential(t *testing.T) {
	cfg := smallCfg()
	for _, name := range DatasetNames() {
		d, err := NewDataset(name, cfg)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		merged := false
		for _, sb := range cfg.StructBudgets(d) {
			var want []byte
			var wantStats core.BuildStats
			for _, workers := range []int{1, 4} {
				var stats core.BuildStats
				s, err := core.XClusterBuild(d.Ref, core.BuildOptions{
					StructBudget: sb,
					ValueBudget:  cfg.ValueBudget(d),
					Workers:      workers,
					Stats:        &stats,
				})
				if err != nil {
					t.Fatalf("%s Bstr=%d workers=%d: %v", name, sb, workers, err)
				}
				if stats.Workers != workers {
					t.Fatalf("%s Bstr=%d: resolved %d workers, asked for %d", name, sb, stats.Workers, workers)
				}
				got := normalizedBytes(t, s)
				if want == nil {
					want, wantStats = got, stats
					continue
				}
				if !bytes.Equal(got, want) {
					t.Fatalf("%s Bstr=%d: parallel build is not bit-for-bit serial", name, sb)
				}
				if stats.Merges != wantStats.Merges {
					t.Fatalf("%s Bstr=%d: parallel applied %d merges, serial %d", name, sb, stats.Merges, wantStats.Merges)
				}
				if stats.PairsEvaluated != wantStats.PairsEvaluated {
					t.Fatalf("%s Bstr=%d: parallel evaluated %d pairs, serial %d", name, sb, stats.PairsEvaluated, wantStats.PairsEvaluated)
				}
			}
			if wantStats.Merges > 0 {
				merged = true
			}
		}
		if !merged {
			t.Fatalf("%s: no budget of the sweep merged anything", name)
		}
	}
}

// normalizedBytes encodes s with the wall-clock fingerprint fields
// zeroed, so byte comparisons ignore when a build ran.
func normalizedBytes(t *testing.T, s *core.Synopsis) []byte {
	t.Helper()
	fp := s.Fingerprint()
	fp.BuiltAtUnix, fp.BuildNanos = 0, 0
	s.SetFingerprint(fp)
	var buf bytes.Buffer
	if _, err := s.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}
