package core

import (
	"bytes"
	"testing"

	"xcluster/internal/datagen"
	"xcluster/internal/vsum"
	"xcluster/internal/xmltree"
)

// codecBytes encodes s with the wall-clock fingerprint fields zeroed,
// so bit-for-bit comparisons ignore when a build ran.
func codecBytes(t *testing.T, s *Synopsis) []byte {
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

// valueFixture builds the reference synopsis of a generated document
// with its value paths, the value-bearing fixtures the build
// differential runs on.
func valueFixture(t *testing.T, tr *xmltree.Tree, paths []string) *Synopsis {
	t.Helper()
	ref, err := BuildReference(tr, ReferenceOptions{
		ValuePaths: paths,
		Detail:     vsum.BuildOptions{PSTDepth: 5, MaxSummaryBytes: 2048},
	})
	if err != nil {
		t.Fatal(err)
	}
	return ref
}

// TestBuildWorkersAndCacheIdentical is the build differential: worker
// count and the evaluation caches are pure performance knobs — every
// configuration must produce the same bytes and merges, and score the
// same pairs, as the serial uncached oracle, on a synthetic
// structure-only tree and on the value-bearing IMDB and XMark
// generators alike. It runs under -short on purpose, so that the -race
// pass audits the worker pool.
func TestBuildWorkersAndCacheIdentical(t *testing.T) {
	synth, _ := buildFixture(t, 31, 300)
	imdb := valueFixture(t, datagen.IMDB(datagen.IMDBConfig{Seed: 7, Scale: 0.2}), datagen.IMDBValuePaths())
	xmark := valueFixture(t, datagen.XMark(datagen.XMarkConfig{Seed: 7, Scale: 0.2}), datagen.XMarkValuePaths())
	fixtures := []struct {
		name string
		ref  *Synopsis
		opts BuildOptions
	}{
		{"synthetic", synth, BuildOptions{
			StructBudget: synth.StructBytes() / 4,
			ValueBudget:  synth.ValueBytes() / 2,
			Hm:           400, Hl: 200,
		}},
		{"IMDB", imdb, BuildOptions{
			StructBudget: imdb.StructBytes() / 20,
			ValueBudget:  imdb.ValueBytes() / 3,
		}},
		{"XMark", xmark, BuildOptions{
			StructBudget: xmark.StructBytes() / 20,
			ValueBudget:  xmark.ValueBytes() * 3 / 5,
		}},
	}
	variants := []struct {
		name    string
		workers int
		noCache bool
	}{
		{"serial", 1, true},
		{"parallel", 4, true},
		{"cached", 1, false},
		{"parallel+cached", 4, false},
	}
	for _, f := range fixtures {
		t.Run(f.name, func(t *testing.T) {
			var want []byte
			var wantStats BuildStats
			for _, v := range variants {
				opts := f.opts
				opts.Workers = v.workers
				opts.noEvalCache = v.noCache
				var stats BuildStats
				opts.Stats = &stats
				s, err := XClusterBuild(f.ref, opts)
				if err != nil {
					t.Fatalf("%s: %v", v.name, err)
				}
				got := codecBytes(t, s)
				if want == nil {
					want, wantStats = got, stats
					continue
				}
				if !bytes.Equal(got, want) {
					t.Fatalf("%s: synopsis bytes differ from serial build", v.name)
				}
				if stats.Merges != wantStats.Merges {
					t.Fatalf("%s: %d merges, serial did %d", v.name, stats.Merges, wantStats.Merges)
				}
				if stats.PairsEvaluated != wantStats.PairsEvaluated {
					t.Fatalf("%s: %d pairs evaluated, serial did %d",
						v.name, stats.PairsEvaluated, wantStats.PairsEvaluated)
				}
			}
			if wantStats.PairsEvaluated == 0 || wantStats.Merges == 0 {
				t.Fatalf("degenerate fixture: stats %+v", wantStats)
			}
		})
	}
}

// TestBuildWorkersValidation: negative worker counts are rejected, and
// the fingerprint carries no trace of the worker count (it must not,
// since it cannot affect the output).
func TestBuildWorkersValidation(t *testing.T) {
	ref, _ := buildFixture(t, 32, 100)
	if _, err := XClusterBuild(ref, BuildOptions{StructBudget: 1, ValueBudget: 1, Workers: -1}); err == nil {
		t.Fatal("negative Workers accepted")
	}
	if _, err := XClusterSweep(ref, []int{ref.StructBytes() / 2}, ref.ValueBytes(), BuildOptions{Workers: -3}); err == nil {
		t.Fatal("negative Workers accepted by sweep")
	}
	a, err := XClusterBuild(ref, BuildOptions{StructBudget: ref.StructBytes() / 2, ValueBudget: ref.ValueBytes(), Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	b, err := XClusterBuild(ref, BuildOptions{StructBudget: ref.StructBytes() / 2, ValueBudget: ref.ValueBytes(), Workers: 7})
	if err != nil {
		t.Fatal(err)
	}
	fa, fb := a.Fingerprint(), b.Fingerprint()
	fa.BuiltAtUnix, fa.BuildNanos = 0, 0
	fb.BuiltAtUnix, fb.BuildNanos = 0, 0
	if fa != fb {
		t.Fatalf("worker count leaked into the fingerprint: %+v vs %+v", fa, fb)
	}
}

// TestBuildProgress: the Progress callback fires with monotone merge
// counts and sees both phases.
func TestBuildProgress(t *testing.T) {
	ref, _ := buildFixture(t, 33, 250)
	var snaps []BuildProgress
	opts := BuildOptions{
		StructBudget: ref.StructBytes() / 4,
		ValueBudget:  ref.ValueBytes() / 4,
		Progress:     func(p BuildProgress) { snaps = append(snaps, p) },
	}
	if _, err := XClusterBuild(ref, opts); err != nil {
		t.Fatal(err)
	}
	if len(snaps) == 0 {
		t.Fatal("no progress delivered")
	}
	sawMerge, sawValue := false, false
	lastMerges := int64(-1)
	for _, p := range snaps {
		switch p.Phase {
		case "merge":
			sawMerge = true
		case "value":
			sawValue = true
		default:
			t.Fatalf("unknown phase %q", p.Phase)
		}
		if p.Merges < lastMerges {
			t.Fatalf("merge count went backwards: %d after %d", p.Merges, lastMerges)
		}
		lastMerges = p.Merges
		if p.StructBudget != opts.StructBudget || p.ValueBudget != opts.ValueBudget {
			t.Fatalf("budgets not echoed: %+v", p)
		}
	}
	if !sawMerge || !sawValue {
		t.Fatalf("phases seen: merge=%v value=%v", sawMerge, sawValue)
	}
	final := snaps[len(snaps)-1]
	if final.ValueBytes > opts.ValueBudget {
		t.Fatalf("final value bytes %d over budget %d", final.ValueBytes, opts.ValueBudget)
	}
}
