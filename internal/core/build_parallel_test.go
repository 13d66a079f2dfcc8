package core

import (
	"bytes"
	"math/rand"
	"sort"
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

// TestBuildWorkersAndMemoIdentical is the differential test of the
// tentpole invariant: worker count and the pair-Δ memo table are pure
// performance knobs — every configuration must produce the same bytes,
// on a synthetic structure-only tree and on the value-bearing IMDB and
// XMark generators alike. It runs under -short on purpose, so that the
// -race pass audits the worker pool.
func TestBuildWorkersAndMemoIdentical(t *testing.T) {
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
		noMemo  bool
	}{
		{"serial", 1, true},
		{"parallel", 4, true},
		{"memo", 1, false},
		{"parallel+memo", 4, false},
	}
	for _, f := range fixtures {
		t.Run(f.name, func(t *testing.T) {
			var want []byte
			var wantStats BuildStats
			for _, v := range variants {
				opts := f.opts
				opts.Workers = v.workers
				opts.noDeltaMemo = v.noMemo
				var stats BuildStats
				opts.Stats = &stats
				s, err := XClusterBuild(f.ref, opts)
				if err != nil {
					t.Fatalf("%s: %v", v.name, err)
				}
				if v.noMemo && stats.MemoHits+stats.MemoPartialHits != 0 {
					t.Fatalf("%s: unmemoized build recorded memo hits: %+v", v.name, stats)
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
				if !v.noMemo && stats.MemoHits == 0 {
					t.Fatalf("%s: memo enabled but never hit", v.name)
				}
				if !v.noMemo && stats.PairsEvaluated >= wantStats.PairsEvaluated {
					t.Fatalf("%s: memo did not reduce evaluations (%d >= %d)",
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

// TestMemoNeverServesStaleDelta drives random merge sequences through
// the builder's own bookkeeping and, after every merge, checks that the
// memoized Δ of random live pairs matches a fresh recomputation
// bit-for-bit. This is the property the version-stamp invalidation rule
// must guarantee: no merge may leave a reachable stale entry behind.
func TestMemoNeverServesStaleDelta(t *testing.T) {
	for seed := int64(40); seed < 44; seed++ {
		rng := rand.New(rand.NewSource(seed))
		ref, _ := buildFixture(t, seed, 150)
		opts := BuildOptions{StructBudget: 1, ValueBudget: 1}.withDefaults()
		b := newBuilder(nil, ref.Clone(), opts)
		if b.memo == nil {
			t.Fatal("memo not enabled by default")
		}
		b.initGroups()

		// Sorted group keys for deterministic random pair draws.
		groupKeys := func() []groupKey {
			keys := make([]groupKey, 0, len(b.groups))
			for k, ids := range b.groups {
				if len(ids) >= 2 {
					keys = append(keys, k)
				}
			}
			sort.Slice(keys, func(i, j int) bool {
				if keys[i].label != keys[j].label {
					return keys[i].label < keys[j].label
				}
				if keys[i].vt != keys[j].vt {
					return keys[i].vt < keys[j].vt
				}
				return !keys[i].hasV && keys[j].hasV
			})
			return keys
		}
		randPair := func(keys []groupKey) (NodeID, NodeID) {
			ids := b.groups[keys[rng.Intn(len(keys))]]
			i := rng.Intn(len(ids))
			j := rng.Intn(len(ids) - 1)
			if j >= i {
				j++
			}
			return ids[i], ids[j]
		}

		for step := 0; step < 60; step++ {
			keys := groupKeys()
			if len(keys) == 0 {
				break
			}
			// Probe a handful of pairs: first via the memo (warming it or
			// hitting it), then against a fresh recomputation.
			for probe := 0; probe < 8; probe++ {
				u, v := randPair(keys)
				got := b.newCand(u, v)
				fresh := b.computeCand(u, v)
				switch {
				case got == nil && fresh == nil:
				case got == nil || fresh == nil:
					t.Fatalf("seed %d step %d: memo feasibility diverges for (%d,%d)", seed, step, u, v)
				case got.delta != fresh.delta || got.saved != fresh.saved || got.marginal != fresh.marginal:
					t.Fatalf("seed %d step %d: stale Δ for (%d,%d): memo (%g,%d) fresh (%g,%d)",
						seed, step, u, v, got.delta, got.saved, fresh.delta, fresh.saved)
				}
			}
			// Apply a random merge through the builder's bookkeeping.
			u, v := randPair(keys)
			if _, err := b.applyMerge(u, v); err != nil {
				t.Fatalf("seed %d step %d: %v", seed, step, err)
			}
		}
		if b.stats.MemoHits == 0 {
			t.Fatalf("seed %d: property test never exercised a memo hit", seed)
		}
	}
}
