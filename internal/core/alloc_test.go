package core

import (
	"bytes"
	"context"
	"testing"

	"xcluster/internal/datagen"
	"xcluster/internal/query"
)

// raceEnabled is set under the race detector, whose instrumentation
// makes allocation counts meaningless (race_test.go).
var raceEnabled bool

// TestEstimateCacheHitAllocs pins the allocation cost of an estimate
// that a cache answers: the canonical string is the one allocation of
// an untraced hit, and a trace adds exactly one more (the trace and its
// spans are one object). The served path's pin, with the service
// recording metrics from the trace, is internal/service
// TestServiceEstimateCacheHitAllocs.
func TestEstimateCacheHitAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	ref := planEstimators(t)["reference"].Synopsis()
	ctx := context.Background()
	resultHit := NewEstimator(ref)
	planHit := NewEstimator(ref)
	planHit.SetCacheCapacity(0)
	traced := NewEstimator(ref)
	for _, s := range planQueries {
		q := query.MustParse(s)
		cases := []struct {
			name string
			max  float64
			run  func()
		}{
			{"Selectivity, result-cache hit", 1, func() { resultHit.Selectivity(q) }},
			{"Selectivity, plan-cache hit", 1, func() { planHit.Selectivity(q) }},
			{"SelectivityTraced, result-cache hit", 2, func() { traced.SelectivityTraced(ctx, q) }},
		}
		for _, c := range cases {
			c.run() // warm the caches
			if n := testing.AllocsPerRun(100, c.run); n > c.max {
				t.Errorf("%s: %q: %v allocs, want ≤%v", c.name, s, n, c.max)
			}
		}
	}
}

// compileAllocs is the measured allocation count of one cold estimate
// (both caches off: canonicalize, compile, execute) per planQueries
// entry, on the reference and the merged planEstimators synopsis. The
// canonical string is one allocation and execution none, so the rest
// is compilation: the plan, its subproblems, its terms, and one array
// holding its roots, group starts and kid indices (4; a plan with no
// terms, like //nosuchtag's, needs no term array). The value summaries
// allocate nothing to estimate a predicate: an ftsim predicate of up to
// 15 terms keeps its term probabilities on the stack (it took 2 more
// allocations before). Before label-indexed lowering and the dense
// frontier accumulator the same estimates took 13–83 allocations each
// (reference) and 13–56 (merged).
var compileAllocs = map[string][2]float64{
	"//paper":                              {5, 5},
	"//paper/title":                        {5, 5},
	"/dblp/author/paper/year":              {5, 5},
	"//author//title":                      {5, 5},
	"//*":                                  {5, 5},
	"//*/year":                             {5, 5},
	"//author/*/title":                     {5, 5},
	"//paper[year>2000]":                   {5, 5},
	"//paper[year range(1999,2001)]/title": {5, 5},
	"//title[contains(Tree)]":              {5, 5},
	"//paper[abstract ftcontains(xml,synopsis)]":          {5, 5},
	"//keywords[ftsim(1,xml,quantum)]":                    {5, 5},
	"//paper[abstract ftsim(2,xml,synopsis)]":             {5, 5},
	"//author[./paper[year>2001]][./paper/keywords]/name": {5, 5},
	"//author[.//title[contains(Book)]]":                  {5, 5},
	"//nosuchtag":                                         {4, 4},
	"//paper[year>2999]":                                  {5, 5},
	"//paper[title contains(zzzznothing)]":                {5, 5},
	"//book[foreword ftcontains(database)]/title":         {5, 5},
	"//author[name contains(Author)]//year":               {5, 5},
}

// TestCompileAllocs pins the allocation cost of the cache-miss path:
// every planQueries entry, estimated with both caches off, stays within
// two allocations of its measured count (compileAllocs).
func TestCompileAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	ests := planEstimators(t)
	for i, name := range []string{"reference", "merged"} {
		est := ests[name]
		est.SetCacheCapacity(0)
		est.SetPlanCacheCapacity(0)
		for _, s := range planQueries {
			want, ok := compileAllocs[s]
			if !ok {
				t.Fatalf("%q has no measured allocation count in compileAllocs", s)
			}
			q := query.MustParse(s)
			est.Selectivity(q) // fill the compiler and execution pools
			if n := testing.AllocsPerRun(100, func() { est.Selectivity(q) }); n > want[i]+2 {
				t.Errorf("%s: cold %q: %v allocs, want ≤%v (measured %v)", name, s, n, want[i]+2, want[i])
			}
		}
	}
}

// readSynopsisAllocs is the measured allocation count of decoding the
// IMDB synopsis of TestReadSynopsisAllocs (38 clusters, 174 terms, 16
// PSTs, 62,572 bytes): one buffer for the file; per cluster its node,
// label, path and edge maps; per term the decoded string and the
// dictionary's copy; per PST the tree and its one node array; and the
// other summaries' slices and maps. The same decode took 19,445 when
// the reader streamed through bufio and each trie node was a map.
const readSynopsisAllocs = 735

// TestReadSynopsisAllocs pins the allocation cost of loading a synopsis
// file, built at the serving benchmark's budgets (StructBytes/20,
// ValueBytes/3) from a default reference.
func TestReadSynopsisAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	ref, err := BuildReference(datagen.IMDB(datagen.IMDBConfig{Seed: 7, Scale: 0.2}), ReferenceOptions{})
	if err != nil {
		t.Fatal(err)
	}
	s, err := XClusterBuild(ref, BuildOptions{StructBudget: ref.StructBytes() / 20, ValueBudget: ref.ValueBytes() / 3})
	if err != nil {
		t.Fatal(err)
	}
	var file bytes.Buffer
	if _, err := s.WriteTo(&file); err != nil {
		t.Fatal(err)
	}
	data := file.Bytes()
	n := testing.AllocsPerRun(10, func() {
		if _, err := ReadSynopsis(bytes.NewReader(data)); err != nil {
			t.Fatal(err)
		}
	})
	if n > readSynopsisAllocs {
		t.Errorf("ReadSynopsis: %v allocs, want ≤%v", n, readSynopsisAllocs)
	}
}
