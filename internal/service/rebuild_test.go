package service

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
	"weak"

	"xcluster/internal/accuracy"
	"xcluster/internal/core"
	"xcluster/internal/query"
	"xcluster/internal/xmltree"
)

// testTree parses testDoc into the tree form WithDocument wants.
func testTree(t *testing.T) *xmltree.Tree {
	t.Helper()
	tree, err := xmltree.Parse(strings.NewReader(testDoc()), xmltree.ParseOptions{})
	if err != nil {
		t.Fatal(err)
	}
	return tree
}

// coldAnswers builds a brand-new synopsis from the document with the
// given budgets and answers the workload with a cache-less estimator:
// the bit-for-bit ground truth a post-rebuild service must reproduce.
func coldAnswers(t *testing.T, tree *xmltree.Tree, bstr, bval int, qs []*query.Query) []float64 {
	t.Helper()
	ref, err := core.BuildReference(tree, core.ReferenceOptions{})
	if err != nil {
		t.Fatal(err)
	}
	syn, err := core.XClusterBuild(ref, core.BuildOptions{StructBudget: bstr, ValueBudget: bval})
	if err != nil {
		t.Fatal(err)
	}
	return sequentialAnswers(syn, qs)
}

func TestReloadSwapsGeneration(t *testing.T) {
	syn := newTestSynopsis(t)
	qs := parseWorkload(t)
	want := sequentialAnswers(syn, qs)

	var loads, swapsA, swapsB atomic.Int64
	svc := New(syn,
		WithSynopsisSource(func(ctx context.Context) (*core.Synopsis, error) {
			loads.Add(1)
			return newTestSynopsis(t), nil
		}),
		// Repeated WithOnSwap options chain.
		WithOnSwap(func(ev SwapEvent) { swapsA.Add(1) }),
		WithOnSwap(func(ev SwapEvent) { swapsB.Add(1) }),
	)
	if g := svc.Generation(); g != 0 {
		t.Fatalf("initial generation = %d, want 0", g)
	}
	ev, err := svc.Reload(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if ev.OldGeneration != 0 || ev.NewGeneration != 1 || ev.Reason != "reload" {
		t.Fatalf("swap event %+v", ev)
	}
	if loads.Load() != 1 || swapsA.Load() != 1 || swapsB.Load() != 1 {
		t.Fatalf("loads=%d swapsA=%d swapsB=%d, want 1/1/1", loads.Load(), swapsA.Load(), swapsB.Load())
	}
	if g := svc.Generation(); g != 1 {
		t.Fatalf("generation after reload = %d, want 1", g)
	}
	// The reloaded synopsis came from the same document and budgets, so
	// estimates stay bit-for-bit identical across the swap.
	for i, q := range qs {
		got, err := svc.Estimate(context.Background(), q)
		if err != nil {
			t.Fatal(err)
		}
		if got != want[i] {
			t.Fatalf("post-reload %s = %v, want %v", testWorkload[i], got, want[i])
		}
	}
	if st := svc.Stats(); st.Generation != 1 || st.Swaps != 1 {
		t.Fatalf("stats generation=%d swaps=%d, want 1/1", st.Generation, st.Swaps)
	}

	// Without a source, Reload fails typed.
	if _, err := New(newTestSynopsis(t)).Reload(context.Background()); !errors.Is(err, ErrNoSource) {
		t.Fatalf("no-source reload: %v, want ErrNoSource", err)
	}
}

func TestRebuildBitForBit(t *testing.T) {
	tree := testTree(t)
	qs := parseWorkload(t)
	svc := New(newTestSynopsis(t), WithDocument(tree))

	ev, err := svc.Rebuild(context.Background(), RebuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if ev.NewGeneration != 1 || ev.Reason != "rebuild" {
		t.Fatalf("swap event %+v", ev)
	}
	st := svc.RebuildStatus()
	if st.Running || st.Phase != PhaseIdle || st.LastOutcome != "ok" || st.LastGeneration != 1 {
		t.Fatalf("rebuild status %+v", st)
	}
	// The request carried no budgets, so the rebuild inherited the
	// current fingerprint's (512/512 from newTestSynopsis). Post-swap
	// estimates must be bit-for-bit what a cold estimator over the same
	// document and budgets produces.
	want := coldAnswers(t, tree, 512, 512, qs)
	for i, q := range qs {
		got, err := svc.Estimate(context.Background(), q)
		if err != nil {
			t.Fatal(err)
		}
		if got != want[i] {
			t.Fatalf("post-rebuild %s = %v, want cold %v", testWorkload[i], got, want[i])
		}
	}
	fp := svc.Synopsis().Fingerprint()
	if fp.StructBudget != 512 || fp.ValueBudget != 512 {
		t.Fatalf("rebuilt budgets %d/%d, want 512/512", fp.StructBudget, fp.ValueBudget)
	}
	if fp.DocHash == 0 || fp.BuiltAtUnix == 0 {
		t.Fatalf("rebuilt fingerprint not stamped: %+v", fp)
	}

	// Explicit budgets win over the inherited ones.
	ev, err = svc.Rebuild(context.Background(), RebuildOptions{StructBudget: 2048, ValueBudget: 2048, Reason: "resize"})
	if err != nil {
		t.Fatal(err)
	}
	if ev.NewGeneration != 2 || ev.Reason != "resize" {
		t.Fatalf("resize swap event %+v", ev)
	}
	if fp := svc.Synopsis().Fingerprint(); fp.StructBudget != 2048 || fp.ValueBudget != 2048 {
		t.Fatalf("resized budgets %d/%d, want 2048/2048", fp.StructBudget, fp.ValueBudget)
	}
	want = coldAnswers(t, tree, 2048, 2048, qs)
	for i, q := range qs {
		if got, _ := svc.Estimate(context.Background(), q); got != want[i] {
			t.Fatalf("post-resize %s = %v, want cold %v", testWorkload[i], got, want[i])
		}
	}
}

func TestRebuildErrors(t *testing.T) {
	// No resident document: typed failure, nothing swapped.
	svc := New(newTestSynopsis(t))
	if _, err := svc.Rebuild(context.Background(), RebuildOptions{}); !errors.Is(err, ErrNoDocument) {
		t.Fatalf("no-document rebuild: %v, want ErrNoDocument", err)
	}
	if g := svc.Generation(); g != 0 {
		t.Fatalf("generation moved to %d on failed rebuild", g)
	}

	// A cancelled context aborts the rebuild; the old generation keeps
	// serving and the failure lands in RebuildStatus.
	svc2 := New(newTestSynopsis(t), WithDocument(testTree(t)))
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := svc2.Rebuild(ctx, RebuildOptions{}); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled rebuild: %v, want context.Canceled", err)
	}
	st := svc2.RebuildStatus()
	if st.LastOutcome != "error" || st.LastError == "" {
		t.Fatalf("status after cancelled rebuild %+v", st)
	}
	if g := svc2.Generation(); g != 0 {
		t.Fatalf("generation moved to %d on cancelled rebuild", g)
	}
	// The service still answers.
	if _, err := svc2.Estimate(context.Background(), query.MustParse("//book")); err != nil {
		t.Fatal(err)
	}
}

// TestSwapInvalidatesCachesAndPlans proves the swap retires both the
// result and the plan cache with the outgoing estimator, which is
// collected once no request pins it, and that traced estimates never
// mix plans across generations: every trace's PlanGeneration equals its
// Generation, before and after the swap.
func TestSwapInvalidatesCachesAndPlans(t *testing.T) {
	tree := testTree(t)
	qs := parseWorkload(t)
	svc := New(newTestSynopsis(t), WithDocument(tree))

	// Populate both caches on the old generation and hold its estimator
	// the way a pinned in-flight request would.
	oldEst := svc.Estimator()
	old := weak.Make(oldEst)
	for _, q := range qs {
		tr := new(core.EstimateTrace)
		if _, err := svc.estimateOne(context.Background(), time.Time{}, svc.cur.Load(), q, "", tr); err != nil {
			t.Fatal(err)
		} else if tr.Generation != 0 || tr.PlanGeneration != 0 {
			t.Fatalf("pre-swap trace generations %d/%d, want 0/0", tr.Generation, tr.PlanGeneration)
		}
	}
	if oldEst.CacheStats().Len == 0 || oldEst.PlanCacheStats().Len == 0 {
		t.Fatalf("caches not populated: %+v %+v", oldEst.CacheStats(), oldEst.PlanCacheStats())
	}

	if _, err := svc.Rebuild(context.Background(), RebuildOptions{}); err != nil {
		t.Fatal(err)
	}

	// The outgoing estimator's caches are its own: with no request
	// pinning the retired slot, nothing references them after the swap,
	// and the collector releases the estimator, caches and all.
	runtime.GC()
	if old.Value() != nil {
		t.Fatal("retired estimator still reachable after swap")
	}

	// Post-swap traces run entirely inside generation 1: fresh compiles,
	// never a generation-0 plan.
	newEst := svc.Estimator()
	if weak.Make(newEst) == old {
		t.Fatal("swap did not replace the estimator")
	}
	for i, q := range qs {
		tr := new(core.EstimateTrace)
		_, err := svc.estimateOne(context.Background(), time.Time{}, svc.cur.Load(), q, "", tr)
		if err != nil {
			t.Fatal(err)
		}
		if tr.Generation != 1 {
			t.Fatalf("%s: post-swap trace generation %d, want 1", testWorkload[i], tr.Generation)
		}
		if tr.PlanGeneration != tr.Generation {
			t.Fatalf("%s: plan generation %d crossed into estimate generation %d",
				testWorkload[i], tr.PlanGeneration, tr.Generation)
		}
		if tr.ResultCacheHit || tr.PlanCacheHit {
			t.Fatalf("%s: first post-swap run hit a cache (result=%v plan=%v)",
				testWorkload[i], tr.ResultCacheHit, tr.PlanCacheHit)
		}
	}
}

// TestRebuildSingleFlight: concurrent rebuilds collapse to one winner;
// the rest fail fast with ErrRebuildInProgress and nothing stacks.
func TestRebuildSingleFlight(t *testing.T) {
	svc := New(newTestSynopsis(t), WithDocument(testTree(t)))
	const callers = 8
	var ok, busy atomic.Int64
	var wg sync.WaitGroup
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, err := svc.Rebuild(context.Background(), RebuildOptions{})
			switch {
			case err == nil:
				ok.Add(1)
			case errors.Is(err, ErrRebuildInProgress):
				busy.Add(1)
			default:
				t.Errorf("rebuild: %v", err)
			}
		}()
	}
	wg.Wait()
	if ok.Load() < 1 {
		t.Fatalf("no rebuild succeeded (ok=%d busy=%d)", ok.Load(), busy.Load())
	}
	if ok.Load()+busy.Load() != callers {
		t.Fatalf("ok=%d busy=%d, want %d total", ok.Load(), busy.Load(), callers)
	}
	if g := svc.Generation(); g != uint64(ok.Load()) {
		t.Fatalf("generation %d after %d successful rebuilds", g, ok.Load())
	}
}

// TestHammerWhileSwapping drives 32 goroutines of estimates while the
// synopsis is rebuilt and hot swapped underneath them. Run under -race.
// Every request must succeed, every answer must be bit-for-bit the
// sequential ground truth (the rebuilds use the same document and
// budgets, so old and new generations agree), and no trace may pair an
// estimate with a plan from another generation.
func TestHammerWhileSwapping(t *testing.T) {
	tree := testTree(t)
	syn := newTestSynopsis(t)
	qs := parseWorkload(t)
	want := sequentialAnswers(syn, qs)
	svc := New(syn, WithDocument(tree))

	const goroutines = 32
	const rounds = 30
	start := make(chan struct{})
	var wg sync.WaitGroup
	errs := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			<-start
			for r := 0; r < rounds; r++ {
				i := (g + r) % len(qs)
				tr := new(core.EstimateTrace)
				v, err := svc.estimateOne(context.Background(), time.Time{}, svc.cur.Load(), qs[i], "", tr)
				if err != nil {
					errs <- fmt.Errorf("goroutine %d round %d: %v", g, r, err)
					return
				}
				if v != want[i] {
					errs <- fmt.Errorf("goroutine %d: %s = %v, want %v", g, testWorkload[i], v, want[i])
					return
				}
				if tr.PlanGeneration != tr.Generation {
					errs <- fmt.Errorf("goroutine %d: plan generation %d vs estimate generation %d",
						g, tr.PlanGeneration, tr.Generation)
					return
				}
				// Batches pin one slot: a swap mid-batch must not split
				// the batch across generations.
				if r%7 == 0 {
					batch := qs[:3]
					vs, trs, err := runBatch(context.Background(), svc, svc.cur.Load(), batch)
					if err != nil {
						errs <- fmt.Errorf("goroutine %d: batch: %v", g, err)
						return
					}
					for j, bv := range vs {
						if bv != want[j] {
							errs <- fmt.Errorf("goroutine %d: batch[%d] = %v, want %v", g, j, bv, want[j])
							return
						}
					}
					gen := trs[0].Generation
					for j, btr := range trs {
						if btr.Generation != gen || btr.PlanGeneration != gen {
							errs <- fmt.Errorf("goroutine %d: batch[%d] generations %d/%d split from batch generation %d",
								g, j, btr.Generation, btr.PlanGeneration, gen)
							return
						}
					}
				}
			}
		}(g)
	}

	close(start)
	// Swap repeatedly while the hammer runs.
	const swaps = 4
	for i := 0; i < swaps; i++ {
		if _, err := svc.Rebuild(context.Background(), RebuildOptions{}); err != nil {
			t.Fatalf("rebuild %d: %v", i, err)
		}
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	st := svc.Stats()
	if st.Failed != 0 {
		t.Fatalf("%d failed requests under swap load", st.Failed)
	}
	if st.Generation != swaps || st.Swaps != swaps {
		t.Fatalf("generation=%d swaps=%d, want %d/%d", st.Generation, st.Swaps, swaps, swaps)
	}
}

// TestRebuildOnDrift: a drift-flag transition triggers a background
// rebuild when WithRebuildOnDrift is set.
func TestRebuildOnDrift(t *testing.T) {
	tree := testTree(t)
	var drifts atomic.Int64
	svc := New(newTestSynopsis(t),
		WithDocument(tree),
		WithRebuildOnDrift(),
		WithAccuracy(
			accuracy.WithOnDrift(func(ev accuracy.DriftEvent) { drifts.Add(1) }),
		),
	)
	q := query.MustParse("//book[year>1990]")
	// Establish an accurate baseline (a window's worth scrolls out of
	// the window), then let the window fill with large errors: the
	// false→true transition fires the rebuild.
	for i := 0; i < 2*accuracy.DefaultWindow; i++ {
		svc.Monitor().Observe(q, 100, 100)
	}
	for i := 0; i < accuracy.DefaultWindow; i++ {
		svc.Monitor().Observe(q, 100, 1000)
	}
	if drifts.Load() == 0 {
		t.Fatal("drift callback never fired")
	}
	deadline := time.Now().Add(10 * time.Second)
	for svc.Generation() == 0 {
		if time.Now().After(deadline) {
			t.Fatalf("drift-triggered rebuild never landed; status %+v", svc.RebuildStatus())
		}
		time.Sleep(10 * time.Millisecond)
	}
	if st := svc.RebuildStatus(); st.LastOutcome != "ok" {
		t.Fatalf("drift rebuild status %+v", st)
	}
}

// TestHammerWhileParallelBuilding re-runs the swap hammer with the
// rebuild's merge engine fanned out over 4 evaluation workers
// (WithBuildWorkers). Run under -race: the build workers share the
// builder's evaluation caches while 32 goroutines estimate against the
// serving slot. Worker count must never leak into results — answers
// stay bit-for-bit the sequential ground truth across every swap — and
// each rebuild's swap event must carry its construction stats.
func TestHammerWhileParallelBuilding(t *testing.T) {
	tree := testTree(t)
	syn := newTestSynopsis(t)
	qs := parseWorkload(t)
	want := sequentialAnswers(syn, qs)

	var events []SwapEvent
	var evMu sync.Mutex
	svc := New(syn,
		WithDocument(tree),
		WithBuildWorkers(4),
		WithOnSwap(func(ev SwapEvent) {
			evMu.Lock()
			events = append(events, ev)
			evMu.Unlock()
		}),
	)

	const goroutines = 32
	const rounds = 20
	start := make(chan struct{})
	var wg sync.WaitGroup
	errs := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			<-start
			for r := 0; r < rounds; r++ {
				i := (g + r) % len(qs)
				v, err := svc.Estimate(context.Background(), qs[i])
				if err != nil {
					errs <- fmt.Errorf("goroutine %d round %d: %v", g, r, err)
					return
				}
				if v != want[i] {
					errs <- fmt.Errorf("goroutine %d: %s = %v, want %v", g, testWorkload[i], v, want[i])
					return
				}
			}
		}(g)
	}

	close(start)
	const swaps = 3
	for i := 0; i < swaps; i++ {
		ev, err := svc.Rebuild(context.Background(), RebuildOptions{})
		if err != nil {
			t.Fatalf("rebuild %d: %v", i, err)
		}
		if ev.Build == nil {
			t.Fatalf("rebuild %d: swap event carries no build stats", i)
		}
		if ev.Build.Workers != 4 {
			t.Fatalf("rebuild %d: build ran with %d workers, want 4", i, ev.Build.Workers)
		}
		// The test document fits its budget with few or no merges, so
		// only the phase timings are guaranteed to be non-trivial.
		if ev.Build.ValueSeconds <= 0 {
			t.Fatalf("rebuild %d: no value-phase time recorded: %+v", i, ev.Build)
		}
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if st := svc.Stats(); st.Failed != 0 {
		t.Fatalf("%d failed requests under parallel-build load", st.Failed)
	}
	evMu.Lock()
	defer evMu.Unlock()
	if len(events) != swaps {
		t.Fatalf("%d swap events, want %d", len(events), swaps)
	}
	for i, ev := range events {
		if ev.Build == nil {
			t.Fatalf("swap event %d has no build stats", i)
		}
	}
	if st := svc.RebuildStatus(); st.LastBuildStats == nil || st.LastBuildStats.Workers != 4 {
		t.Fatalf("rebuild status missing build stats: %+v", st)
	}
}

// TestEstimateRequestExplainsItsGeneration reloads back and forth
// between two different synopses of one document while estimate
// requests ask for explanations and plans: every answer's (selectivity,
// explain lines, plan) triple must come whole from one of the two
// synopses, never mix a number from one generation with the explanation
// of another (run under -race).
func TestEstimateRequestExplainsItsGeneration(t *testing.T) {
	ref, err := core.BuildReference(testTree(t), core.ReferenceOptions{})
	if err != nil {
		t.Fatal(err)
	}
	merged, err := core.XClusterBuild(ref, core.BuildOptions{StructBudget: 64, ValueBudget: 64})
	if err != nil {
		t.Fatal(err)
	}
	// Serialized once; every load decodes a fresh copy, since installing
	// a synopsis stamps its generation.
	var encoded [2][]byte
	for i, syn := range []*core.Synopsis{ref, merged} {
		var buf bytes.Buffer
		if _, err := syn.WriteTo(&buf); err != nil {
			t.Fatal(err)
		}
		encoded[i] = buf.Bytes()
	}
	decode := func(i int) *core.Synopsis {
		syn, err := core.ReadSynopsis(bytes.NewReader(encoded[i]))
		if err != nil {
			t.Error(err)
		}
		return syn
	}
	req := EstimateRequest{Queries: []string{"//*[year>1990]/title"}, Explain: true, Plan: true}
	type triple struct {
		sel     float64
		explain string
		plan    string
	}
	answer := func(svc *Service) triple {
		resp, err := svc.RunEstimateRequest(context.Background(), req)
		if err != nil {
			t.Error(err)
			return triple{}
		}
		r := resp.Results[0]
		if r.Selectivity == nil {
			t.Errorf("no selectivity: %+v", r)
			return triple{}
		}
		return triple{*r.Selectivity, strings.Join(r.Explain, "\n"), r.Plan}
	}
	want := [2]triple{answer(New(decode(0))), answer(New(decode(1)))}
	if want[0].sel == want[1].sel {
		t.Fatalf("fixtures agree on %s (%v); the test needs them to differ", req.Queries[0], want[0].sel)
	}

	var loads atomic.Int64
	svc := New(decode(0), WithSynopsisSource(func(context.Context) (*core.Synopsis, error) {
		return decode(int(loads.Add(1) % 2)), nil
	}))
	done := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				if got := answer(svc); got != want[0] && got != want[1] {
					t.Errorf("answer mixes generations: %+v", got)
					return
				}
			}
		}()
	}
	for i := 0; i < 40; i++ {
		if _, err := svc.Reload(context.Background()); err != nil {
			t.Error(err)
			break
		}
	}
	close(done)
	wg.Wait()
}
