package catalog

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"
	"time"

	"xcluster/internal/query"
	"xcluster/internal/service"
)

// scatterFixture attaches three collections for one tenant to a catalog
// configured by cfg and returns the catalog plus the shards by
// collection.
func scatterFixture(t *testing.T, cfg Config) (*Catalog, map[string]*Shard) {
	t.Helper()
	c := newTestCatalog(t, cfg,
		spec("acme", "docs"),
		spec("acme", "mail"),
		spec("acme", "wiki"),
	)
	shards := make(map[string]*Shard)
	for _, coll := range []string{"docs", "mail", "wiki"} {
		sh, err := c.Shard("acme", coll)
		if err != nil {
			t.Fatal(err)
		}
		shards[coll] = sh
	}
	return c, shards
}

func TestScatterAggregatesAcrossShards(t *testing.T) {
	c, shards := scatterFixture(t, Config{})
	qs := parseWorkload(t)

	// Sum in sorted collection order — the same order the gather uses —
	// so the float comparison below can demand bit equality.
	want := make([]float64, len(qs))
	for _, coll := range []string{"docs", "mail", "wiki"} {
		sels, err := shards[coll].Service().EstimateBatch(context.Background(), qs, nil)
		if err != nil {
			t.Fatal(err)
		}
		for i, s := range sels {
			want[i] += s
		}
	}

	res, err := c.ScatterEstimate(context.Background(), "acme", qs)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Complete() {
		t.Fatalf("scatter incomplete: %+v", res.Errors)
	}
	if len(res.Collections) != 3 {
		t.Fatalf("collections = %v, want all 3", res.Collections)
	}
	for i := range qs {
		if res.Selectivities[i] != want[i] {
			t.Fatalf("query %d (%s): scatter %v != sum of shards %v",
				i, testWorkload[i], res.Selectivities[i], want[i])
		}
	}
	if got := c.scatterTotal["ok"].Value(); got != 1 {
		t.Fatalf("ok counter = %d, want 1", got)
	}
}

func TestScatterUnknownTenant(t *testing.T) {
	c, _ := scatterFixture(t, Config{})
	if _, err := c.ScatterEstimate(context.Background(), "nobody", parseWorkload(t)); !errors.Is(err, service.ErrUnknownTenant) {
		t.Fatalf("scatter for unknown tenant = %v, want ErrUnknownTenant", err)
	}
}

// TestScatterPartialFailure injects a hard failure into one shard and
// checks the partial-failure contract: the aggregate covers exactly the
// healthy shards, the failed one is reported with its reason, and the
// call as a whole succeeds.
func TestScatterPartialFailure(t *testing.T) {
	c, shards := scatterFixture(t, Config{})
	qs := parseWorkload(t)
	shards["mail"].estimateBatch = func(ctx context.Context, qs []*query.Query, canonicals []string) ([]float64, error) {
		return nil, errors.New("injected shard fault")
	}

	want := make([]float64, len(qs))
	for _, coll := range []string{"docs", "wiki"} {
		sels, err := shards[coll].Service().EstimateBatch(context.Background(), qs, nil)
		if err != nil {
			t.Fatal(err)
		}
		for i, s := range sels {
			want[i] += s
		}
	}

	res, err := c.ScatterEstimate(context.Background(), "acme", qs)
	if err != nil {
		t.Fatalf("partial failure must not fail the call: %v", err)
	}
	if res.Complete() {
		t.Fatal("result claims complete coverage despite injected fault")
	}
	if len(res.Collections) != 2 || res.Collections[0] != "docs" || res.Collections[1] != "wiki" {
		t.Fatalf("collections = %v, want [docs wiki]", res.Collections)
	}
	if len(res.Errors) != 1 || res.Errors[0].Collection != "mail" || res.Errors[0].Reason != ReasonError {
		t.Fatalf("errors = %+v, want one 'error' entry for mail", res.Errors)
	}
	for i := range qs {
		if res.Selectivities[i] != want[i] {
			t.Fatalf("query %d: partial aggregate %v != sum of healthy shards %v",
				i, res.Selectivities[i], want[i])
		}
	}
	if got := c.scatterTotal["partial"].Value(); got != 1 {
		t.Fatalf("partial counter = %d, want 1", got)
	}
	if got := c.shardErrTotal[ReasonError].Value(); got != 1 {
		t.Fatalf("shard error counter = %d, want 1", got)
	}
}

// TestScatterDeadline injects a shard that never answers and checks the
// gather is deadline-bounded: the healthy shards' partial aggregate
// comes back as soon as the context expires, with the stuck shard
// reported as a deadline failure.
func TestScatterDeadline(t *testing.T) {
	c, shards := scatterFixture(t, Config{})
	qs := parseWorkload(t)
	release := make(chan struct{})
	defer close(release)
	shards["wiki"].estimateBatch = func(ctx context.Context, qs []*query.Query, canonicals []string) ([]float64, error) {
		// Simulate a stuck shard: hold until the test ends, well past
		// the scatter deadline.
		<-release
		return nil, context.Canceled
	}

	ctx, cancel := context.WithTimeout(context.Background(), 200*time.Millisecond)
	defer cancel()
	start := time.Now()
	res, err := c.ScatterEstimate(ctx, "acme", qs)
	elapsed := time.Since(start)
	if err != nil {
		t.Fatalf("deadline partial failure must not fail the call: %v", err)
	}
	if elapsed > 5*time.Second {
		t.Fatalf("scatter took %v: gather not deadline-bounded", elapsed)
	}
	if res.Complete() {
		t.Fatal("result claims complete coverage despite stuck shard")
	}
	if len(res.Collections) != 2 {
		t.Fatalf("collections = %v, want the two healthy ones", res.Collections)
	}
	if len(res.Errors) != 1 || res.Errors[0].Collection != "wiki" || res.Errors[0].Reason != ReasonDeadline {
		t.Fatalf("errors = %+v, want one deadline entry for wiki", res.Errors)
	}
}

func TestScatterDrainingShardReported(t *testing.T) {
	c, shards := scatterFixture(t, Config{})
	shards["docs"].draining.Store(true)
	defer shards["docs"].draining.Store(false)

	res, err := c.ScatterEstimate(context.Background(), "acme", parseWorkload(t))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Errors) != 1 || res.Errors[0].Collection != "docs" || res.Errors[0].Reason != ReasonDraining {
		t.Fatalf("errors = %+v, want one draining entry for docs", res.Errors)
	}
	if len(res.Collections) != 2 {
		t.Fatalf("collections = %v, want the two serving ones", res.Collections)
	}
}

func TestScatterAllShardsFailed(t *testing.T) {
	c, shards := scatterFixture(t, Config{})
	for _, sh := range shards {
		sh.estimateBatch = func(ctx context.Context, qs []*query.Query, canonicals []string) ([]float64, error) {
			return nil, errors.New("injected total outage")
		}
	}
	res, err := c.ScatterEstimate(context.Background(), "acme", parseWorkload(t))
	if err == nil {
		t.Fatal("scatter with zero answering shards must fail the call")
	}
	if res == nil || len(res.Errors) != 3 {
		t.Fatalf("result = %+v, want all three shards in Errors", res)
	}
	if got := c.scatterTotal["failed"].Value(); got != 1 {
		t.Fatalf("failed counter = %d, want 1", got)
	}
}

// TestScatterOneWorkerSerializes: with a one-goroutine scatter pool the
// shards' batches run one after another, never overlapping, and every
// shard still answers.
func TestScatterOneWorkerSerializes(t *testing.T) {
	c, shards := scatterFixture(t, Config{ScatterWorkers: 1})
	var running, overlaps, calls atomic.Int64
	for _, sh := range shards {
		estimate := sh.estimateBatch
		sh.estimateBatch = func(ctx context.Context, qs []*query.Query, canonicals []string) ([]float64, error) {
			if running.Add(1) > 1 {
				overlaps.Add(1)
			}
			defer running.Add(-1)
			calls.Add(1)
			time.Sleep(10 * time.Millisecond) // widen any overlap window
			return estimate(ctx, qs, canonicals)
		}
	}
	res, err := c.ScatterEstimate(context.Background(), "acme", parseWorkload(t))
	if err != nil {
		t.Fatal(err)
	}
	if !res.Complete() || len(res.Collections) != 3 {
		t.Fatalf("collections = %v, errors = %+v; want all 3 answering", res.Collections, res.Errors)
	}
	if n := calls.Load(); n != 3 {
		t.Fatalf("estimateBatch ran %d times, want 3", n)
	}
	if n := overlaps.Load(); n != 0 {
		t.Fatalf("%d estimateBatch calls overlapped with one scatter worker", n)
	}
}

// TestScatterCancelledContext: a context that has already ended starts
// no shard's batch, and every shard is reported as a deadline failure.
// The scatter runs repeatedly so a worker that did claim a shard would
// show up in the call count.
func TestScatterCancelledContext(t *testing.T) {
	c, shards := scatterFixture(t, Config{})
	var calls atomic.Int64
	for _, sh := range shards {
		sh.estimateBatch = func(ctx context.Context, qs []*query.Query, canonicals []string) ([]float64, error) {
			calls.Add(1)
			return make([]float64, len(qs)), nil
		}
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	qs := parseWorkload(t)
	for i := 0; i < 100; i++ {
		res, err := c.ScatterEstimate(ctx, "acme", qs)
		if err == nil {
			t.Fatal("scatter with a cancelled context must fail the call")
		}
		if res == nil || len(res.Errors) != 3 || len(res.Collections) != 0 {
			t.Fatalf("result = %+v, want all three shards in Errors", res)
		}
		for _, e := range res.Errors {
			if e.Reason != ReasonDeadline {
				t.Fatalf("shard %s reason %q, want %q", e.Collection, e.Reason, ReasonDeadline)
			}
		}
	}
	if n := calls.Load(); n != 0 {
		t.Fatalf("estimateBatch ran %d times under a cancelled context, want 0", n)
	}
}
