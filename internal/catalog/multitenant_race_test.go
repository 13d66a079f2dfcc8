package catalog

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"

	"xcluster/internal/query"
	"xcluster/internal/service"
)

// TestMultiTenantConcurrentLifecycle is the catalog's isolation stress
// test: 32 goroutines estimate concurrently across four tenants while
// one shard rebuilds in a loop and a fifth shard attaches and detaches
// in a loop. Run with -race. It asserts:
//
//   - estimates on stable shards stay bit-for-bit equal to their
//     sequential ground truth throughout the churn;
//   - lifecycle churn on one tenant never surfaces as an error on
//     another;
//   - cache pressure is tenant-local: the hammered tenant's result
//     cache records capacity evictions while the quiet tenant's
//     records none (structural isolation — there is no shared cache to
//     fight over).
func TestMultiTenantConcurrentLifecycle(t *testing.T) {
	specs := []ShardSpec{
		// Hammered: a tiny result cache so a varied workload must evict.
		{Tenant: "alpha", Collection: "main", Synopsis: "mem:alpha", Cache: 8},
		// Quiet: a roomy cache and a fixed workload — zero evictions.
		{Tenant: "beta", Collection: "main", Synopsis: "mem:beta", Cache: 1024},
		// Rebuilt concurrently: needs its document resident.
		{Tenant: "gamma", Collection: "main", Synopsis: "mem:gamma", Document: "mem"},
		{Tenant: "delta", Collection: "main", Synopsis: "mem:delta"},
		{Tenant: "delta", Collection: "aux", Synopsis: "mem:delta-aux"},
	}
	c := newTestCatalog(t, Config{}, specs...)

	shard := func(tenant, coll string) *Shard {
		t.Helper()
		sh, err := c.Shard(tenant, coll)
		if err != nil {
			t.Fatal(err)
		}
		return sh
	}
	alpha, beta := shard("alpha", "main"), shard("beta", "main")
	gamma := shard("gamma", "main")

	// Varied workload for alpha (distinct cache keys), fixed for beta.
	alphaQueries := make([]*query.Query, 64)
	for i := range alphaQueries {
		q, err := query.Parse(fmt.Sprintf("//book[year>%d]", 1900+i))
		if err != nil {
			t.Fatal(err)
		}
		alphaQueries[i] = q
	}
	betaQueries := parseWorkload(t)

	alphaWant := make([]float64, len(alphaQueries))
	for i, q := range alphaQueries {
		v, err := alpha.Service().Estimate(context.Background(), q)
		if err != nil {
			t.Fatal(err)
		}
		alphaWant[i] = v
	}
	betaWant, err := beta.Service().EstimateBatch(context.Background(), betaQueries, nil)
	if err != nil {
		t.Fatal(err)
	}

	const goroutines = 32
	const iters = 40
	ctx := context.Background()
	var workWG, churnWG sync.WaitGroup
	errs := make(chan error, goroutines+2)

	// Churn 1: gamma rebuilds from its resident document in a loop.
	stop := make(chan struct{})
	churnWG.Add(1)
	go func() {
		defer churnWG.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			_, err := gamma.Service().Rebuild(ctx, service.RebuildOptions{Reason: "race-test"})
			if err != nil && !errors.Is(err, service.ErrRebuildInProgress) {
				errs <- fmt.Errorf("gamma rebuild %d: %w", i, err)
				return
			}
		}
	}()
	// Churn 2: an epsilon shard attaches and detaches in a loop.
	churnWG.Add(1)
	go func() {
		defer churnWG.Done()
		sp := ShardSpec{Tenant: "epsilon", Collection: "burst", Synopsis: "mem:epsilon"}
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			if _, err := c.Attach(ctx, sp); err != nil {
				errs <- fmt.Errorf("epsilon attach %d: %w", i, err)
				return
			}
			if err := c.Detach(ctx, "epsilon", "burst"); err != nil {
				errs <- fmt.Errorf("epsilon detach %d: %w", i, err)
				return
			}
		}
	}()

	for g := 0; g < goroutines; g++ {
		workWG.Add(1)
		go func(g int) {
			defer workWG.Done()
			for r := 0; r < iters; r++ {
				switch g % 4 {
				case 0: // hammer alpha's tiny cache with rotating queries
					i := (g*iters + r) % len(alphaQueries)
					v, err := alpha.Service().Estimate(ctx, alphaQueries[i])
					if err != nil {
						errs <- fmt.Errorf("alpha estimate: %w", err)
						return
					}
					if v != alphaWant[i] {
						errs <- fmt.Errorf("alpha query %d = %v, want %v", i, v, alphaWant[i])
						return
					}
				case 1: // fixed workload against beta
					got, err := beta.Service().EstimateBatch(ctx, betaQueries, nil)
					if err != nil {
						errs <- fmt.Errorf("beta batch: %w", err)
						return
					}
					for i := range got {
						if got[i] != betaWant[i] {
							errs <- fmt.Errorf("beta query %d = %v, want %v", i, got[i], betaWant[i])
							return
						}
					}
				case 2: // estimates against the shard that is rebuilding
					if _, err := gamma.Service().Estimate(ctx, betaQueries[r%len(betaQueries)]); err != nil {
						errs <- fmt.Errorf("gamma estimate during rebuild: %w", err)
						return
					}
				case 3: // scatter across delta's two collections; resolve
					// the churned tenant too — any state is fine, errors
					// must be the typed sentinels only
					if _, err := c.ScatterEstimate(ctx, "delta", betaQueries); err != nil {
						errs <- fmt.Errorf("delta scatter: %w", err)
						return
					}
					if _, err := c.Shard("epsilon", "burst"); err != nil &&
						!errors.Is(err, service.ErrUnknownTenant) &&
						!errors.Is(err, service.ErrUnknownCollection) &&
						!errors.Is(err, service.ErrShardDraining) {
						errs <- fmt.Errorf("epsilon lookup: non-sentinel error %w", err)
						return
					}
				}
			}
		}(g)
	}

	// The churn loops run for as long as the workers do, so lifecycle
	// transitions overlap the whole estimate load.
	workWG.Wait()
	close(stop)
	churnWG.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if t.Failed() {
		return
	}

	// Isolation: alpha's cache was forced to evict, beta's never was.
	alphaStats := alpha.Service().Stats()
	betaStats := beta.Service().Stats()
	if alphaStats.Cache.Evictions == 0 {
		t.Errorf("alpha (cache cap 8, 64 distinct queries) recorded no evictions: %+v", alphaStats.Cache)
	}
	if betaStats.Cache.Evictions != 0 {
		t.Errorf("beta recorded %d evictions despite a roomy private cache: cross-tenant pressure should be impossible",
			betaStats.Cache.Evictions)
	}
	// The churned tenants are gone or present; either way the stable
	// tenants' shards are still resolvable and serving.
	if _, err := c.Shard("alpha", "main"); err != nil {
		t.Errorf("alpha unresolvable after churn: %v", err)
	}
	if gen := gamma.Service().Generation(); gen == 0 {
		t.Error("gamma never advanced a generation despite rebuild loop")
	}
}
