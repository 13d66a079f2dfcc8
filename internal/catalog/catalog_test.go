package catalog

import (
	"context"
	"errors"
	"strings"
	"testing"

	"xcluster/internal/core"
	"xcluster/internal/service"
	"xcluster/internal/xmltree"
)

func TestAttachResolveDetach(t *testing.T) {
	c := newTestCatalog(t, Config{},
		spec("acme", "docs"),
		spec("acme", "mail"),
		spec("globex", "docs"),
	)

	sh, err := c.Shard("acme", "docs")
	if err != nil {
		t.Fatal(err)
	}
	if sh.Key() != (Key{Tenant: "acme", Collection: "docs"}) {
		t.Fatalf("resolved wrong shard %s", sh.Key())
	}
	qs := parseWorkload(t)
	if _, err := sh.Service().EstimateBatch(context.Background(), qs, nil); err != nil {
		t.Fatalf("estimate on attached shard: %v", err)
	}

	if _, err := c.Shard("nobody", "docs"); !errors.Is(err, service.ErrUnknownTenant) {
		t.Fatalf("unknown tenant error = %v, want ErrUnknownTenant", err)
	}
	if _, err := c.Shard("acme", "nope"); !errors.Is(err, service.ErrUnknownCollection) {
		t.Fatalf("unknown collection error = %v, want ErrUnknownCollection", err)
	}

	if got := c.Tenants(); len(got) != 2 || got[0] != "acme" || got[1] != "globex" {
		t.Fatalf("Tenants = %v", got)
	}
	list := c.List()
	if len(list) != 3 {
		t.Fatalf("List returned %d shards, want 3", len(list))
	}
	for i := 1; i < len(list); i++ {
		a, b := list[i-1], list[i]
		if a.Tenant > b.Tenant || (a.Tenant == b.Tenant && a.Collection > b.Collection) {
			t.Fatalf("List not sorted: %v before %v", a, b)
		}
	}
	if list[0].Clusters == 0 || list[0].Bytes == 0 {
		t.Fatalf("List row missing synopsis size: %+v", list[0])
	}

	if err := c.Detach(context.Background(), "acme", "mail"); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Shard("acme", "mail"); !errors.Is(err, service.ErrUnknownCollection) {
		t.Fatalf("detached shard still resolvable: %v", err)
	}
	if err := c.Detach(context.Background(), "acme", "mail"); !errors.Is(err, service.ErrUnknownCollection) {
		t.Fatalf("second detach = %v, want ErrUnknownCollection", err)
	}
	// Detaching globex's only shard removes the tenant entirely.
	if err := c.Detach(context.Background(), "globex", "docs"); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Shard("globex", "anything"); !errors.Is(err, service.ErrUnknownTenant) {
		t.Fatalf("tenant with no shards = %v, want ErrUnknownTenant", err)
	}
}

func TestAttachDuplicateAndInvalid(t *testing.T) {
	c := newTestCatalog(t, Config{}, spec("acme", "docs"))
	if _, err := c.Attach(context.Background(), spec("acme", "docs")); err == nil || !strings.Contains(err.Error(), "already attached") {
		t.Fatalf("duplicate attach = %v, want already-attached error", err)
	}
	if _, err := c.Attach(context.Background(), ShardSpec{Tenant: "bad name", Collection: "x", Synopsis: "s"}); err == nil {
		t.Fatal("attach with invalid tenant name succeeded")
	}
	if _, err := c.Attach(context.Background(), ShardSpec{Tenant: "ok", Collection: "x"}); err == nil {
		t.Fatal("attach without synopsis succeeded")
	}
}

func TestDrainingShardRefusesWork(t *testing.T) {
	c := newTestCatalog(t, Config{}, spec("acme", "docs"))
	sh, err := c.Shard("acme", "docs")
	if err != nil {
		t.Fatal(err)
	}
	sh.draining.Store(true)
	if _, err := c.Shard("acme", "docs"); !errors.Is(err, service.ErrShardDraining) {
		t.Fatalf("draining shard lookup = %v, want ErrShardDraining", err)
	}
	// A Detach racing an in-progress one loses the CAS and fails fast.
	if err := c.Detach(context.Background(), "acme", "docs"); !errors.Is(err, service.ErrShardDraining) {
		t.Fatalf("concurrent detach = %v, want ErrShardDraining", err)
	}
	sh.draining.Store(false)
}

func TestRouteDocumentStability(t *testing.T) {
	c := newTestCatalog(t, Config{},
		spec("acme", "docs"),
		spec("acme", "mail"),
		spec("acme", "wiki"),
	)
	seenColl := make(map[string]int)
	for _, key := range ringKeys(500) {
		k1, err := c.RouteDocument("acme", key)
		if err != nil {
			t.Fatal(err)
		}
		k2, _ := c.RouteDocument("acme", key)
		if k1 != k2 {
			t.Fatalf("routing unstable for %q: %s then %s", key, k1, k2)
		}
		if k1.Tenant != "acme" {
			t.Fatalf("routed to wrong tenant: %s", k1)
		}
		seenColl[k1.Collection]++
	}
	if len(seenColl) != 3 {
		t.Fatalf("500 keys landed on %d of 3 collections: %v", len(seenColl), seenColl)
	}
	if _, err := c.RouteDocument("nobody", "doc-1"); !errors.Is(err, service.ErrUnknownTenant) {
		t.Fatalf("route for unknown tenant = %v, want ErrUnknownTenant", err)
	}
}

func TestDrainAllClosesCatalog(t *testing.T) {
	c := newTestCatalog(t, Config{}, spec("acme", "docs"))
	if err := c.DrainAll(context.Background()); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Attach(context.Background(), spec("acme", "more")); err == nil {
		t.Fatal("attach after DrainAll succeeded")
	}
	if got := c.List(); len(got) != 0 {
		t.Fatalf("shards after DrainAll: %v", got)
	}
}

// TestShardEstimatesMatchStandaloneService is the structural-isolation
// core of the catalog: a shard's estimates are exactly the estimates of
// a standalone service over the same synopsis, because the shard IS a
// standalone service.
func TestShardEstimatesMatchStandaloneService(t *testing.T) {
	loader := testLoader(t)
	sp := spec("acme", "docs")
	c := newTestCatalog(t, Config{Loader: loader}, sp)
	sh, err := c.Shard("acme", "docs")
	if err != nil {
		t.Fatal(err)
	}

	syn, _, err := loader(context.Background(), sp)
	if err != nil {
		t.Fatal(err)
	}
	direct := service.New(syn)
	defer direct.Close()

	qs := parseWorkload(t)
	got, err := sh.Service().EstimateBatch(context.Background(), qs, nil)
	if err != nil {
		t.Fatal(err)
	}
	want, err := direct.EstimateBatch(context.Background(), qs, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := range qs {
		if got[i] != want[i] {
			t.Fatalf("query %d (%s): shard %v != direct %v", i, testWorkload[i], got[i], want[i])
		}
	}
}

func TestLoaderFailure(t *testing.T) {
	c, err := New(Config{Loader: func(ctx context.Context, spec ShardSpec) (*core.Synopsis, *xmltree.Tree, error) {
		return nil, nil, errors.New("boom")
	}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Attach(context.Background(), spec("acme", "docs")); err == nil || !strings.Contains(err.Error(), "boom") {
		t.Fatalf("attach with failing loader = %v, want wrapped boom", err)
	}
	if got := c.List(); len(got) != 0 {
		t.Fatalf("failed attach left shards behind: %v", got)
	}
}
