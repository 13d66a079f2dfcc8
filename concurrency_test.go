package xcluster_test

import (
	"fmt"
	"strings"
	"sync"
	"testing"

	"xcluster"
)

// concurrencyDoc generates a document large and varied enough that a
// tight structural budget forces real cluster merges (including the
// recursive part element, which exercises the cycle-handling path of the
// descendant-closure precomputation).
func concurrencyDoc() string {
	var b strings.Builder
	b.WriteString("<catalog>")
	for i := 0; i < 150; i++ {
		fmt.Fprintf(&b, "<item><name>Item %d</name><price>%d</price>", i, 5+(13*i)%500)
		if i%2 == 0 {
			fmt.Fprintf(&b, "<desc>durable %s finish tool number %d</desc>",
				[]string{"brass", "steel", "oak", "glass"}[i%4], i)
		}
		if i%5 == 0 {
			// Nested parts give the synopsis a recursive label.
			fmt.Fprintf(&b, "<part><name>Sub %d</name><part><name>SubSub %d</name></part></part>", i, i)
		}
		b.WriteString("</item>")
	}
	b.WriteString("</catalog>")
	return b.String()
}

var concurrencyWorkload = []string{
	"//item",
	"//item/name",
	"//item[price>100]",
	"//item[price>100]/name",
	"//item[price range(50,250)]",
	"//item[desc contains(brass)]",
	"//item[desc ftcontains(durable,tool)]",
	"//part//name",
	"//item[part]/price",
	"//catalog/item[price<20][desc]",
}

// TestEstimatorConcurrentBitForBit hammers one shared Estimator from 32
// goroutines with a mixed twig workload and requires every answer to
// match the sequential answers bit-for-bit: the estimator's precomputed
// indexes, pooled execution scratch, and caches must not perturb the
// floating-point accumulation order. Run with -race.
func TestEstimatorConcurrentBitForBit(t *testing.T) {
	tree, err := xcluster.ParseXML(strings.NewReader(concurrencyDoc()))
	if err != nil {
		t.Fatal(err)
	}
	syn, err := xcluster.Build(tree, xcluster.WithStructBudget(600), xcluster.WithValueBudget(768))
	if err != nil {
		t.Fatal(err)
	}

	qs := make([]*xcluster.Query, len(concurrencyWorkload))
	for i, s := range concurrencyWorkload {
		qs[i] = xcluster.MustParseQuery(s)
	}

	// Sequential ground truth from a separate, cache-less estimator.
	seq := xcluster.NewEstimator(syn)
	seq.SetCacheCapacity(0)
	want := make([]float64, len(qs))
	for i, q := range qs {
		want[i] = seq.Selectivity(q)
	}

	shared := xcluster.NewEstimator(syn)
	const goroutines = 32
	const rounds = 40
	var wg sync.WaitGroup
	errs := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				// Rotate so goroutines overlap on different queries.
				i := (g + r) % len(qs)
				if got := shared.Selectivity(qs[i]); got != want[i] {
					errs <- fmt.Errorf("goroutine %d: %s = %v, want %v (bit-for-bit)",
						g, concurrencyWorkload[i], got, want[i])
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}

	cs := shared.CacheStats()
	if cs.Hits+cs.Misses != goroutines*rounds {
		t.Fatalf("cache saw %d lookups, want %d", cs.Hits+cs.Misses, goroutines*rounds)
	}
	if cs.Hits == 0 {
		t.Fatalf("no cache hits across %d repeated queries: %+v", goroutines*rounds, cs)
	}
}
