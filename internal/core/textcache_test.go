package core

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"xcluster/internal/query"
)

// TestParseQueryRepeatedText: a repeated text returns the same parsed
// query and canonical string, and the canonical string is the query's
// own rendering.
func TestParseQueryRepeatedText(t *testing.T) {
	est := planEstimators(t)["merged"]
	for _, text := range planQueries {
		q1, c1, err := est.ParseQuery(text)
		if err != nil {
			t.Fatalf("ParseQuery(%s): %v", text, err)
		}
		if want := query.MustParse(text).String(); c1 != want || q1.String() != want {
			t.Fatalf("ParseQuery(%s) canonical %q, query renders %q; want %q", text, c1, q1.String(), want)
		}
		q2, c2, err := est.ParseQuery(text)
		if err != nil || q2 != q1 || c2 != c1 {
			t.Fatalf("repeat ParseQuery(%s) = %p %q %v; want the cached %p %q", text, q2, c2, err, q1, c1)
		}
	}
	st := est.texts.stats()
	if n := uint64(len(planQueries)); st.Hits != n || st.Misses != n || st.Len != len(planQueries) {
		t.Fatalf("text cache after one miss and one hit per text: %+v", st)
	}
}

// TestParseQueryErrorsNotCached: a bad text fails with the same
// ParseError on every call and never enters the cache.
func TestParseQueryErrorsNotCached(t *testing.T) {
	est := planEstimators(t)["merged"]
	if _, _, err := est.ParseQuery("//paper"); err != nil {
		t.Fatal(err)
	}
	_, direct := query.Parse("//paper[year>")
	var want *query.ParseError
	if !errors.As(direct, &want) {
		t.Fatalf("query.Parse error %v is not a ParseError", direct)
	}
	for i := 0; i < 3; i++ {
		q, c, err := est.ParseQuery("//paper[year>")
		var got *query.ParseError
		if q != nil || c != "" || !errors.As(err, &got) {
			t.Fatalf("call %d: ParseQuery = %v, %q, %v; want a ParseError", i, q, c, err)
		}
		if got.Error() != want.Error() || got.Offset != want.Offset {
			t.Fatalf("call %d: error %q at %d, want %q at %d", i, got, got.Offset, want, want.Offset)
		}
		if n := est.texts.stats().Len; n != 1 {
			t.Fatalf("call %d: text cache holds %d entries, want 1 (errors are not cached)", i, n)
		}
	}
}

// TestParseQueryLongTextNotCached: a text longer than
// maxCachedQueryText is parsed on every call and never stored; one at
// the limit is cached.
func TestParseQueryLongTextNotCached(t *testing.T) {
	est := planEstimators(t)["merged"]
	pad := func(n int) string { // //paper[year>000…2000], n bytes long
		const head, tail = "//paper[year>", "2000]"
		return head + strings.Repeat("0", n-len(head)-len(tail)) + tail
	}
	long := pad(maxCachedQueryText + 1)
	q1, c1, err := est.ParseQuery(long)
	if err != nil {
		t.Fatal(err)
	}
	q2, c2, err := est.ParseQuery(long)
	if err != nil {
		t.Fatal(err)
	}
	if q1 == q2 {
		t.Fatal("a text over the limit was served from the cache")
	}
	if want := query.MustParse("//paper[year>2000]").String(); c1 != want || c2 != want {
		t.Fatalf("canonical strings %q, %q; want %q", c1, c2, want)
	}
	if st := est.texts.stats(); st.Len != 0 || st.Hits+st.Misses != 0 {
		t.Fatalf("text cache after texts over the limit: %+v, want untouched", st)
	}
	atLimit := pad(maxCachedQueryText)
	q3, _, _ := est.ParseQuery(atLimit)
	if q4, _, _ := est.ParseQuery(atLimit); q4 != q3 {
		t.Fatal("a text at the limit was not cached")
	}
}

// TestParseQueryCacheDisabled: SetCacheCapacity(0) turns the text cache
// off with the result cache.
func TestParseQueryCacheDisabled(t *testing.T) {
	est := planEstimators(t)["merged"]
	est.SetCacheCapacity(0)
	q1, c1, err := est.ParseQuery("//paper/title")
	if err != nil {
		t.Fatal(err)
	}
	q2, c2, err := est.ParseQuery("//paper/title")
	if err != nil {
		t.Fatal(err)
	}
	if q1 == q2 || c1 != c2 {
		t.Fatalf("disabled cache: queries %p, %p (want distinct), canonicals %q, %q (want equal)", q1, q2, c1, c2)
	}
	if est.texts != nil {
		t.Fatal("SetCacheCapacity(0) left the text cache on")
	}
}

// TestParseQueryConcurrent shares repeated texts across 32 goroutines
// through a text cache smaller than the text set (so entries are
// evicted and re-inserted under contention). Every estimate of a cached parse must equal the
// estimate of a fresh query.Parse bit-for-bit. Run under -race.
func TestParseQueryConcurrent(t *testing.T) {
	est := planEstimators(t)["merged"]
	est.SetCacheCapacity(8)
	ref := NewEstimator(est.Synopsis())
	ref.SetCacheCapacity(0)
	want := make([]float64, len(planQueries))
	canon := make([]string, len(planQueries))
	for i, text := range planQueries {
		q := query.MustParse(text)
		want[i], canon[i] = ref.Selectivity(q), q.String()
	}

	const goroutines = 32
	var wg sync.WaitGroup
	errs := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for r := 0; r < 100; r++ {
				i := (g + r) % len(planQueries)
				q, c, err := est.ParseQuery(planQueries[i])
				if err != nil {
					errs <- err
					return
				}
				var tr EstimateTrace
				v, err := est.SelectivityTracedCanonical(context.Background(), q, c, time.Time{}, &tr)
				if err != nil || c != canon[i] || v != want[i] {
					errs <- fmt.Errorf("goroutine %d: %s = %v (canonical %q, err %v); fresh parse %v (%q)",
						g, planQueries[i], v, c, err, want[i], canon[i])
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
}
