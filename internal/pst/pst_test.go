package pst

import (
	"bytes"
	"math"
	"math/rand"
	"strings"
	"testing"

	"xcluster/internal/wire"
)

// trueSel returns the exact fraction of strs containing qs.
func trueSel(strs []string, qs string) float64 {
	if len(strs) == 0 {
		return 0
	}
	n := 0
	for _, s := range strs {
		if strings.Contains(s, qs) {
			n++
		}
	}
	return float64(n) / float64(len(strs))
}

func TestExactForRetainedSubstrings(t *testing.T) {
	strs := []string{"database", "data", "base", "databank", "abase"}
	tr := Build(strs, 4)
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
	if tr.Count() != 5 {
		t.Fatalf("Count = %g", tr.Count())
	}
	for _, qs := range []string{"d", "a", "dat", "data", "base", "bas", "ban", "ab"} {
		got := tr.Selectivity(qs)
		want := trueSel(strs, qs)
		if math.Abs(got-want) > 1e-9 {
			t.Errorf("sel(%q) = %g, want %g", qs, got, want)
		}
	}
}

func TestNegativeQueriesAreZero(t *testing.T) {
	strs := []string{"alpha", "beta", "gamma"}
	tr := Build(strs, 4)
	for _, qs := range []string{"z", "zz", "alphaz", "xy"} {
		if got := tr.Selectivity(qs); got != 0 {
			t.Errorf("sel(%q) = %g, want 0 (symbol absent)", qs, got)
		}
	}
}

func TestMarkovEstimateForLongStrings(t *testing.T) {
	// Depth 3 retains trigrams; "database" needs chaining.
	strs := []string{"database", "database", "database", "dataset"}
	tr := Build(strs, 3)
	got := tr.Selectivity("database")
	want := 0.75
	// The Markov chain should land in the right ballpark (the chain is
	// exact when conditional independence holds; here it nearly does).
	if got < 0.3 || got > 1.0 {
		t.Fatalf("sel(database) = %g, want near %g", got, want)
	}
	// And the unrelated long string estimates to (near) zero.
	if got := tr.Selectivity("basedata"); got > 0.8 {
		t.Fatalf("sel(basedata) = %g, suspiciously high", got)
	}
}

func TestEmptyCollection(t *testing.T) {
	tr := Build(nil, 4)
	if tr.Selectivity("a") != 0 || tr.Count() != 0 {
		t.Fatal("empty PST misbehaves")
	}
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestEmptyQueryString(t *testing.T) {
	tr := Build([]string{"ab"}, 4)
	if got := tr.Selectivity(""); got != 1 {
		t.Fatalf("sel(\"\") = %g, want 1", got)
	}
}

func TestMergeMatchesUnionBuild(t *testing.T) {
	a := []string{"database", "data", "index"}
	b := []string{"base", "databank", "index"}
	ta := Build(a, 4)
	tb := Build(b, 4)
	m := Merge(ta, tb)
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
	u := Build(append(append([]string{}, a...), b...), 4)
	if m.Count() != u.Count() {
		t.Fatalf("merged count %g, want %g", m.Count(), u.Count())
	}
	if m.Nodes() != u.Nodes() {
		t.Fatalf("merged nodes %d, want %d", m.Nodes(), u.Nodes())
	}
	for _, qs := range []string{"data", "base", "ind", "x", "q"} {
		if got, want := m.Selectivity(qs), u.Selectivity(qs); math.Abs(got-want) > 1e-9 {
			t.Errorf("sel(%q): merged %g, union-built %g", qs, got, want)
		}
	}
	// Merge with nil is a clone.
	c := Merge(ta, nil)
	if c.Count() != ta.Count() || c.Nodes() != ta.Nodes() {
		t.Fatal("Merge(a, nil) not a clone")
	}
}

func TestCloneIsIndependent(t *testing.T) {
	tr := Build([]string{"abc", "abd"}, 3)
	cl := tr.Clone()
	n := tr.Nodes()
	cl.Prune(2)
	if tr.Nodes() != n {
		t.Fatal("pruning the clone mutated the original")
	}
}

func TestPruneReducesNodesKeepsSymbols(t *testing.T) {
	strs := []string{"database", "dataset", "databank", "index", "indices"}
	tr := Build(strs, 4)
	before := tr.Nodes()
	removed := tr.Prune(10)
	if removed != 10 {
		t.Fatalf("removed %d, want 10", removed)
	}
	if tr.Nodes() != before-10 {
		t.Fatalf("nodes %d, want %d", tr.Nodes(), before-10)
	}
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
	// Every symbol of the data still has its depth-1 node: negative
	// queries on unseen symbols are still zero, seen symbols non-zero.
	for _, c := range "database" {
		if tr.Selectivity(string(c)) == 0 {
			t.Errorf("symbol %q lost after pruning", string(c))
		}
	}
	if tr.Selectivity("z") != 0 {
		t.Error("unseen symbol gained selectivity")
	}
}

func TestPruneToMinimum(t *testing.T) {
	strs := []string{"abcd", "bcde"}
	tr := Build(strs, 4)
	tr.Prune(1 << 20) // prune everything prunable
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
	// Only depth-1 nodes remain.
	tr.Substrings(func(s string, _ float64) bool {
		if len(s) > 1 {
			t.Errorf("substring %q survived unlimited pruning", s)
		}
		return true
	})
}

func TestPruningErrorOrder(t *testing.T) {
	// f(x)=f(y)=f(xy)=3 so the Markov estimate for "xy" is 9/8 (error
	// 1.875); f(a)=f(b)=3 but f(ab)=1 so the estimate 9/8 is nearly
	// right (error 0.125). The pruning scheme must drop "ab" first.
	strs := []string{"xy", "xy", "xy", "ab", "a", "b", "a", "b"}
	tr := Build(strs, 2)
	var errXY, errAB float64
	tr.Substrings(func(s string, c float64) bool {
		switch s {
		case "xy":
			errXY = tr.pruneError(s, c)
		case "ab":
			errAB = tr.pruneError(s, c)
		}
		return true
	})
	if errAB >= errXY {
		t.Fatalf("pruneError(ab)=%g should be < pruneError(xy)=%g", errAB, errXY)
	}
	tr.Prune(1)
	retained := make(map[string]bool)
	tr.Substrings(func(s string, _ float64) bool {
		retained[s] = true
		return true
	})
	if retained["ab"] {
		t.Fatal("Prune(1) kept the low-error leaf ab")
	}
	if !retained["xy"] {
		t.Fatal("Prune(1) removed the high-error leaf xy")
	}
}

func TestSubstringsEnumeration(t *testing.T) {
	tr := Build([]string{"ab"}, 2)
	var got []string
	tr.Substrings(func(s string, c float64) bool {
		got = append(got, s)
		return true
	})
	want := map[string]bool{"a": true, "ab": true, "b": true}
	if len(got) != len(want) {
		t.Fatalf("Substrings = %v", got)
	}
	for _, s := range got {
		if !want[s] {
			t.Fatalf("unexpected substring %q", s)
		}
	}
}

func TestRandomizedAgainstExact(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	alphabet := "abcdef"
	var strs []string
	for i := 0; i < 200; i++ {
		n := rng.Intn(12) + 1
		var sb strings.Builder
		for j := 0; j < n; j++ {
			sb.WriteByte(alphabet[rng.Intn(len(alphabet))])
		}
		strs = append(strs, sb.String())
	}
	tr := Build(strs, 4)
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
	// Retained-length queries are exact.
	for i := 0; i < 50; i++ {
		n := rng.Intn(4) + 1
		var sb strings.Builder
		for j := 0; j < n; j++ {
			sb.WriteByte(alphabet[rng.Intn(len(alphabet))])
		}
		qs := sb.String()
		if got, want := tr.Selectivity(qs), trueSel(strs, qs); math.Abs(got-want) > 1e-9 {
			t.Fatalf("sel(%q) = %g, want %g", qs, got, want)
		}
	}
	// Longer queries stay within [0,1] and are zero when truly absent
	// symbols appear.
	for i := 0; i < 50; i++ {
		n := rng.Intn(6) + 5
		var sb strings.Builder
		for j := 0; j < n; j++ {
			sb.WriteByte(alphabet[rng.Intn(len(alphabet))])
		}
		got := tr.Selectivity(sb.String())
		if got < 0 || got > 1 {
			t.Fatalf("sel(%q) = %g out of [0,1]", sb.String(), got)
		}
	}
}

func TestSizeAccounting(t *testing.T) {
	tr := Build([]string{"ab"}, 2)
	if tr.SizeBytes() != tr.Nodes()*NodeBytes {
		t.Fatalf("SizeBytes = %d", tr.SizeBytes())
	}
}

func TestCodecRoundTrip(t *testing.T) {
	tr := Build([]string{"database", "dataset", "index", "index"}, 4)
	tr.Prune(3) // exercise exactDepth serialization too
	var buf bytes.Buffer
	w := wire.NewWriter(&buf)
	tr.Encode(w)
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	back := Decode(wire.NewReader(&buf))
	if err := back.Validate(); err != nil {
		t.Fatal(err)
	}
	if back.Count() != tr.Count() || back.Nodes() != tr.Nodes() || back.MaxDepth() != tr.MaxDepth() {
		t.Fatalf("shape changed: %g/%g strings, %d/%d nodes",
			back.Count(), tr.Count(), back.Nodes(), tr.Nodes())
	}
	for _, qs := range []string{"data", "index", "base", "q", "datab", "zzz"} {
		if a, b := tr.Selectivity(qs), back.Selectivity(qs); a != b {
			t.Fatalf("sel(%q): %g -> %g", qs, a, b)
		}
	}
}

func TestDecodeGuardsAgainstCorruptStreams(t *testing.T) {
	// A stream claiming an absurd child count must not allocate wildly
	// or recurse forever.
	var buf bytes.Buffer
	w := wire.NewWriter(&buf)
	w.Float(5)   // count
	w.Uint(4)    // maxDepth
	w.Uint(4)    // exactDepth
	w.Uint(9999) // child count: corrupt
	_ = w.Flush()
	r := wire.NewReader(&buf)
	_ = Decode(r)
	if r.Err() == nil {
		t.Fatal("corrupt child count accepted silently")
	}
}

func TestEstimateCount(t *testing.T) {
	tr := Build([]string{"data", "data", "base"}, 4)
	if got := tr.EstimateCount("data"); got != 2 {
		t.Fatalf("EstimateCount(data) = %g, want 2", got)
	}
	if got := tr.EstimateCount("zz"); got != 0 {
		t.Fatalf("EstimateCount(zz) = %g, want 0", got)
	}
}

// raceEnabled is set under the race detector, whose instrumentation
// makes allocation counts meaningless.
var raceEnabled bool

// TestSelectivityAllocs pins the maximal-overlap parse's working array
// to the stack for query strings of up to 64 bytes: such an estimate
// allocates nothing, and a longer one allocates the array once.
func TestSelectivityAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	tr := Build([]string{strings.Repeat("abc", 30), strings.Repeat("abcd", 20)}, 3)
	for _, tc := range []struct {
		qs   string
		want float64
	}{
		{strings.Repeat("abc", 21) + "a", 0}, // 64 bytes
		{strings.Repeat("abc", 22), 1},       // 66 bytes
	} {
		if tr.Selectivity(tc.qs) == 0 {
			t.Fatalf("sel(%d-byte string) = 0; the test needs a string the parse chains over", len(tc.qs))
		}
		if n := testing.AllocsPerRun(100, func() { tr.Selectivity(tc.qs) }); n != tc.want {
			t.Errorf("sel(%d-byte string): %v allocs, want %v", len(tc.qs), n, tc.want)
		}
	}
}

// TestDecodeRejectsCorruptTries feeds Decode tries no encoder writes:
// each must fail the reader instead of yielding a tree that silently
// lost nodes or counts one symbol twice.
func TestDecodeRejectsCorruptTries(t *testing.T) {
	header := func(w *wire.Writer) {
		w.Float(5) // count
		w.Uint(4)  // maxDepth
		w.Uint(4)  // exactDepth
	}
	leaf := func(w *wire.Writer, c uint64) {
		w.Uint(c)
		w.Float(1)
		w.Uint(0)
	}
	for _, tc := range []struct {
		name string
		body func(w *wire.Writer)
	}{
		{"child count above 256, then one byte", func(w *wire.Writer) {
			w.Uint(300)
			w.Uint(0)
		}},
		{"duplicate child symbol", func(w *wire.Writer) {
			w.Uint(2)
			leaf(w, 'a')
			leaf(w, 'a')
		}},
		{"unsorted child symbols", func(w *wire.Writer) {
			w.Uint(2)
			leaf(w, 'b')
			leaf(w, 'a')
		}},
		{"symbol above 255", func(w *wire.Writer) {
			w.Uint(1)
			leaf(w, 300)
		}},
		{"deeper than 64", func(w *wire.Writer) {
			for range maxDecodeDepth + 1 {
				w.Uint(1)
				w.Uint('a')
				w.Float(1)
			}
			w.Uint(0)
		}},
	} {
		var buf bytes.Buffer
		w := wire.NewWriter(&buf)
		header(w)
		tc.body(w)
		_ = w.Flush()
		r := wire.NewReader(&buf)
		_ = Decode(r)
		if r.Err() == nil {
			t.Errorf("%s: accepted", tc.name)
		}
	}

	// The deepest trie Decode admits still decodes.
	chain := Build([]string{strings.Repeat("a", maxDecodeDepth)}, maxDecodeDepth)
	var buf bytes.Buffer
	w := wire.NewWriter(&buf)
	chain.Encode(w)
	_ = w.Flush()
	r := wire.NewReader(&buf)
	if back := Decode(r); r.Err() != nil || back.Nodes() != maxDecodeDepth {
		t.Fatalf("depth-%d chain: err %v", maxDecodeDepth, r.Err())
	}
}

// TestDecodeAllocs pins Decode at a constant number of allocations per
// tree, whatever its size: the tree, and one node array sized by a
// read ahead.
func TestDecodeAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	for _, n := range []int{10, 1000} {
		strs := benchStrings(n)
		var buf bytes.Buffer
		w := wire.NewWriter(&buf)
		Build(strs, 4).Encode(w)
		_ = w.Flush()
		data := buf.Bytes()
		r := wire.NewReader(bytes.NewReader(data))
		got := testing.AllocsPerRun(20, func() {
			rr := *r // a fresh cursor over the same bytes
			Decode(&rr)
		})
		if got != 2 {
			t.Errorf("decode of a %d-string tree: %v allocs, want 2", n, got)
		}
	}
}

// benchStrings returns n reproducible strings over a 60-symbol alphabet,
// word-like enough that substrings repeat across strings.
func benchStrings(n int) []string {
	const alphabet = "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ01234567"
	rng := rand.New(rand.NewSource(7))
	out := make([]string, n)
	for i := range out {
		var sb strings.Builder
		for range 6 + rng.Intn(20) {
			// Skew toward the first letters, as text is.
			sb.WriteByte(alphabet[rng.Intn(1+rng.Intn(len(alphabet)))])
		}
		out[i] = sb.String()
	}
	return out
}

// BenchmarkSelectivity estimates a fixed mix of substrings on a pruned
// depth-4 PST over 2,000 strings: retained ones (answered by one trie
// walk), longer ones (the maximal-overlap parse) and absent ones.
func BenchmarkSelectivity(b *testing.B) {
	strs := benchStrings(2000)
	tr := Build(strs, 4)
	tr.Prune(tr.Nodes() / 2)
	var qs []string
	for i := 0; i < 64; i++ {
		s := strs[i*31%len(strs)]
		qs = append(qs, s[:min(len(s), 1+i%8)], s[i%3:], s[:min(len(s), 3)]+"Z9")
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		selSink = tr.Selectivity(qs[i%len(qs)])
	}
}

// selSink keeps BenchmarkSelectivity's estimates live.
var selSink float64
