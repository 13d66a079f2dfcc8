package pst

import (
	"bytes"
	"math"
	"slices"
	"testing"

	"xcluster/internal/wire"
)

// oracleInput splits fuzz bytes into two string sets and query strings.
// Byte 0 picks the alphabet: odd keeps raw bytes (every symbol, so the
// root's index sees all 256), even folds them onto "abcde" so substrings
// repeat and pruning has choices. In the rest, 0xff ends a string and
// 0xfe moves on to the next set.
func oracleInput(data []byte) (a, b []string, queries []string) {
	if len(data) == 0 {
		return nil, nil, nil
	}
	raw := data[0]&1 == 1
	sets := [2][]string{}
	set := 0
	var cur []byte
	flush := func() {
		if len(cur) > 0 {
			sets[set] = append(sets[set], string(cur))
			cur = cur[:0]
		}
	}
	for _, c := range data[1:] {
		switch {
		case c == 0xff:
			flush()
		case c == 0xfe:
			flush()
			set = (set + 1) % 2
		case raw:
			cur = append(cur, c)
		default:
			cur = append(cur, 'a'+c%5)
		}
	}
	flush()
	seen := map[string]bool{"": true, "z": true}
	queries = []string{"", "z"}
	for _, s := range append(slices.Clone(sets[0]), sets[1]...) {
		for i := range s {
			for j := i + 1; j <= len(s) && j-i <= 9; j++ {
				if q := s[i:j]; !seen[q] {
					seen[q] = true
					queries = append(queries, q)
				}
			}
		}
	}
	return sets[0], sets[1], queries
}

// sameAsOracle fails t unless got and want hold the same trie: counts,
// depths, substrings in enumeration order, encoded bytes, estimates bit
// for bit, and validity.
func sameAsOracle(t *testing.T, what string, got *Tree, want *oracleTree, queries []string) {
	t.Helper()
	if got.Count() != want.Count() || got.Nodes() != want.Nodes() ||
		got.MaxDepth() != want.MaxDepth() || got.exactDepth != want.exactDepth {
		t.Fatalf("%s: count/nodes/depth/exact %g/%d/%d/%d, oracle %g/%d/%d/%d", what,
			got.Count(), got.Nodes(), got.MaxDepth(), got.exactDepth,
			want.Count(), want.Nodes(), want.MaxDepth(), want.exactDepth)
	}
	type sub struct {
		s string
		c float64
	}
	var gs, ws []sub
	got.Substrings(func(s string, c float64) bool { gs = append(gs, sub{s, c}); return true })
	want.Substrings(func(s string, c float64) bool { ws = append(ws, sub{s, c}); return true })
	if !slices.Equal(gs, ws) {
		t.Fatalf("%s: substrings differ:\n got %v\nwant %v", what, gs, ws)
	}
	encode := func(enc func(*wire.Writer)) []byte {
		var buf bytes.Buffer
		w := wire.NewWriter(&buf)
		enc(w)
		_ = w.Flush()
		return buf.Bytes()
	}
	gb, wb := encode(got.Encode), encode(want.Encode)
	if !bytes.Equal(gb, wb) {
		t.Fatalf("%s: encodings differ", what)
	}
	for _, q := range queries {
		if g, w := got.Freq(q), want.Freq(q); math.Float64bits(g) != math.Float64bits(w) {
			t.Fatalf("%s: Freq(%q) = %g, oracle %g", what, q, g, w)
		}
		if g, w := got.Selectivity(q), want.Selectivity(q); math.Float64bits(g) != math.Float64bits(w) {
			t.Fatalf("%s: Selectivity(%q) = %g, oracle %g", what, q, g, w)
		}
	}
	if gerr, werr := got.Validate(), want.Validate(); (gerr == nil) != (werr == nil) {
		t.Fatalf("%s: Validate = %v, oracle %v", what, gerr, werr)
	}
	r := wire.NewReader(bytes.NewReader(gb))
	back := Decode(r)
	if r.Err() != nil || r.Len() != int64(len(gb)) || !bytes.Equal(encode(back.Encode), gb) {
		t.Fatalf("%s: decode of the encoding: err %v, %d of %d bytes", what, r.Err(), r.Len(), len(gb))
	}
}

// FuzzPSTOracle checks the array trie against the map-based oracle
// (oracle_test.go) over random string sets, depths and pruning budgets:
// Build, Merge, Clone, Prune, PruneLowestCount, Freq, Selectivity,
// Substrings order and Encode bytes must all agree exactly.
func FuzzPSTOracle(f *testing.F) {
	f.Add([]byte("\x00database\xffdata\xffbase\xfedatabank\xffabase"), uint8(4), uint8(3))
	f.Add([]byte("\x01database\xffdata\xffbase\xfedatabank\xffabase\xffXYZ"), uint8(3), uint8(7))
	f.Add([]byte("\x00\x01\x02\x03\x04\x05\x06\x07\x08\x09\xff\x09\x08\x07\xfe\x01\x01\x01"), uint8(5), uint8(40))
	f.Add([]byte("\x01\x00\x7f\x80\xfd\xff\xfe\x00\x80"), uint8(0), uint8(1))
	f.Add([]byte("\x00aaaaaaaaaaaa\xfe\xfe"), uint8(2), uint8(255))
	f.Add([]byte{}, uint8(1), uint8(0))
	f.Fuzz(func(t *testing.T, data []byte, depth, budget uint8) {
		a, b, queries := oracleInput(data)
		d := int(depth % 7) // 0 selects DefaultMaxDepth
		ta, oa := Build(a, d), oracleBuild(a, d)
		sameAsOracle(t, "Build(a)", ta, oa, queries)
		tb, ob := Build(b, d+1), oracleBuild(b, d+1)
		sameAsOracle(t, "Build(b)", tb, ob, queries)
		sameAsOracle(t, "Merge(a, b)", Merge(ta, tb), oracleMerge(oa, ob), queries)
		sameAsOracle(t, "Merge(a, nil)", Merge(ta, nil), oracleMerge(oa, nil), queries)
		sameAsOracle(t, "Merge(nil, b)", Merge(nil, tb), oracleMerge(nil, ob), queries)

		for _, prune := range []struct {
			name   string
			run    func(*Tree, int) int
			oracle func(*oracleTree, int) int
		}{
			{"Prune", (*Tree).Prune, (*oracleTree).Prune},
			{"PruneLowestCount", (*Tree).PruneLowestCount, (*oracleTree).PruneLowestCount},
		} {
			tm, om := Merge(ta, tb), oracleMerge(oa, ob)
			tc, oc := tm.Clone(), om.Clone()
			if g, w := prune.run(tc, int(budget)), prune.oracle(oc, int(budget)); g != w {
				t.Fatalf("%s(%d) removed %d, oracle %d", prune.name, budget, g, w)
			}
			sameAsOracle(t, prune.name, tc, oc, queries)
			sameAsOracle(t, prune.name+": the clone's source", tm, om, queries)
			// Pruning in two steps meets the same trie as the oracle's.
			prune.run(tc, int(budget)/2+1)
			prune.oracle(oc, int(budget)/2+1)
			sameAsOracle(t, prune.name+" again", tc, oc, queries)
			sameAsOracle(t, prune.name+" then Merge", Merge(tc, ta), oracleMerge(oc, oa), queries)
		}
	})
}
