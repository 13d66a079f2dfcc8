// Package pst implements Pruned Suffix Trees, the STRING value summary of
// XCluster nodes: a depth-bounded trie over all substrings of a string
// collection, annotated with document-frequency counts (how many strings
// contain each substring).
//
// Following the paper's modification of the original PST proposal, the
// tree always retains at least one node for every symbol that appears in
// the distribution (depth-1 nodes are never pruned), which keeps negative
// substring queries at zero estimated selectivity. Longer query strings
// are estimated with the maximal-overlap Markovian scheme of Jagadish, Ng
// and Srivastava (PODS'99): the query is parsed greedily into maximal
// retained substrings and conditional probabilities are chained across
// their overlaps.
package pst

import (
	"fmt"
	"math"
	"math/bits"
	"slices"
	"sort"
)

// NodeBytes is the storage charged per trie node (symbol, count, child
// pointer) by the synopsis size accounting.
const NodeBytes = 6

// DefaultMaxDepth bounds the substring length recorded by detailed
// (reference-synopsis) PSTs.
const DefaultMaxDepth = 4

// node is one trie node. Its children are the contiguous block
// nodes[kids : kids+nkids] of the tree's array, in ascending symbol
// order; a leaf has nkids == 0. The struct holds no pointers.
type node struct {
	count float64
	kids  int32  // index of the first child in Tree.nodes
	nkids uint16 // number of children (at most 256)
	sym   byte   // the edge symbol from the parent (0 at the root)
}

// Tree is a pruned suffix tree over a collection of strings. The zero
// value is unusable; use Build or Merge.
type Tree struct {
	// nodes is the trie, root first (count = number of strings). Every
	// node's children form one block after it, sorted by symbol, so a
	// child is found by binary search and the array is pointer-free: the
	// GC never scans it.
	nodes []node
	// rootSet has bit c set when the root has a child on symbol c: the
	// child's position in the root's block is its rank in the set, so
	// the lookup every query string starts with is O(1).
	rootSet  [4]uint64
	maxDepth int
	// exactDepth is the substring length up to which absence from the
	// trie is definitive (true zero count). A freshly built tree retains
	// every substring up to maxDepth; pruning reduces the guarantee to
	// depth 1 (the one-node-per-symbol invariant).
	exactDepth int
}

// child returns the index of node i's child on symbol c, or 0 when
// there is none (the root is never a child).
func (t *Tree) child(i int32, c byte) int32 {
	if i == 0 {
		w, bit := c>>6, uint64(1)<<(c&63)
		if t.rootSet[w]&bit == 0 {
			return 0
		}
		rank := bits.OnesCount64(t.rootSet[w] & (bit - 1))
		for _, x := range t.rootSet[:w] {
			rank += bits.OnesCount64(x)
		}
		return t.nodes[0].kids + int32(rank)
	}
	lo, end := t.span(i)
	for hi := end; lo < hi; {
		m := int32(uint32(lo+hi) >> 1)
		if t.nodes[m].sym < c {
			lo = m + 1
		} else {
			hi = m
		}
	}
	if lo < end && t.nodes[lo].sym == c {
		return lo
	}
	return 0
}

// span returns the bounds [lo, hi) of node i's children block.
func (t *Tree) span(i int32) (lo, hi int32) {
	n := &t.nodes[i]
	return n.kids, n.kids + int32(n.nkids)
}

// kids returns node i's children block.
func (t *Tree) kids(i int32) []node {
	lo, hi := t.span(i)
	return t.nodes[lo:hi]
}

// reserve appends a block of k zero nodes for node i's children and
// returns its first index. It allocates only when the array's capacity,
// sized by the caller for the whole tree, runs out.
func (t *Tree) reserve(i int32, k int) int32 {
	at := int32(len(t.nodes))
	t.nodes = append(t.nodes, make([]node, k)...)
	t.nodes[i].kids, t.nodes[i].nkids = at, uint16(k)
	return at
}

// index rebuilds rootSet from the root's children.
func (t *Tree) index() {
	t.rootSet = [4]uint64{}
	for _, ch := range t.kids(0) {
		t.rootSet[ch.sym>>6] |= 1 << (ch.sym & 63)
	}
}

// Build constructs a detailed PST over the collection, recording every
// substring of length at most maxDepth (DefaultMaxDepth when <= 0). Each
// string contributes at most one count per distinct substring (document
// frequency).
func Build(strs []string, maxDepth int) *Tree {
	if maxDepth <= 0 {
		maxDepth = DefaultMaxDepth
	}
	b := builder{nodes: make([]bnode, 1, 64)}
	for i, s := range strs {
		b.insertString(s, int32(i+1), maxDepth)
	}
	b.nodes[0].count = float64(len(strs))
	t := &Tree{maxDepth: maxDepth, exactDepth: maxDepth, nodes: make([]node, 1, len(b.nodes))}
	b.place(t, 0, 0)
	t.index()
	return t
}

// builder is the mutable trie Build inserts into before it lays the
// result out as a Tree: every node's children form a linked list in
// symbol order, and the root's are also indexed by symbol, so the step
// every substring starts with skips the list.
type builder struct {
	nodes []bnode // nodes[0] is the root
	root  [256]int32
}

type bnode struct {
	count       float64
	first, next int32 // first child, next sibling; 0 for none
	stamp       int32 // the last string that counted this node
	sym         byte
}

// insertString adds every distinct substring of s (up to maxDepth) with
// a count of one. Deduplication walks all start positions but bumps a
// node only on the first visit per string, tracked by the string's
// stamp id.
func (b *builder) insertString(s string, id int32, maxDepth int) {
	for i := 0; i < len(s); i++ {
		cur := int32(0)
		for j := i; j < len(s) && j-i < maxDepth; j++ {
			if cur == 0 {
				if cur = b.root[s[j]]; cur == 0 {
					cur = b.childOrAdd(0, s[j])
					b.root[s[j]] = cur
				}
			} else {
				cur = b.childOrAdd(cur, s[j])
			}
			if n := &b.nodes[cur]; n.stamp != id {
				n.stamp = id
				n.count++
			}
		}
	}
}

// childOrAdd returns p's child on symbol c, linking a new one into p's
// sorted child list when there is none.
func (b *builder) childOrAdd(p int32, c byte) int32 {
	prev, k := int32(0), b.nodes[p].first
	for k != 0 && b.nodes[k].sym < c {
		prev, k = k, b.nodes[k].next
	}
	if k != 0 && b.nodes[k].sym == c {
		return k
	}
	b.nodes = append(b.nodes, bnode{sym: c, next: k})
	n := int32(len(b.nodes) - 1)
	if prev == 0 {
		b.nodes[p].first = n
	} else {
		b.nodes[prev].next = n
	}
	return n
}

// place copies builder node k into t.nodes[at] and lays out its subtree.
func (b *builder) place(t *Tree, at, k int32) {
	src := &b.nodes[k]
	t.nodes[at].sym, t.nodes[at].count = src.sym, src.count
	n := 0
	for c := src.first; c != 0; c = b.nodes[c].next {
		n++
	}
	if n == 0 {
		return
	}
	first := t.reserve(at, n)
	for c := src.first; c != 0; c = b.nodes[c].next {
		b.place(t, first, c)
		first++
	}
}

// Count returns the number of summarized strings.
func (t *Tree) Count() float64 { return t.nodes[0].count }

// Nodes returns the number of trie nodes (root excluded).
func (t *Tree) Nodes() int { return len(t.nodes) - 1 }

// SizeBytes returns the storage charge of the tree.
func (t *Tree) SizeBytes() int { return t.Nodes() * NodeBytes }

// MaxDepth returns the depth bound of retained substrings.
func (t *Tree) MaxDepth() int { return t.maxDepth }

// freq returns the document-frequency count of substring s, or -1 if s is
// not retained. freq("") is the string count.
func (t *Tree) freq(s string) float64 {
	cur := int32(0)
	for i := 0; i < len(s); i++ {
		if cur = t.child(cur, s[i]); cur == 0 {
			return -1
		}
	}
	return t.nodes[cur].count
}

// Freq returns the document-frequency count of substring s, or -1 when
// s is not fully retained. Freq("") is the string count.
func (t *Tree) Freq(s string) float64 { return t.freq(s) }

// longestPrefix returns the length of the longest prefix of s retained in
// the tree.
func (t *Tree) longestPrefix(s string) int {
	cur := int32(0)
	for i := 0; i < len(s); i++ {
		if cur = t.child(cur, s[i]); cur == 0 {
			return i
		}
	}
	return len(s)
}

// Selectivity estimates the fraction of strings containing qs as a
// substring. Fully-retained substrings are answered exactly; longer ones
// use the maximal-overlap Markovian estimate.
func (t *Tree) Selectivity(qs string) float64 {
	if t.Count() == 0 {
		return 0
	}
	if qs == "" {
		return 1
	}
	n := t.Count()
	if f := t.freq(qs); f >= 0 {
		return f / n
	}
	if len(qs) <= t.exactDepth {
		return 0 // absence within the exact depth is definitive
	}
	// Maximal-overlap parse. m[i] = longest retained prefix of qs[i:].
	// A query string of up to len(buf) bytes parses on the stack.
	var buf [64]int
	var m []int
	if len(qs) <= len(buf) {
		m = buf[:len(qs)]
	} else {
		m = make([]int, len(qs))
	}
	for i := range qs {
		m[i] = t.longestPrefix(qs[i:])
	}
	if m[0] == 0 {
		return 0 // leading symbol unseen
	}
	prob := t.freq(qs[:m[0]]) / n
	prevStart, covered := 0, m[0]
	for covered < len(qs) {
		// Choose the piece starting in (prevStart, covered] that extends
		// coverage the furthest.
		bestS, bestEnd := -1, covered
		for s := prevStart + 1; s <= covered; s++ {
			if end := s + m[s]; end > bestEnd {
				bestS, bestEnd = s, end
			}
		}
		if bestS < 0 {
			return 0 // symbol at position `covered` unseen
		}
		piece := qs[bestS:bestEnd]
		overlap := qs[bestS:covered]
		fo := n
		if overlap != "" {
			fo = t.freq(overlap) // retained: it is a prefix of piece
		}
		if fo <= 0 {
			return 0
		}
		prob *= t.freq(piece) / fo
		prevStart, covered = bestS, bestEnd
	}
	if prob > 1 {
		prob = 1
	}
	return prob
}

// EstimateCount returns the estimated number of strings containing qs.
func (t *Tree) EstimateCount(qs string) float64 {
	return t.Selectivity(qs) * t.Count()
}

// Merge fuses two PSTs into a summary of the union of their string
// collections: the union of retained substrings with summed counts (the
// paper's STRING fusion f()).
func Merge(a, b *Tree) *Tree {
	if a == nil {
		return b.Clone()
	}
	if b == nil {
		return a.Clone()
	}
	out := &Tree{
		maxDepth:   max(a.maxDepth, b.maxDepth),
		exactDepth: min(a.exactDepth, b.exactDepth),
	}
	out.nodes = make([]node, 1, 1+unionSize(a, 0, b, 0))
	out.nodes[0].count = a.Count() + b.Count()
	out.merge(0, a, 0, b, 0)
	out.index()
	return out
}

// unionSize returns the number of distinct nodes below a's node ai and
// b's node bi together; an index of -1 stands for an absent node.
func unionSize(a *Tree, ai int32, b *Tree, bi int32) int {
	n := 0
	mergeKids(a, ai, b, bi, func(_ byte, ak, bk int32) {
		n += 1 + unionSize(a, ak, b, bk)
	})
	return n
}

// mergeKids calls fn for each symbol among the children of a's node ai
// and b's node bi (-1: absent) in ascending order, with the child's
// index in each tree or -1 where that tree lacks it.
func mergeKids(a *Tree, ai int32, b *Tree, bi int32, fn func(c byte, ak, bk int32)) {
	var ak, aEnd, bk, bEnd int32
	if ai >= 0 {
		ak, aEnd = a.span(ai)
	}
	if bi >= 0 {
		bk, bEnd = b.span(bi)
	}
	for ak < aEnd || bk < bEnd {
		switch {
		case bk == bEnd || (ak < aEnd && a.nodes[ak].sym < b.nodes[bk].sym):
			fn(a.nodes[ak].sym, ak, -1)
			ak++
		case ak == aEnd || b.nodes[bk].sym < a.nodes[ak].sym:
			fn(b.nodes[bk].sym, -1, bk)
			bk++
		default:
			fn(a.nodes[ak].sym, ak, bk)
			ak++
			bk++
		}
	}
}

// merge lays out below t's node at the union of the children of a's
// node ai and b's node bi (-1: absent), counts summed a first.
func (t *Tree) merge(at int32, a *Tree, ai int32, b *Tree, bi int32) {
	n := 0
	mergeKids(a, ai, b, bi, func(byte, int32, int32) { n++ })
	if n == 0 {
		return
	}
	k := t.reserve(at, n)
	mergeKids(a, ai, b, bi, func(c byte, ak, bk int32) {
		count := 0.0
		if ak >= 0 {
			count += a.nodes[ak].count
		}
		if bk >= 0 {
			count += b.nodes[bk].count
		}
		t.nodes[k].sym, t.nodes[k].count = c, count
		t.merge(k, a, ak, b, bk)
		k++
	})
}

// Clone returns a deep copy.
func (t *Tree) Clone() *Tree {
	if t == nil {
		return nil
	}
	out := *t
	out.nodes = slices.Clone(t.nodes)
	return &out
}

// leafInfo identifies a prunable leaf by its substring path and index.
type leafInfo struct {
	path  string
	err   float64
	count float64
	at    int32
}

// leaves collects all prunable leaves (depth >= 2, no children) with
// their pruning errors.
func (t *Tree) leaves() []leafInfo {
	var out []leafInfo
	var path []byte
	var walk func(i int32)
	walk = func(i int32) {
		lo, hi := t.span(i)
		for k := lo; k < hi; k++ {
			ch := t.nodes[k]
			path = append(path, ch.sym)
			if ch.nkids == 0 {
				if len(path) >= 2 {
					s := string(path)
					out = append(out, leafInfo{path: s, err: t.pruneError(s, ch.count), count: ch.count, at: k})
				}
			} else {
				walk(k)
			}
			path = path[:len(path)-1]
		}
	}
	walk(0)
	return out
}

// pruneError quantifies how much the estimate for substring s degrades if
// its node (with exact count f) is pruned: |f - markovEstimate(s)|, where
// the Markov estimate chains the parent substring with the longest
// retained proper suffix — exactly the estimate Selectivity would produce
// once the node is gone.
func (t *Tree) pruneError(s string, f float64) float64 {
	n := t.Count()
	if n == 0 {
		return 0
	}
	parent := s[:len(s)-1]
	fp := t.freq(parent)
	if fp <= 0 {
		return f
	}
	// Longest proper suffix still retained in full.
	for j := 1; j < len(s); j++ {
		fs := t.freq(s[j:])
		if fs < 0 {
			continue
		}
		fo := n
		if j < len(s)-1 {
			fo = t.freq(s[j : len(s)-1])
		}
		if fo <= 0 {
			continue
		}
		est := fp * fs / fo
		return math.Abs(f - est)
	}
	return f
}

// Prune removes up to b leaves in ascending pruning-error order, never
// removing depth-1 nodes (the one-node-per-symbol invariant). It returns
// the number of nodes actually removed. Pruning mutates the tree.
func (t *Tree) Prune(b int) int {
	return t.prune(b, func(x, y *leafInfo) bool {
		if x.err != y.err {
			return x.err < y.err
		}
		// Ties (common at error 0): prune deeper leaves first — they
		// carry the least residual information — and spread within a
		// depth by hash so no alphabet region is systematically
		// favored. Both keys are deterministic.
		if len(x.path) != len(y.path) {
			return len(x.path) > len(y.path)
		}
		hx, hy := pathHash(x.path), pathHash(y.path)
		if hx != hy {
			return hx < hy
		}
		return x.path < y.path
	})
}

// PruneLowestCount removes up to b leaves in ascending count order,
// ignoring pruning errors. This is the naive baseline the paper's
// pruning-error scheme is measured against (low count does not imply the
// Markov estimate reconstructs the substring well).
func (t *Tree) PruneLowestCount(b int) int {
	return t.prune(b, func(x, y *leafInfo) bool {
		if x.count != y.count {
			return x.count < y.count
		}
		return x.path < y.path // deterministic tie-break
	})
}

// prune removes up to b leaves, the first in less's order first. Removing
// a leaf can expose its parent as a new leaf, so the leaves are
// re-collected after each batch.
func (t *Tree) prune(b int, less func(x, y *leafInfo) bool) int {
	removed := 0
	for removed < b {
		ls := t.leaves()
		if len(ls) == 0 {
			break
		}
		sort.Slice(ls, func(i, j int) bool { return less(&ls[i], &ls[j]) })
		batch := min(b-removed, len(ls))
		for _, l := range ls[:batch] {
			t.nodes[l.at].kids = -1 // mark for removal
		}
		t.compact(batch)
		removed += batch
		t.exactDepth = 1
	}
	return removed
}

// compact lays the tree out again without the marked nodes, of which
// there are removed.
func (t *Tree) compact(removed int) {
	out := &Tree{nodes: make([]node, 1, len(t.nodes)-removed)}
	out.nodes[0].count = t.Count()
	var cp func(dst, src int32)
	cp = func(dst, src int32) {
		n := 0
		for _, ch := range t.kids(src) {
			if ch.kids >= 0 {
				n++
			}
		}
		if n == 0 {
			return
		}
		k := out.reserve(dst, n)
		lo, hi := t.span(src)
		for j := lo; j < hi; j++ {
			if t.nodes[j].kids < 0 {
				continue
			}
			out.nodes[k].sym, out.nodes[k].count = t.nodes[j].sym, t.nodes[j].count
			cp(k, j)
			k++
		}
	}
	cp(0, 0)
	t.nodes = out.nodes
	t.index()
}

// pathHash is a deterministic FNV-1a spreader for pruning tie-breaks.
func pathHash(s string) uint32 {
	h := uint32(2166136261)
	for i := 0; i < len(s); i++ {
		h ^= uint32(s[i])
		h *= 16777619
	}
	return h
}

// Substrings invokes fn for every retained substring and its count, in
// depth-first order over sorted symbols. Returning false stops the walk.
func (t *Tree) Substrings(fn func(s string, count float64) bool) {
	var path []byte
	var walk func(i int32) bool
	walk = func(i int32) bool {
		lo, hi := t.span(i)
		for k := lo; k < hi; k++ {
			path = append(path, t.nodes[k].sym)
			if !fn(string(path), t.nodes[k].count) || !walk(k) {
				return false
			}
			path = path[:len(path)-1]
		}
		return true
	}
	walk(0)
}

// Validate checks the monotonicity invariant (every node's count is at
// most its parent's), that siblings are in strictly ascending symbol
// order, and that every node of the array is reached exactly once.
func (t *Tree) Validate() error {
	seen := 0
	var walk func(i int32, depth int) error
	walk = func(i int32, depth int) error {
		n := t.nodes[i]
		if n.nkids > 0 && (n.kids <= i || int(n.kids)+int(n.nkids) > len(t.nodes)) {
			return fmt.Errorf("pst: children of a depth-%d node out of range", depth)
		}
		for k := n.kids; k < n.kids+int32(n.nkids); k++ {
			ch := t.nodes[k]
			seen++
			if k > n.kids && ch.sym <= t.nodes[k-1].sym {
				return fmt.Errorf("pst: symbol %q out of order at depth %d", string(ch.sym), depth+1)
			}
			if ch.count > n.count+1e-9 {
				return fmt.Errorf("pst: monotonicity violated at symbol %q depth %d: %g > %g",
					string(ch.sym), depth+1, ch.count, n.count)
			}
			if ch.count <= 0 {
				return fmt.Errorf("pst: non-positive count at symbol %q depth %d", string(ch.sym), depth+1)
			}
			if err := walk(k, depth+1); err != nil {
				return err
			}
		}
		return nil
	}
	if err := walk(0, 0); err != nil {
		return err
	}
	if seen != t.Nodes() {
		return fmt.Errorf("pst: node count %d, bookkeeping says %d", seen, t.Nodes())
	}
	return nil
}
