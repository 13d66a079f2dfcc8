package pst

// The map-based pruned suffix tree this package used before its trie
// moved into one pointer-free node array, kept unchanged (only renamed)
// as the oracle FuzzPSTOracle checks the array trie against: every
// operation must give the same counts, order and bytes.

import (
	"fmt"
	"math"
	"sort"

	"xcluster/internal/wire"
)

type oracleNode struct {
	children map[byte]*oracleNode
	count    float64
}

func (n *oracleNode) child(c byte) *oracleNode {
	if n.children == nil {
		return nil
	}
	return n.children[c]
}

func (n *oracleNode) ensureChild(c byte) *oracleNode {
	if n.children == nil {
		n.children = make(map[byte]*oracleNode)
	}
	ch := n.children[c]
	if ch == nil {
		ch = &oracleNode{}
		n.children[c] = ch
	}
	return ch
}

// oracleTree is a pruned suffix tree over a collection of strings. The zero
// value is unusable; use Build or Merge.
type oracleTree struct {
	root     *oracleNode // count = number of strings
	maxDepth int
	nodes    int // trie nodes, root excluded
	// exactDepth is the substring length up to which absence from the
	// trie is definitive (true zero count). A freshly built tree retains
	// every substring up to maxDepth; pruning reduces the guarantee to
	// depth 1 (the one-oracleNode-per-symbol invariant).
	exactDepth int
}

// Build constructs a detailed PST over the collection, recording every
// substring of length at most maxDepth (DefaultMaxDepth when <= 0). Each
// string contributes at most one count per distinct substring (document
// frequency).
func oracleBuild(strs []string, maxDepth int) *oracleTree {
	if maxDepth <= 0 {
		maxDepth = DefaultMaxDepth
	}
	t := &oracleTree{root: &oracleNode{count: float64(len(strs))}, maxDepth: maxDepth, exactDepth: maxDepth}
	for _, s := range strs {
		t.insertString(s)
	}
	return t
}

// insertString adds every distinct substring of s (up to maxDepth) with a
// count of one. Deduplication walks all start positions but bumps a oracleNode
// only on the first visit per string, using a per-call stamp.
func (t *oracleTree) insertString(s string) {
	type stamp map[*oracleNode]struct{}
	seen := make(stamp)
	for i := 0; i < len(s); i++ {
		cur := t.root
		for j := i; j < len(s) && j-i < t.maxDepth; j++ {
			next := cur.child(s[j])
			if next == nil {
				next = cur.ensureChild(s[j])
				t.nodes++
			}
			cur = next
			if _, dup := seen[cur]; !dup {
				seen[cur] = struct{}{}
				cur.count++
			}
		}
	}
}

// Count returns the number of summarized strings.
func (t *oracleTree) Count() float64 { return t.root.count }

// Nodes returns the number of trie nodes (root excluded).
func (t *oracleTree) Nodes() int { return t.nodes }

// SizeBytes returns the storage charge of the tree.
func (t *oracleTree) SizeBytes() int { return t.nodes * NodeBytes }

// MaxDepth returns the depth bound of retained substrings.
func (t *oracleTree) MaxDepth() int { return t.maxDepth }

// lookup returns the oracleNode for substring s, or nil if not fully retained.
func (t *oracleTree) lookup(s string) *oracleNode {
	cur := t.root
	for i := 0; i < len(s); i++ {
		cur = cur.child(s[i])
		if cur == nil {
			return nil
		}
	}
	return cur
}

// freq returns the document-frequency count of substring s, or -1 if s is
// not retained. freq("") is the string count.
func (t *oracleTree) freq(s string) float64 {
	n := t.lookup(s)
	if n == nil {
		return -1
	}
	return n.count
}

// Freq returns the document-frequency count of substring s, or -1 when
// s is not fully retained. Freq("") is the string count.
func (t *oracleTree) Freq(s string) float64 { return t.freq(s) }

// longestPrefix returns the length of the longest prefix of s retained in
// the tree.
func (t *oracleTree) longestPrefix(s string) int {
	cur := t.root
	for i := 0; i < len(s); i++ {
		cur = cur.child(s[i])
		if cur == nil {
			return i
		}
	}
	return len(s)
}

// Selectivity estimates the fraction of strings containing qs as a
// substring. Fully-retained substrings are answered exactly; longer ones
// use the maximal-overlap Markovian estimate.
func (t *oracleTree) Selectivity(qs string) float64 {
	if t.root.count == 0 {
		return 0
	}
	if qs == "" {
		return 1
	}
	n := float64(t.root.count)
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
func (t *oracleTree) EstimateCount(qs string) float64 {
	return t.Selectivity(qs) * t.root.count
}

// Merge fuses two PSTs into a summary of the union of their string
// collections: the union of retained substrings with summed counts (the
// paper's STRING fusion f()).
func oracleMerge(a, b *oracleTree) *oracleTree {
	if a == nil {
		return b.Clone()
	}
	if b == nil {
		return a.Clone()
	}
	out := &oracleTree{
		root:       &oracleNode{count: a.root.count + b.root.count},
		maxDepth:   max(a.maxDepth, b.maxDepth),
		exactDepth: min(a.exactDepth, b.exactDepth),
	}
	var add func(dst, src *oracleNode)
	add = func(dst, src *oracleNode) {
		for c, sc := range src.children {
			dc := dst.child(c)
			if dc == nil {
				dc = dst.ensureChild(c)
				out.nodes++
			}
			dc.count += sc.count
			add(dc, sc)
		}
	}
	// Union by cloning a's shape then folding b in. out.nodes counts
	// every created oracleNode.
	add(out.root, a.root)
	add(out.root, b.root)
	return out
}

// Clone returns a deep copy.
func (t *oracleTree) Clone() *oracleTree {
	if t == nil {
		return nil
	}
	out := &oracleTree{root: &oracleNode{count: t.root.count}, maxDepth: t.maxDepth, nodes: t.nodes, exactDepth: t.exactDepth}
	var cp func(dst, src *oracleNode)
	cp = func(dst, src *oracleNode) {
		for c, sc := range src.children {
			dc := dst.ensureChild(c)
			dc.count = sc.count
			cp(dc, sc)
		}
	}
	cp(out.root, t.root)
	return out
}

// oracleLeaf identifies a prunable leaf by its substring path.
type oracleLeaf struct {
	path  string
	err   float64
	count float64
}

// leaves collects all prunable leaves (depth >= 2, no children) with
// their pruning errors.
func (t *oracleTree) leaves() []oracleLeaf {
	var out []oracleLeaf
	var walk func(n *oracleNode, path []byte)
	walk = func(n *oracleNode, path []byte) {
		for c, ch := range n.children {
			p := append(path, c)
			if len(ch.children) == 0 {
				if len(p) >= 2 {
					s := string(p)
					out = append(out, oracleLeaf{path: s, err: t.pruneError(s, ch.count), count: ch.count})
				}
			} else {
				walk(ch, p)
			}
			path = p[:len(p)-1]
		}
	}
	walk(t.root, nil)
	return out
}

// pruneError quantifies how much the estimate for substring s degrades if
// its oracleNode (with exact count f) is pruned: |f - markovEstimate(s)|, where
// the Markov estimate chains the parent substring with the longest
// retained proper suffix — exactly the estimate Selectivity would produce
// once the oracleNode is gone.
func (t *oracleTree) pruneError(s string, f float64) float64 {
	n := t.root.count
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
// removing depth-1 nodes (the one-oracleNode-per-symbol invariant). It returns
// the number of nodes actually removed. Pruning mutates the tree.
func (t *oracleTree) Prune(b int) int {
	removed := 0
	for removed < b {
		ls := t.leaves()
		if len(ls) == 0 {
			break
		}
		sort.Slice(ls, func(i, j int) bool {
			if ls[i].err != ls[j].err {
				return ls[i].err < ls[j].err
			}
			// Ties (common at error 0): prune deeper leaves first — they
			// carry the least residual information — and spread within a
			// depth by hash so no alphabet region is systematically
			// favored. Both keys are deterministic.
			if len(ls[i].path) != len(ls[j].path) {
				return len(ls[i].path) > len(ls[j].path)
			}
			hi, hj := oraclePathHash(ls[i].path), oraclePathHash(ls[j].path)
			if hi != hj {
				return hi < hj
			}
			return ls[i].path < ls[j].path
		})
		// Remove as many of this round's lowest-error leaves as allowed;
		// removing a leaf can expose its parent as a new leaf, so
		// re-collect after each batch.
		batch := b - removed
		if batch > len(ls) {
			batch = len(ls)
		}
		for i := 0; i < batch; i++ {
			t.removeLeaf(ls[i].path)
			removed++
		}
		t.exactDepth = 1
	}
	return removed
}

// PruneLowestCount removes up to b leaves in ascending count order,
// ignoring pruning errors. This is the naive baseline the paper's
// pruning-error scheme is measured against (low count does not imply the
// Markov estimate reconstructs the substring well).
func (t *oracleTree) PruneLowestCount(b int) int {
	removed := 0
	for removed < b {
		ls := t.leaves()
		if len(ls) == 0 {
			break
		}
		sort.Slice(ls, func(i, j int) bool {
			if ls[i].count != ls[j].count {
				return ls[i].count < ls[j].count
			}
			return ls[i].path < ls[j].path // deterministic tie-break
		})
		batch := b - removed
		if batch > len(ls) {
			batch = len(ls)
		}
		for i := 0; i < batch; i++ {
			t.removeLeaf(ls[i].path)
			removed++
		}
		t.exactDepth = 1
	}
	return removed
}

// oraclePathHash is a deterministic FNV-1a spreader for pruning tie-breaks.
func oraclePathHash(s string) uint32 {
	h := uint32(2166136261)
	for i := 0; i < len(s); i++ {
		h ^= uint32(s[i])
		h *= 16777619
	}
	return h
}

// removeLeaf unlinks the oracleNode at path (which must be a leaf).
func (t *oracleTree) removeLeaf(path string) {
	cur := t.root
	for i := 0; i < len(path)-1; i++ {
		cur = cur.child(path[i])
		if cur == nil {
			return
		}
	}
	last := path[len(path)-1]
	if ch := cur.child(last); ch != nil {
		if len(ch.children) != 0 {
			panic(fmt.Sprintf("pst: removeLeaf(%q): not a leaf", path))
		}
		delete(cur.children, last)
		t.nodes--
	}
}

// Substrings invokes fn for every retained substring and its count, in
// depth-first order. Returning false stops the walk.
func (t *oracleTree) Substrings(fn func(s string, count float64) bool) {
	var walk func(n *oracleNode, path []byte) bool
	walk = func(n *oracleNode, path []byte) bool {
		// Deterministic order: sorted symbols.
		syms := make([]int, 0, len(n.children))
		for c := range n.children {
			syms = append(syms, int(c))
		}
		sort.Ints(syms)
		for _, ci := range syms {
			c := byte(ci)
			ch := n.children[c]
			p := append(path, c)
			if !fn(string(p), ch.count) {
				return false
			}
			if !walk(ch, p) {
				return false
			}
			path = p[:len(p)-1]
		}
		return true
	}
	walk(t.root, nil)
}

// Validate checks the monotonicity invariant (every oracleNode's count is at
// most its parent's) and the oracleNode-count bookkeeping.
func (t *oracleTree) Validate() error {
	seen := 0
	var walk func(n *oracleNode, parentCount float64, depth int) error
	walk = func(n *oracleNode, parentCount float64, depth int) error {
		for c, ch := range n.children {
			seen++
			if ch.count > parentCount+1e-9 {
				return fmt.Errorf("pst: monotonicity violated at symbol %q depth %d: %g > %g",
					string(c), depth+1, ch.count, parentCount)
			}
			if ch.count <= 0 {
				return fmt.Errorf("pst: non-positive count at symbol %q depth %d", string(c), depth+1)
			}
			if err := walk(ch, ch.count, depth+1); err != nil {
				return err
			}
		}
		return nil
	}
	if err := walk(t.root, t.root.count, 0); err != nil {
		return err
	}
	if seen != t.nodes {
		return fmt.Errorf("pst: oracleNode count %d, bookkeeping says %d", seen, t.nodes)
	}
	return nil
}

// Encode writes the tree: header fields, then the trie in preorder (per
// oracleNode: child count, then per child its symbol, count, and subtree).
func (t *oracleTree) Encode(w *wire.Writer) {
	w.Float(t.root.count)
	w.Uint(uint64(t.maxDepth))
	w.Uint(uint64(t.exactDepth))
	var enc func(n *oracleNode)
	enc = func(n *oracleNode) {
		w.Uint(uint64(len(n.children)))
		syms := make([]int, 0, len(n.children))
		for c := range n.children {
			syms = append(syms, int(c))
		}
		sort.Ints(syms)
		for _, ci := range syms {
			c := byte(ci)
			ch := n.children[c]
			w.Uint(uint64(c))
			w.Float(ch.count)
			enc(ch)
		}
	}
	enc(t.root)
}

// Decode reads a tree written by Encode.
func oracleDecode(r *wire.Reader) *oracleTree {
	t := &oracleTree{root: &oracleNode{count: r.Float()}}
	t.maxDepth = int(r.Uint())
	t.exactDepth = int(r.Uint())
	var dec func(n *oracleNode, depth int)
	dec = func(n *oracleNode, depth int) {
		cnt := int(r.Uint())
		if r.Err() != nil || depth > 64 || cnt > 256 {
			if cnt > 256 || depth > 64 {
				// Corrupt stream; poison via an impossible read.
				r.Uint()
			}
			return
		}
		for i := 0; i < cnt && r.Err() == nil; i++ {
			c := byte(r.Uint())
			ch := n.ensureChild(c)
			ch.count = r.Float()
			t.nodes++
			dec(ch, depth+1)
		}
	}
	dec(t.root, 0)
	return t
}
