package pst

import (
	"fmt"

	"xcluster/internal/wire"
)

// maxDecodeDepth bounds the depth of a decoded trie, so a corrupt
// stream cannot recurse without end.
const maxDecodeDepth = 64

// Encode writes the tree: header fields, then the trie in preorder (per
// node: child count, then per child its symbol, count, and subtree).
func (t *Tree) Encode(w *wire.Writer) {
	w.Float(t.Count())
	w.Uint(uint64(t.maxDepth))
	w.Uint(uint64(t.exactDepth))
	var enc func(i int32)
	enc = func(i int32) {
		lo, hi := t.span(i)
		w.Uint(uint64(hi - lo))
		for k := lo; k < hi; k++ {
			w.Uint(uint64(t.nodes[k].sym))
			w.Float(t.nodes[k].count)
			enc(k)
		}
	}
	enc(0)
}

// Decode reads a tree written by Encode. A read ahead over the same
// bytes counts the nodes first, so the trie takes one allocation. A
// node with more than 256 children, a trie deeper than maxDecodeDepth,
// or children not in strictly ascending symbol order fail r.
func Decode(r *wire.Reader) *Tree {
	t := &Tree{}
	count := r.Float()
	t.maxDepth = int(r.Uint())
	t.exactDepth = int(r.Uint())
	ahead := *r
	t.nodes = make([]node, 1, 1+countNodes(&ahead, 0))
	t.nodes[0].count = count
	t.decode(r, 0, 0)
	t.index()
	return t
}

// kidCount reads the child count of a node at depth, failing r when it
// cannot be valid.
func kidCount(r *wire.Reader, depth int) int {
	n := r.Uint()
	switch {
	case r.Err() != nil:
		return 0
	case n > 256:
		r.Fail(fmt.Errorf("pst: node with %d children", n))
		return 0
	case n > 0 && depth >= maxDecodeDepth:
		r.Fail(fmt.Errorf("pst: trie deeper than %d", maxDecodeDepth))
		return 0
	}
	return int(n)
}

// countNodes reads the subtree below a node at depth and returns its
// node count, up to the first read error.
func countNodes(r *wire.Reader, depth int) int {
	n := kidCount(r, depth)
	total := n
	for i := 0; i < n && r.Err() == nil; i++ {
		r.Uint()
		r.Float()
		total += countNodes(r, depth+1)
	}
	return total
}

// decode reads the subtree below node at (at depth) into t.
func (t *Tree) decode(r *wire.Reader, at int32, depth int) {
	n := kidCount(r, depth)
	if n == 0 {
		return
	}
	k := t.reserve(at, n)
	for i := 0; i < n && r.Err() == nil; i++ {
		c := r.Uint()
		if c > 255 || (i > 0 && byte(c) <= t.nodes[k-1].sym) {
			r.Fail(fmt.Errorf("pst: child symbol %d out of order at depth %d", c, depth+1))
			return
		}
		t.nodes[k].sym, t.nodes[k].count = byte(c), r.Float()
		t.decode(r, k, depth+1)
		k++
	}
}
